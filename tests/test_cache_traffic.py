"""Every kind of kept data is read again.

The engine keeps what it derives through one helper, spherica.linalg.kept.
This test wraps it in every spherica module that imports it and runs the
user paths of tests/test_reachability.py, one pass of the random-kernel
benchmark stream (seed 20240809) and `spherica run` on
examples/zigzag_a4_braid6.sph.  It counts, per kind of key, how often kept
builds an entry and how often it reads one back; the kind of a tuple key
is its first entry, of a string key the key itself, and of any other key
its type's name.  A kind that is built but never read fails the test
unless ALLOWED names it with the reason it stays, and so does an ALLOWED
kind that is read now.  The runs take place in a fresh interpreter, as
the engine keeps some results per process.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import spherica

PACKAGE = Path(spherica.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

# kind -> why it stays although none of the runs reads it back
ALLOWED: dict[str, str] = {}


def _kind(key) -> str:
    if isinstance(key, tuple):
        return key[0]
    return key if isinstance(key, str) else type(key).__name__


def _traffic(tmp: Path) -> dict[str, list[int]]:
    """kind -> [builds, reads] of kept over the runs."""
    from spherica import linalg
    from test_reachability import _cli, _user_paths

    counts = collections.defaultdict(lambda: [0, 0])
    kept = linalg.kept

    def counting(cache, key, build):
        counts[_kind(key)][key in cache] += 1
        return kept(cache, key, build)

    for name, module in list(sys.modules.items()):
        if name.startswith("spherica") and getattr(module, "kept", None) is kept:
            module.kept = counting
    _user_paths(tmp)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    for entry in workloads.draw_kernels(20240809):
        k = spherica.Kernel(entry["source"], entry["algebra"], entry["complex"], check=False)
        spherica.verify_two_out_of_four(k, spherica.check_conditions(k))
    assert _cli("run", str(ROOT / "examples" / "zigzag_a4_braid6.sph")) == 0
    return dict(counts)


def test_every_kept_kind_is_read_again(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    traffic = json.loads(run.stdout)
    assert traffic, "kept was never called"
    unread = sorted(kind for kind, (_, reads) in traffic.items() if not reads)
    unlisted = [kind for kind in unread if kind not in ALLOWED]
    assert not unlisted, "these kinds are kept but never read again:\n" + "\n".join(
        f"{kind}: built {traffic[kind][0]} times" for kind in unlisted)
    stale = sorted(set(ALLOWED) - set(unread))
    assert not stale, "these ALLOWED kinds are read now, or no longer built; drop them:\n" + \
        "\n".join(stale)


if __name__ == "__main__":
    print(json.dumps(_traffic(Path(sys.argv[1]))))
