"""Every engine function is entered by some user path.

The paths are those of the command line and the benchmark: `spherica
list`, `example`, and `example --run` on every builtin session (all over
F101); `run` on examples/zigzag_a3.sph with a JSON report, on a builtin
over Q and F2, on a session whose kernel has a `d` line, and on malformed
sessions, which exit 2; and random kernels through check_conditions and
verify_two_out_of_four.  They run under sys.setprofile, which records the
code object of every Python call.  A function or method defined in
src/spherica that none of them enters fails the test unless ALLOWED
names it, with the reason it stays.  The scan runs in a fresh
interpreter, as the engine caches some results per process.  Code that only tests reach belongs
in tests/helpers.py.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import spherica
from spherica import cli
from spherica.complexes import scalar_algebra
from spherica.linalg import Field
from spherica.session import BUILTIN_TEXTS
from spherica.spherical import check_conditions, random_kernel, verify_two_out_of_four

from helpers import RANDOM_SHAPES, dual_numbers, zigzag_a2

PACKAGE = Path(spherica.__file__).resolve().parent
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# "module.py:qualified name" -> why it stays although no user path enters it;
# reprs are left out of the scan, as they are there for debugging
ALLOWED = {
    "algebras.py:Algebra.check": "the validation API: checks the engine's objects on request",
    "algebras.py:Algebra.multiply_vec": "the validation API: Algebra.check multiplies with it",
    "bimodules.py:Bimodule.check": "the validation API: checks the engine's objects on request",
    "complexes.py:ChainMap.check": "the validation API: checks the engine's objects on request",
    "complexes.py:Complex.diff_matrix": "read by ChainMap.check",
    "complexes.py:ChainMap.scale": "first_witness's random phase scales chain maps; "
                                   "these paths find every witness before it",
    "complexes.py:Complex.euler_characteristic": "public API; the acceptance criteria read it",
    "complexes.py:Complex.total_dim": "read by check_fully_faithful",
    "kernels.py:compose_list": "public API, named in the README",
    "spherical.py:Verdict.passed": "public API; the acceptance assertions read it",
    "spherical.py:check_fully_faithful": "public API; acceptance criterion 7 and test_spherical call it",
}

D_LINE = """field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 0 0 , 1 0 }
check X
spherical X
"""

NOT_EQUIVARIANT = """field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 0 1 , 0 0 }
check X
"""

D_SQUARED = """field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); deg 2: P(pt,v); d 0: 1 0 , 0 1 ; d 1: 1 0 , 0 1 }
check X
"""


def _defined() -> set[tuple[str, str]]:
    """(file name, qualified name) of every function, method and nested
    function defined in the package, but for lambdas, comprehensions and
    reprs."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for c in stack.pop().co_consts:
                if isinstance(c, types.CodeType):
                    stack.append(c)
                    if c.co_flags & inspect.CO_OPTIMIZED and not c.co_name.startswith("<") \
                            and c.co_name != "__repr__":
                        out.add((path.name, c.co_qualname))
    return out


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _user_paths(tmp: Path) -> None:
    assert _cli("list") == 0
    for name in spherica.builtin_names():
        assert _cli("example", name) == 0
        assert _cli("example", name, "--run") == 0
    assert _cli("run", str(EXAMPLES / "zigzag_a3.sph"), "--json", str(tmp / "a3.json")) == 0
    (tmp / "dual_numbers.sph").write_text(BUILTIN_TEXTS["dual_numbers"])
    for field in ("q", "2"):
        assert _cli("run", str(tmp / "dual_numbers.sph"), "--field", field) == 0
    for name, text, code in (("d_line", D_LINE, 0), ("not_equivariant", NOT_EQUIVARIANT, 2),
                             ("d_squared", D_SQUARED, 2)):
        (tmp / f"{name}.sph").write_text(text)
        assert _cli("run", str(tmp / f"{name}.sph")) == code, name
    k = scalar_algebra(Field.prime(101))
    pairs = [(k, dual_numbers()), (k, zigzag_a2())]
    pairs += [(a(Field.prime(101)), b(Field.prime(101))) for a, b in RANDOM_SHAPES.values()]
    rng = random.Random(0)
    for a, b in pairs:
        for _ in range(2):
            p = random_kernel(a, b, rng)
            verify_two_out_of_four(p, check_conditions(p))


def _never_entered(tmp: Path) -> list[str]:
    """The functions of the package that the user paths never enter."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        _user_paths(tmp)
    finally:
        sys.setprofile(previous)
    entered = {(Path(c.co_filename).name, c.co_qualname) for c in codes
               if Path(c.co_filename).resolve().parent == PACKAGE}
    return sorted(f"{f}:{q}" for f, q in _defined() - entered)


def test_every_engine_function_is_entered_by_a_user_path(tmp_path):
    # a fresh interpreter, so that no cache filled by an earlier test hides a call
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    never = json.loads(run.stdout)
    unlisted = [name for name in never if name not in ALLOWED]
    assert not unlisted, "no user path enters these functions:\n" + "\n".join(unlisted)
    stale = sorted(set(ALLOWED) - set(never))
    assert not stale, "these ALLOWED functions are entered now; drop them:\n" + "\n".join(stale)


if __name__ == "__main__":
    print(json.dumps(_never_entered(Path(sys.argv[1]))))
