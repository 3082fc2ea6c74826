"""Record the references the benchmark checks verdicts against.

    python3 bench/record_expected.py sessions       # F101 reports of the builtin sessions
    python3 bench/record_expected.py SEED [SEED...]  # random_2of4 flags for these seeds

Sessions without a report in tests/golden/ get theirs written to
bench/expected/session_<NAME>.json; a seed gets its kernels' flags written
to bench/expected/random_2of4_seed<SEED>.json.  The files in the repo were
recorded once from the engine as first benchmarked; record again only when
a session or the kernel set itself changes, never to make a failing engine
pass.
"""

from __future__ import annotations

import json
import sys

from run import import_engine


def record_sessions(workloads) -> None:
    import spherica

    for name in spherica.builtin_names():
        if (workloads.GOLDEN_DIR / f"{name}.json").is_file():
            continue
        report = spherica.run_session(spherica.builtin_example(name))
        path = workloads.session_expected_path(name)
        path.write_text(report.to_json())
        print(f"wrote {path}")


def record_seed(workloads, seed: int) -> None:
    wl = workloads.RandomKernelsWorkload("random_2of4", "")
    state = workloads.draw_kernels(seed)
    rows = []
    for item in wl.items(state):
        _, entry, _ = item
        flags, status = wl.run(item)
        rows.append({"draw": entry["draw"], "target": entry["target"],
                     "shape": [list(s) for s in entry["shape"]],
                     "flags": list(flags), "two_out_of_four": status})
    path = workloads.expected_path(seed)
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} kernels to {path}")


def main(argv) -> int:
    if not argv:
        raise SystemExit(__doc__)
    import_engine()
    import workloads

    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    if argv == ["sessions"]:
        record_sessions(workloads)
    else:
        for seed in argv:
            record_seed(workloads, int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
