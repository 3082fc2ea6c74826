"""The benchmark's workloads.

Each workload makes its inputs from a seed in ``setup``, hands out the
items of one pass with fresh engine inputs in ``items``, decides one item
in ``run`` (the timed part, calling only spherica's public API), and
checks the verdict against a reference in ``check``.  ``check`` returns
a list of problems; an empty list means the item passed.

Engine functions are looked up on the ``spherica`` package at call time,
so a tracer that rebinds them there sees the calls.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import spherica

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EXPECTED_DIR = BENCH_DIR / "expected"
DEFAULT_SEED = 20240809


def reference_report(name: str) -> str | None:
    """The F101 report a builtin session must produce: tests/golden/ where
    the repo has one, else the report recorded in bench/expected/ from the
    engine as first benchmarked (``record_expected.py``)."""
    for path in (GOLDEN_DIR / f"{name}.json", session_expected_path(name)):
        if path.is_file():
            return path.read_text()
    return None


def session_expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"session_{name}.json"


def _without_field(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "field"}


# ---------------------------------------------------------------------------
# builtin sessions
# ---------------------------------------------------------------------------


class SessionsWorkload:
    """Builtin sessions through ``run_session``; one item is one session.

    The seed fixes the order of the sessions within each pass.
    """

    setup_repeats = 15  # parsing is quick and its time noisy: take the median of many

    def __init__(self, name: str, why: str, sessions: list[str] | None, rationals: bool):
        self.name = name
        self.why = why
        self.session_names = sessions
        self.rationals = rationals

    def setup(self, seed: int):
        names = self.session_names or spherica.builtin_names()
        order = list(names)
        random.Random(seed).shuffle(order)
        return [(n, spherica.builtin_example(n)) for n in order]

    def reference_note(self, seed: int) -> str:
        return "reports checked against tests/golden/ and bench/expected/"

    def items(self, state):
        return state

    def run(self, item):
        _, sess = item
        field = spherica.Field.rationals() if self.rationals else None
        return spherica.run_session(sess, field=field)

    def check(self, item, report) -> list[str]:
        name, _ = item
        problems = []
        for r in report.results:
            if r.status != "ok":
                problems.append(f"{name}: '{r.cmd}' ended {r.status}")
        want = reference_report(name)
        if want is None:
            problems.append(f"{name}: no reference report")
        elif self.rationals:
            if report.field != "Q":
                problems.append(f"{name}: report field is {report.field}, not Q")
            if _without_field(report.to_dict()) != _without_field(json.loads(want)):
                problems.append(f"{name}: Q report differs from the F101 reference report")
        elif report.to_json() != want:
            problems.append(f"{name}: report differs from its reference report")
        if name == "zigzag_braid":
            found = [r.data.get("witness_found") for r in report.results
                     if r.cmd.startswith("assert-quasi-iso")]
            if found != [True]:
                problems.append(f"{name}: no quasi-iso witness reported ({found})")
        return problems


# ---------------------------------------------------------------------------
# random kernels: the criterion-5 stream
# ---------------------------------------------------------------------------


def _quiver(vertices, arrows=(), relations=(), bound=1):
    Arrow, Quiver = spherica.Arrow, spherica.QuiverPresentation
    return Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows), tuple(relations), bound)


# the four targets of the acceptance suite's criterion 5, in its round-robin order
TARGETS = {
    "D": lambda: _quiver(["v"], [("x", "v", "v")], [((1, ("x", "x")),)], 2),
    "KK": lambda: _quiver(["u", "w"]),
    "X3": lambda: _quiver(["v"], [("x", "v", "v")], [((1, ("x", "x", "x")),)], 3),
    "Z": lambda: _quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")],
                         [((1, ("a", "b", "a")),), ((1, ("b", "a", "b")),)], 3),
}

# kernels kept per target; each shape gets its share of them by the
# probability with which random_kernel draws it (shape_weights)
KERNELS_PER_TARGET = 16
# set-up always makes at least this many draws, so its work does not
# depend on how soon the seed fills every shape's quota
MIN_DRAWS = 256
MAX_DRAWS = 4000


def _signature(b, term) -> tuple[int, ...]:
    """Dimensions of M e_w for each vertex w of the target algebra."""
    return tuple(term.right_block(w).cols for w in range(len(b.vertex_idempotents)))


def kernel_shape(kernel) -> tuple:
    """Right-block signature per degree: which summands P(pt,w) each term has."""
    cx = kernel.complex
    return tuple(_signature(kernel.target_algebra, cx.term(n)) for n in cx.degrees())


def shape_weights(k, b) -> dict[tuple, Fraction]:
    """How often ``random_kernel(k, b, rng)`` draws each shape over the
    one-vertex source k: one or two terms with probability 1/2 each; one
    term holds one or two summands P(pt,w) with probability 1/2 each, two
    terms one summand each; every w is uniform."""
    sig = [_signature(b, spherica.projective_bimodule(k, 0, b, w))
           for w in range(len(b.vertex_idempotents))]
    n = len(sig)
    add = lambda s, t: tuple(x + y for x, y in zip(s, t))
    weights: dict[tuple, Fraction] = {}
    for s in sig:
        weights[(s,)] = weights.get((s,), 0) + Fraction(1, 4 * n)
        for t in sig:
            weights[(add(s, t),)] = weights.get((add(s, t),), 0) + Fraction(1, 4 * n * n)
            weights[(s, t)] = weights.get((s, t), 0) + Fraction(1, 2 * n * n)
    return weights


def shape_quotas(k, b) -> dict[tuple, int]:
    """KERNELS_PER_TARGET kernels split over the shapes by their weights."""
    quotas = {s: w * KERNELS_PER_TARGET for s, w in shape_weights(k, b).items()}
    if any(q.denominator != 1 for q in quotas.values()):
        raise ValueError(f"{b.name}: shape weights do not split {KERNELS_PER_TARGET} kernels")
    return {s: int(q) for s, q in quotas.items()}


def draw_kernels(seed: int, field=None) -> list[dict]:
    """The criterion-5 stream: ``random_kernel`` over k, targets taken
    round-robin.  The first kernels of each shape per target are kept, as
    many as ``shape_quotas`` gives, so every set has the stream's make-up
    and only the degrees, random differentials and summand orders change
    with the seed."""
    field = field or spherica.Field.prime(101)
    k = spherica.complexes.scalar_algebra(field)
    algebras = [spherica.algebra_from_quiver(make(), field, name=name)
                for name, make in TARGETS.items()]
    wanted = {(b.name, s): q for b in algebras for s, q in shape_quotas(k, b).items()}
    rng = random.Random(seed)
    kept = []
    for i in range(MAX_DRAWS):
        if i >= MIN_DRAWS and not any(wanted.values()):
            return kept
        b = algebras[i % len(algebras)]
        p = spherica.random_kernel(k, b, rng)
        key = (b.name, kernel_shape(p))
        if wanted.get(key):
            wanted[key] -= 1
            kept.append({"draw": i, "target": b.name, "shape": key[1],
                         "source": k, "algebra": b, "complex": p.complex})
    missing = sorted(key for key, n in wanted.items() if n)
    raise RuntimeError(f"seed {seed}: shapes not drawn after {MAX_DRAWS} kernels: {missing}")


def expected_path(seed: int) -> Path:
    return EXPECTED_DIR / f"random_2of4_seed{seed}.json"


class RandomKernelsWorkload:
    """Seeded random kernels decided by ``check_conditions`` and
    ``verify_two_out_of_four``; one item is one kernel."""

    setup_repeats = 2  # each set-up makes 256 draws or more

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self.expected: list[dict] | None = None

    def setup(self, seed: int):
        path = expected_path(seed)
        self.expected = json.loads(path.read_text()) if path.is_file() else None
        return draw_kernels(seed)

    def reference_note(self, seed: int) -> str:
        if self.expected is None:
            return (f"no per-kernel flag reference for seed {seed}: only the 0/1/4 count "
                    f"and verify_two_out_of_four are checked")
        return f"per-kernel flags checked against {expected_path(seed).name}"

    def items(self, state):
        """Each verdict gets a fresh Kernel around the drawn complex, so the
        adjoints that ``random_kernel`` built are not reused."""
        for index, entry in enumerate(state):
            kernel = spherica.Kernel(entry["source"], entry["algebra"], entry["complex"],
                                     check=False)
            yield index, entry, kernel

    def run(self, item):
        _, _, kernel = item
        report = spherica.check_conditions(kernel)
        verdict = spherica.verify_two_out_of_four(kernel, report)
        return report.flags(), verdict.status

    def check(self, item, result) -> list[str]:
        index, entry, _ = item
        flags, status = result
        label = f"kernel #{entry['draw']} over {entry['target']}"
        problems = []
        count = sum(flags)
        if count not in (0, 1, 4):
            problems.append(f"{label}: {count} conditions hold; only 0, 1 or 4 can")
        if status != "pass":
            problems.append(f"{label}: verify_two_out_of_four says {status}")
        if self.expected is not None:
            want = self.expected[index] if index < len(self.expected) else {}
            if [want.get("draw"), want.get("target")] != [entry["draw"], entry["target"]]:
                problems.append(f"{label}: kernel set differs from the expected file")
            elif list(flags) != want["flags"]:
                problems.append(f"{label}: flags {list(flags)} != expected {want['flags']}")
        return problems


WORKLOADS = {
    w.name: w for w in [
        SessionsWorkload(
            "sessions_f101",
            "every builtin session over F101: the user's path, where find_quasi_iso, "
            "chain_map_space and large rrefs dominate and the KernelOps cache is reused",
            None, rationals=False),
        RandomKernelsWorkload(
            "random_2of4",
            "criterion-5 random kernels over D, KK, X3, Z: tensor_cx and small F_p products "
            "dominate, every kernel is used once, so the cache stays cold"),
        SessionsWorkload(
            "sessions_q",
            "five builtin sessions over Q: the same layers on the Fraction path, "
            "which an int64 fast path must leave working and unchanged",
            ["dual_numbers", "identity", "kxk", "morita_2x2", "x_cubed"], rationals=True),
    ]
}
