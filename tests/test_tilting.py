"""The one-sided equivalence test against the units it stands for.

spherica.tilting decides whether an endokernel X is invertible from its
left action A -> Hom_A(X, X) and its right action A^op -> Hom_A^op(X, X),
on one-sided minimal models.  These are the units id -> RF and id -> FL
of X's functor at A, which the engine still builds for the cotwist and
the canonical maps, so each half is checked against the cone of its
unit, and the verdict against the two-sided test on the unminimised
kernel (helpers.is_equivalence_unminimised), on every endokernel that
is_equivalence_kernel decides in the builtin sessions, the example
sessions and the random corpus.
"""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import pytest

from spherica import Field, Kernel, check_conditions, complexes, kernel_ops, spherical
from spherica.bimodules import projective_bimodule
from spherica.complexes import Complex, scalar_algebra
from spherica.session import BUILTIN_TEXTS, parse_session, run_session
from spherica.spherical import _det, random_kernel
from spherica.tilting import left_action_is_quasi_iso, right_action_is_quasi_iso

from helpers import (
    RANDOM_SHAPES,
    dual_numbers,
    is_equivalence_unminimised,
    k_times_k,
    x_cubed,
    zigzag_a2,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
FIELDS = [Field.prime(2), Field.prime(101), Field.rationals()]


def _decided(field, monkeypatch) -> list:
    """Every kernel that is_equivalence_kernel decides on the builtin and
    example sessions, on the random kernels of seeds 0-3 over every
    RANDOM_SHAPES pair, and on P (+) P[-1] for P = P(pt, 0) from k to each of
    D, KK, X3 and Z, over field.  The class of P (+) P[-1] is 0, so its twist
    and cotwist have class I, which refutes neither."""
    seen, decide = [], spherical.is_equivalence_kernel
    monkeypatch.setattr(spherical, "is_equivalence_kernel", lambda k: seen.append(k) or decide(k))
    texts = [*BUILTIN_TEXTS.values(), *(p.read_text() for p in sorted(EXAMPLES.glob("*.sph")))]
    for text in texts:
        run_session(parse_session(text), field=field)
    for src, tgt in RANDOM_SHAPES.values():
        for seed in range(4):
            check_conditions(random_kernel(src(field), tgt(field), random.Random(seed)))
    k = scalar_algebra(field)
    for make in (dual_numbers, k_times_k, x_cubed, zigzag_a2):
        b = make(field)
        p = projective_bimodule(k, 0, b, 0)
        check_conditions(Kernel(k, b, Complex(k, b, {0: p, 1: p}, {})))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_each_action_test_equals_its_unit(field, monkeypatch):
    """The left-action test is the unit id -> RF being a quasi-isomorphism,
    the right-action test the unit id -> FL, and the verdict the two-sided
    test on the kernel as given.  Some verdicts are false, and no K_0
    class rules them out: a kernel is decided only when its class does
    not refute it, and these classes are invertible."""
    kernels = _decided(field, monkeypatch)
    unrefuted_false = 0
    for k in kernels:
        ops = kernel_ops(k)
        left, right = left_action_is_quasi_iso(k.complex), right_action_is_quasi_iso(k.complex)
        assert left == complexes.is_quasi_iso(ops.unit_right())
        assert right == complexes.is_quasi_iso(ops.unit_left())
        assert spherical.is_equivalence_kernel(k) == (left and right) == is_equivalence_unminimised(k)
        unrefuted_false += not (left and right) and abs(_det(ops.k0_class())) == 1
    assert len(kernels) > 20 and unrefuted_false > 0


def _zigzag_ladder(n: int) -> str:
    """check and spherical for P(pt, n/2) from k to the zigzag algebra of
    A_n, with the relations of examples/zigzag_a4.sph."""
    items = [f"vertices {' '.join(str(i) for i in range(1, n + 1))}"]
    items += [f"arrows {a}{i}: {i} -> {i + 1}" if a == "a" else f"arrows {a}{i}: {i + 1} -> {i}"
              for i in range(1, n) for a in "ab"]
    items += [rel for i in range(1, n - 1) for rel in (
        f"relations a{i}*a{i + 1} = 0", f"relations b{i + 1}*b{i} = 0",
        f"relations b{i}*a{i} - a{i + 1}*b{i + 1} = 0")]
    return (f"algebra k {{ vertices pt }}\nalgebra Z {{ {'; '.join(items)}; bound 3 }}\n"
            f"kernel P from k to Z {{ deg 0: P(pt,{n // 2}) }}\ncheck P\nspherical P\n")


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_zigzag_a8_ladder_decides_equivalences_in_small_memory(field, monkeypatch):
    """On zigzag A_8 (dimension 30) the twist's one-sided model keeps ten
    free summands.  The action tests form only the entries of their
    coordinate matrices that can be nonzero, so each call stays under
    8 MB, where Kronecker products with a side of (slots x dim A) take
    over 100 MB; the report is pinned."""
    peaks, decide = [], spherical.is_equivalence_kernel

    def measured(k):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return decide(k)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(spherical, "is_equivalence_kernel", measured)
    tracemalloc.start()
    try:
        report = run_session(parse_session(_zigzag_ladder(8)), field=field)
    finally:
        tracemalloc.stop()
    conditions = {"twist_equivalence": True, "cotwist_equivalence": True,
                  "condition_3": True, "condition_4": True}
    homology = {"twist": {"-1": 8, "0": 22}, "cotwist": {"1": 1}}
    assert [(r.cmd, r.status, r.data) for r in report.results] == [
        ("check P", "ok", {"conditions": conditions, "two_out_of_four": "pass", "theorem": "pass",
                           "homology": homology}),
        ("spherical P", "ok", {"is_spherical": True, "conditions": conditions, "homology": homology,
                               "splitting": "pass", "adjoint_spherical": "pass", "appendix": "pass"})]
    assert peaks and max(peaks) < 8 * 2 ** 20, [p / 2 ** 20 for p in peaks]
