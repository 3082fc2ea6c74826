"""Quasi-isomorphisms decided on homology, against the cone test.

complexes.is_quasi_iso decides whether f: X -> Y is a quasi-isomorphism
from the homology dimensions of X and Y and, in each degree with
cohomology, one rank: of the boundaries of Y next to the images of X's
cycles.  It builds no cone.  Here every call that the builtin and example
sessions, the conditions and the adjoint check of the random corpus, and
the witness searches make is compared with the cone test it replaced
(helpers.is_quasi_iso_by_cone), over F2, F101 and Q, and so are maps built
by hand for the cases the rank test tells apart: a map singular on the
homology of one degree only, a map missing in a degree with cohomology, a
quasi-isomorphism with non-invertible components and maps between acyclic
complexes.  complexes.block_homology_dims, which reads homology_dims when
both algebras have one vertex, is checked against the double-block formula.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from spherica import Field, check_conditions, complexes, kernel_ops, spherical
from spherica.bimodules import direct_sum, regular_bimodule
from spherica.complexes import (
    ChainMap,
    Complex,
    block_homology_dims,
    cone,
    direct_sum_complexes,
    is_quasi_iso,
    scalar_algebra,
)
from spherica.linalg import Matrix
from spherica.session import BUILTIN_TEXTS, parse_session, run_session
from spherica.spherical import random_kernel

from helpers import (
    RANDOM_SHAPES,
    block_homology_dims_by_blocks,
    dual_numbers,
    identity_map,
    is_acyclic,
    is_quasi_iso_by_cone,
    single_term,
    x_cubed,
    zigzag_a2,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
FIELDS = [Field.prime(2), Field.prime(101), Field.rationals()]


def _rebind(monkeypatch, original, replacement):
    """Bind replacement wherever a spherica module binds original."""
    for module in [m for n, m in list(sys.modules.items()) if n.startswith("spherica")]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


def _called(field, monkeypatch) -> tuple[list[tuple[ChainMap, bool]], int]:
    """(map, answer) for every is_quasi_iso call of the builtin and example
    sessions and of check_conditions and check_adjoint_spherical on the
    random kernels of seeds 0-3 over every RANDOM_SHAPES pair, over field;
    and how many of those calls test a find_quasi_iso candidate."""
    calls, searching, candidates = [], [0], [0]
    decide, search = complexes.is_quasi_iso, complexes.find_quasi_iso

    def deciding(f):
        answer = decide(f)
        calls.append((f, answer))
        candidates[0] += searching[0] > 0
        return answer

    def searching_for(*args):
        searching[0] += 1
        try:
            return search(*args)
        finally:
            searching[0] -= 1

    _rebind(monkeypatch, decide, deciding)
    _rebind(monkeypatch, search, searching_for)
    texts = [*BUILTIN_TEXTS.values(), *(p.read_text() for p in sorted(EXAMPLES.glob("*.sph")))]
    for text in texts:
        run_session(parse_session(text), field=field)
    for src, tgt in RANDOM_SHAPES.values():
        for seed in range(4):
            p = random_kernel(src(field), tgt(field), random.Random(seed))
            if check_conditions(p).cond_C_equiv:
                spherical.check_adjoint_spherical(p)
    monkeypatch.undo()
    return calls, candidates[0]


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_every_call_equals_the_cone_test(field, monkeypatch):
    """Each answer the runs got is the cone test's, both answers occur, and
    some calls test witness candidates."""
    calls, candidates = _called(field, monkeypatch)
    assert [answer for _, answer in calls] == [is_quasi_iso_by_cone(f) for f, _ in calls]
    answers = {answer for _, answer in calls}
    assert answers == {True, False} and candidates > 0


def _over_k(field, dims: dict[int, int], diffs: dict[int, list]) -> Complex:
    """A complex of k-vector spaces: k^dims[n] in degree n, and the
    differentials given by their rows."""
    k = scalar_algebra(field)
    terms = {n: direct_sum([regular_bimodule(k)] * d) for n, d in dims.items()}
    return Complex(k, k, terms, {n: Matrix.from_rows(field, rows) for n, rows in diffs.items()})


def _map(x: Complex, y: Complex, comps: dict[int, list]) -> ChainMap:
    f = ChainMap(x, y, {n: Matrix.from_rows(x.field, rows) for n, rows in comps.items()})
    f.check()
    return f


def _hand_built(field) -> dict[str, tuple[ChainMap, bool]]:
    """name -> (map, whether it is a quasi-isomorphism)."""
    # k --> k^2 --> k with d^0 = (1, 0)^T and d^1 = 0: cohomology c1 in
    # degree 1 and c2 in degree 2
    x = _over_k(field, {0: 1, 1: 2, 2: 1}, {0: [[1], [0]]})
    # the cycle c1 goes to the boundary a1, and c2 to itself
    into_boundary = _map(x, x, {0: [[1]], 1: [[1, 1], [0, 0]], 2: [[1]]})
    # k^2 --(1, 0)--> k and k in degree 2: cohomology c0 in degree 0 and c2
    z = _over_k(field, {0: 2, 1: 1, 2: 1}, {0: [[1, 0]]})
    # nonzero in degree 0, but it kills the cycle c0
    kills_a_cycle = _map(z, z, {0: [[1, 0], [0, 0]], 1: [[1]], 2: [[1]]})
    # k + k[-1] with zero differential, mapped to itself in degree 0 only
    w = _over_k(field, {0: 1, 1: 1}, {})
    missing = _map(w, w, {0: [[1]]})
    # Y (+) cone(id_W) -> Y and back, for D-bimodules Y (a kernel's model,
    # with homology) and W = D
    d = dual_numbers(field)
    y = kernel_ops(random_kernel(d, d, random.Random(1))).model().complex
    acyclic = cone(identity_map(single_term(regular_bimodule(d)))).cone
    bigger = direct_sum_complexes([y, acyclic])

    def slices(rows_first: bool) -> dict[int, Matrix]:
        out = {}
        for n, t in y.terms.items():
            eye = Matrix.identity(field, bigger.dim(n))
            out[n] = eye.submatrix(slice(0, t.dim), slice(None)) if rows_first \
                else eye.submatrix(slice(None), slice(0, t.dim))
        return out

    project, include = ChainMap(bigger, y, slices(True)), ChainMap(y, bigger, slices(False))
    for f in (project, include):
        f.check()
    other = cone(identity_map(x)).cone
    return {
        "c1 into the boundaries": (into_boundary, False),
        "c0 killed": (kills_a_cycle, False),
        "missing in degree 1": (missing, False),
        "identity": (identity_map(x), True),
        "projection off cone(id_W)": (project, True),
        "inclusion into Y + cone(id_W)": (include, True),
        "zero between acyclic complexes": (ChainMap(acyclic, acyclic, {}), True),
        "identity of an acyclic complex": (identity_map(acyclic), True),
        "zero between other acyclic complexes": (ChainMap(other, other, {}), True),
        "homology of different sizes": (ChainMap(x, w, {}), False),
    }


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_hand_built_maps(field):
    """Each hand-built map gets the expected answer from both tests; in the
    singular cases the two complexes have the same homology dimensions, so
    the rank test, not the dimension check, refutes them."""
    cases = _hand_built(field)
    for name, (f, expected) in cases.items():
        assert is_quasi_iso(f) == expected == is_quasi_iso_by_cone(f), name
    for name in ("c1 into the boundaries", "c0 killed", "missing in degree 1"):
        f, _ = cases[name]
        assert complexes.homology_dims(f.source) == complexes.homology_dims(f.target), name
    project, _ = cases["projection off cone(id_W)"]
    assert complexes.homology_dims(project.target)
    assert not all(m.is_invertible() for m in project.components.values())
    zero, _ = cases["zero between acyclic complexes"]
    assert is_acyclic(zero.source) and zero.source.terms


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_block_homology_over_one_vertex(field):
    """With one vertex on each side, block_homology_dims is the double-block
    formula: on random kernels between one-vertex algebras, their twists, and
    kernels from k."""
    k = scalar_algebra(field)
    pairs = [(dual_numbers(field), x_cubed(field)), (dual_numbers(field), dual_numbers(field)),
             (k, dual_numbers(field)), (k, x_cubed(field)), (k, k)]
    checked = 0
    for a, b in pairs:
        for seed in range(4):
            p = random_kernel(a, b, random.Random(seed))
            for x in (p.complex, kernel_ops(p).twist().kernel.complex):
                got = block_homology_dims(x)
                assert {n: h.tolist() for n, h in got.items()} == \
                    {n: h.tolist() for n, h in block_homology_dims_by_blocks(x).items()}
                checked += bool(got)
    assert checked
    # two vertices on a side still read the blocks
    z = random_kernel(k, zigzag_a2(field), random.Random(0)).complex
    assert all(h.shape == (1, 2) for h in block_homology_dims(z).values())
