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

The same test serves kernels whose two algebras differ: the action's
source is then the terms' left algebra, and its two halves are checked
against the cones of the units on random kernels between k and algebras
with and without arrows, both ways, and from D to Z.  The faithful
command reads the left one alone, and its reports are checked against
the sampled search it replaced (helpers.faithful_by_search).

tilting.is_identity decides whether an endokernel is the identity on
the same one-sided model.  It is checked against the sampled test it
replaced (helpers.identity_by_search) on every identity test of the same
runs and on twists and adjoint composites of random kernels, and on
twisted bimodules _sigma A, whose answer is known: each is invertible
with homology A in degree 0, and it is the identity exactly when sigma
is inner.
"""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import pytest

from spherica import Field, Kernel, check_conditions, complexes, kernel_ops, spherical
from spherica.algebras import Arrow, QuiverPresentation, algebra_from_quiver
from spherica.bimodules import projective_bimodule
from spherica.complexes import Complex, homology_dims, scalar_algebra
from spherica import session
from spherica.session import BUILTIN_TEXTS, parse_session, run_session
from spherica.spherical import _det, random_kernel
from spherica.tilting import is_identity, left_action_is_quasi_iso, right_action_is_quasi_iso

from helpers import (
    RANDOM_SHAPES,
    a2_path_algebra,
    adjoint_composites_unminimised,
    dual_numbers,
    faithful_by_search,
    identity_by_search,
    identity_kernel,
    is_equivalence_unminimised,
    k_times_k,
    kronecker,
    single_term,
    twisted_bimodule,
    x_cubed,
    zigzag_a2,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
FIELDS = [Field.prime(2), Field.prime(101), Field.rationals()]
# F2 has no scalar but 0 and 1 to twist by
TWISTED_FIELDS = [Field.prime(3), Field.prime(101), Field.rationals()]


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


@pytest.mark.parametrize("field", [Field.prime(2), *TWISTED_FIELDS], ids=["F2", "F3", "F101", "Q"])
def test_action_tests_serve_kernels_between_two_algebras(field):
    """On random kernels from k to D, X3, Z, the A_2 path algebra and KK,
    from each of these to k, and from D to Z, the left-action test is the
    unit id -> RF being a quasi-isomorphism and the right-action test the
    unit id -> FL, and each test answers both ways."""
    k = scalar_algebra(field)
    others = [make(field) for make in (dual_numbers, x_cubed, zigzag_a2, a2_path_algebra, kronecker)]
    pairs = [(k, b) for b in others] + [(b, k) for b in others] + [(dual_numbers(field), zigzag_a2(field))]
    lefts, rights = set(), set()
    for a, b in pairs:
        for seed in range(6):
            p = random_kernel(a, b, random.Random(seed))
            ops = kernel_ops(p)
            left, right = left_action_is_quasi_iso(p.complex), right_action_is_quasi_iso(p.complex)
            assert left == complexes.is_quasi_iso(ops.unit_right()), (a.name, b.name, seed)
            assert right == complexes.is_quasi_iso(ops.unit_left()), (a.name, b.name, seed)
            lefts.add(left)
            rights.add(right)
    assert lefts == rights == {False, True}


_Z4 = next(line for line in (EXAMPLES / "zigzag_a4_braid6.sph").read_text().splitlines()
           if line.startswith("algebra Z4"))

FAITHFUL_TEXTS = [BUILTIN_TEXTS["morita_2x2"], """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel P from k to D { deg 0: P(pt,v) }
faithful P
""", f"""\
field F 101
algebra k {{ vertices pt }}
{_Z4}
kernel P1 from k to Z4 {{ deg 0: P(pt,1) }}
kernel P2 from k to Z4 {{ deg 0: P(pt,2) }}
twist P1 as T1
twist P2 as T2
compose T1 T2 as T12
faithful T1
faithful T12
"""]


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_faithful_reports_equal_the_sampled_search(field, monkeypatch):
    """The faithful command's reports equal those of the witness search it
    replaced: pass on morita_2x2 and on the zigzag twists T1 and T12,
    not_applicable on P(pt, v) from k to D, whose RF is D.  The command
    leaves the session's rng as it found it."""
    faithful, states = session._HANDLERS["faithful"], []

    def watched(st, args):
        before = st.rng.getstate()
        try:
            return faithful(st, args)
        finally:
            states.append(before == st.rng.getstate())

    def runs(handler):
        monkeypatch.setitem(session._HANDLERS, "faithful", handler)
        return [[(r.cmd, r.status, r.data) for r in run_session(parse_session(text), field=field).results]
                for text in FAITHFUL_TEXTS]

    reports = runs(watched)
    assert reports == runs(lambda st, args: faithful_by_search(st.kernels[args[0]], st.rng))
    verdicts = [data["verdict"] for report in reports for cmd, _, data in report if cmd.startswith("faithful")]
    assert verdicts == ["pass", "not_applicable", "pass", "pass"]
    assert states == [True] * 4


def _identity_tested(field, monkeypatch) -> list:
    """Every endokernel that quasi_iso_to_identity decides on the builtin
    and example sessions and in check_adjoint_spherical of the random
    kernels of seeds 0-3 over every RANDOM_SHAPES pair and from k to D, X3
    and Z, over field; then for each random kernel from k its twist, its
    cotwist and the adjoint check's two composites tensored from the
    triangles themselves (helpers.adjoint_composites_unminimised)."""
    seen, identity = [], spherical.quasi_iso_to_identity
    monkeypatch.setattr(spherical, "quasi_iso_to_identity", lambda k: seen.append(k) or identity(k))
    texts = [*BUILTIN_TEXTS.values(), *(p.read_text() for p in sorted(EXAMPLES.glob("*.sph")))]
    for text in texts:
        run_session(parse_session(text), field=field)
    k = scalar_algebra(field)
    pairs = [(src(field), tgt(field)) for src, tgt in RANDOM_SHAPES.values()]
    pairs += [(k, make(field)) for make in (dual_numbers, x_cubed, zigzag_a2)]
    from_k = []
    for a, b in pairs:
        for seed in range(4):
            p = random_kernel(a, b, random.Random(seed))
            if check_conditions(p).cond_C_equiv:
                spherical.check_adjoint_spherical(p)
            if a is k:
                from_k.append(p)
    monkeypatch.undo()
    for p in from_k:
        ops = kernel_ops(p)
        seen += [ops.twist().kernel, ops.cotwist().kernel, *adjoint_composites_unminimised(p)]
    return seen


@pytest.mark.parametrize("field", [Field.prime(2), *TWISTED_FIELDS], ids=["F2", "F3", "F101", "Q"])
def test_identity_equals_the_sampled_test(field, monkeypatch):
    """The one-sided identity test gives the sampled test's answer on every
    kernel of _identity_tested, and both answers occur over algebras with
    arrows."""
    kernels = _identity_tested(field, monkeypatch)
    answers = [spherical.quasi_iso_to_identity(k) for k in kernels]
    assert answers == [identity_by_search(k) for k in kernels]
    with_arrows = [answer for answer, k in zip(answers, kernels) if k.source_algebra.radical_basis]
    assert any(with_arrows) and not all(with_arrows)


@pytest.mark.parametrize("field", TWISTED_FIELDS, ids=["F3", "F101", "Q"])
def test_twisted_algebras_are_the_identity_exactly_when_inner(field):
    """_sigma A is invertible, with homology of dimension dim A in degree 0
    only, and it is the identity exactly when sigma is inner.  D is
    commutative, so x |-> 2x is outer.  On zigzag A_2, a |-> s a and
    b |-> t b is conjugation by a unit exactly when s t = 1, as a unit
    l_1 e_1 + l_2 e_2 + r scales a and b by inverse ratios: so a |-> 2a,
    b |-> b/2 is inner, a |-> 2a, b |-> b is outer, and a |-> 2a, b |-> 2b
    is outer but over F3, where 2 * 2 = 1."""
    d, z = dual_numbers(field), zigzag_a2(field)
    cases = [(d, [2], False), (z, [2, 2], field.elem(4) == 1), (z, [2, field.inv(field.elem(2))], True),
             (z, [2, 1], False)]
    for a, scales, inner in cases:
        k = Kernel(a, a, single_term(twisted_bimodule(a, scales)))
        assert homology_dims(k.complex) == {0: a.dim}
        assert spherical.is_equivalence_kernel(k)
        assert spherical.quasi_iso_to_identity(k) == inner == identity_by_search(k), scales


def _two_loops(field):
    """k[x]/x^2 x k[y]/y^2: two blocks, one loop at each vertex."""
    q = QuiverPresentation(vertices=("u", "w"), arrows=(Arrow("x", "u", "u"), Arrow("y", "w", "w")),
                           relations=(((1, ("x", "x")),), ((1, ("y", "y")),)), length_bound=2)
    return algebra_from_quiver(q, field, name="DD")


@pytest.mark.parametrize("field", TWISTED_FIELDS, ids=["F3", "F101", "Q"])
def test_identity_over_two_blocks(field):
    """Over an algebra with two blocks a unit is one in each block: the
    identity kernel is the identity, and a twist of either block is not."""
    a = _two_loops(field)
    assert spherical.quasi_iso_to_identity(identity_kernel(a))
    for scales in ([2, 1], [1, 2], [2, 2]):
        k = Kernel(a, a, single_term(twisted_bimodule(a, scales)))
        assert not spherical.quasi_iso_to_identity(k) and not identity_by_search(k)


@pytest.mark.parametrize("field", [Field.prime(2), *TWISTED_FIELDS], ids=["F2", "F3", "F101", "Q"])
def test_a_left_action_that_is_no_automorphism_is_not_the_identity(field):
    """D with x acting by 0 on the left is A_A as a right module, so its
    one-sided model is D in degree 0, but no unit u has 0 = u x."""
    d = dual_numbers(field)
    assert not is_identity(single_term(twisted_bimodule(d, [0])))


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
