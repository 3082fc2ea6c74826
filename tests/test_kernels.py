"""Kernel calculus: adjoints, units/counits, twists, canonical condition maps."""

from __future__ import annotations

import random

import pytest

from spherica import bimodules
from spherica.bimodules import (
    Bimodule,
    TensorData,
    flip,
    hom_space,
    is_projective,
    left_dual,
    projective_bimodule,
    regular_bimodule,
)
from spherica.complexes import (
    cone,
    direct_sum_complexes,
    homology_dims,
    is_quasi_iso,
    scalar_algebra,
    shift,
    tensor_cx,
)
from spherica.kernels import (
    Kernel,
    KernelError,
    compose,
    compose_list,
    condition3_map,
    condition4_map,
    kernel_ops,
    splitting_maps,
    appendix_map,
)
from spherica.linalg import Field, Matrix
from spherica.session import _elaborate, builtin_example, builtin_names
from spherica.spherical import random_kernel

import helpers
from helpers import (
    RANDOM_SHAPES,
    adjoint_differentials_by_solve,
    assoc,
    basic_identity_maps,
    canonical_maps_oracle,
    chained_maps,
    composite,
    cone_differentials_by_products,
    counit_left,
    direct_sum_maps,
    direct_sum_maps_oracle,
    dual_cotwist,
    dual_numbers,
    dual_twist,
    hom_cx,
    identity_kernel,
    identity_map,
    interchange_right_shift,
    interchange_right_shift_oracle,
    is_acyclic,
    is_identity_map,
    is_identity_matrix,
    k_times_k,
    left_dual_basis_sum,
    lunit,
    partly_cancellable_kernel,
    restrict_to_right,
    runit,
    single_term,
    tensor,
    tensor_induced,
    term_dims,
    triangular_identity_composites,
    whisker,
    x_cubed,
    zigzag_a2,
)

F = Field.prime(101)
K = scalar_algebra(F)
D = dual_numbers()
Z = zigzag_a2()
X3 = x_cubed()


def kernel_over(b, vertex=0):
    return Kernel(K, b, single_term(projective_bimodule(K, 0, b, vertex)))


@pytest.fixture(scope="module")
def PD():
    return kernel_over(D)


@pytest.fixture(scope="module")
def PZ():
    return kernel_over(Z)


@pytest.fixture(scope="module")
def PX():
    return kernel_over(X3)


def test_identity_kernel_dims():
    assert identity_kernel(K).complex.dim(0) == 1
    assert identity_kernel(D).complex.dim(0) == 2
    assert identity_kernel(Z).complex.dim(0) == 6


def test_compose_identity_is_canonical(PD):
    c = compose(identity_kernel(K), PD)
    assert c.complex.dim(0) == PD.complex.dim(0)


def test_compose_dual_numbers(PD):
    r = kernel_ops(PD).right_adjoint().kernel
    rf = compose(PD, r)
    assert rf.complex.dim(0) == 2
    fr = compose(r, PD)
    assert fr.complex.dim(0) == 4


def test_compose_zigzag(PZ):
    r = kernel_ops(PZ).right_adjoint().kernel
    rf = compose(PZ, r)
    assert rf.complex.dim(0) == 2   # e_1 Z e_1
    with pytest.raises(KernelError):
        compose(PZ, PZ)


def test_right_adjoint_dims(PD, PZ):
    assert kernel_ops(identity_kernel(D)).right_adjoint().kernel.complex.dim(0) == 2
    assert kernel_ops(PD).right_adjoint().kernel.complex.dim(0) == 2
    assert kernel_ops(PZ).right_adjoint().kernel.complex.dim(0) == 3


def test_left_adjoint_dims(PD, PZ):
    assert kernel_ops(PD).left_adjoint().kernel.complex.dim(0) == 2
    assert kernel_ops(PZ).left_adjoint().kernel.complex.dim(0) == 3


def test_unit_counit_identity_kernel():
    for alg in (K, D, Z):
        i = identity_kernel(alg)
        assert is_quasi_iso(kernel_ops(i).unit_right())
        assert is_quasi_iso(kernel_ops(i).counit_right())
        assert is_quasi_iso(kernel_ops(i).unit_left())
        assert is_quasi_iso(counit_left(i))


def test_counit_right_dual_numbers_is_multiplication(PD):
    eps = kernel_ops(PD).counit_right()
    assert eps.comp(0).rows == 2
    assert eps.comp(0).cols == 4
    assert eps.comp(0).rank() == 2    # surjective


def test_unit_right_dual_numbers(PD):
    eta = kernel_ops(PD).unit_right()
    assert eta.comp(0).rows == 2      # RF is 2-dimensional
    assert eta.comp(0).cols == 1
    assert eta.comp(0).rank() == 1    # injective k -> k^2


def test_twist_profiles(PD, PX):
    assert is_acyclic(kernel_ops(identity_kernel(D)).twist().kernel.complex)
    assert homology_dims(kernel_ops(PD).twist().kernel.complex) == {-1: 2}
    assert homology_dims(kernel_ops(PX).twist().kernel.complex) == {-1: 6}


def test_cotwist_profiles(PD, PX):
    assert is_acyclic(kernel_ops(identity_kernel(D)).cotwist().kernel.complex)
    assert homology_dims(kernel_ops(PD).cotwist().kernel.complex) == {1: 1}
    assert homology_dims(kernel_ops(PX).cotwist().kernel.complex) == {1: 2}


def test_dual_twists_acyclic_for_identity():
    i = identity_kernel(Z)
    assert is_acyclic(dual_twist(i).kernel.complex)
    assert is_acyclic(dual_cotwist(i).kernel.complex)


def test_dual_twist_profiles_dual_numbers(PD):
    # hand check: eta_L: B -> FL (dim 4) is injective, so T' = cone[-1] has
    # H^1 of dimension 2; eps_L: LF (dim 2) -> k is onto with 1-dim kernel,
    # so C' has H^{-1} of dimension 1 (the inverses of T and C, shifted)
    tprime = dual_twist(PD).kernel
    cprime = dual_cotwist(PD).kernel
    assert homology_dims(tprime.complex) == {1: 2}
    assert homology_dims(cprime.complex) == {-1: 1}


def test_triangle_composes_to_zero(PD):
    # include then project vanishes on the nose for every cone; the twist is
    # its counit's cone, and the cotwist C is its unit's cone shifted by -1,
    # so the cone is C[1] on the nose
    tw = kernel_ops(PD).twist()
    assert tw.kernel.complex is tw.cone.cone
    assert composite(tw.cone.include_target, tw.cone.project_source).is_zero()
    ct = kernel_ops(PD).cotwist()
    c1 = shift(ct.kernel.complex, 1)
    assert c1.terms == ct.cone.cone.terms and c1.diffs == ct.cone.cone.diffs
    assert composite(ct.cone.include_target, ct.cone.project_source).is_zero()


def test_triangular_identities_strict(PD, PZ):
    for p in (identity_kernel(D), PD, PZ, kernel_over(k_times_k())):
        comps = triangular_identity_composites(p)
        for name, ch in comps.items():
            assert is_identity_map(ch), f"triangular identity {name} failed"


def test_associators_and_unitors_are_built_once(PZ):
    ops = kernel_ops(PZ)
    p, r = PZ.complex, ops.right_adjoint().kernel.complex
    assert assoc(ops, p, r, p) is assoc(ops, p, r, p)
    assert assoc(ops, r, p, r) is assoc(ops, r, p, r)
    assert assoc(ops, r, p, r) is not assoc(ops, p, r, p)
    assert lunit(ops, p) is lunit(ops, p)
    assert runit(ops, r) is runit(ops, r)
    assert lunit(ops, r) is not runit(ops, r)


def test_oracle_chains_meet_at_one_tensor_per_pair(PZ):
    """The chained oracles keep one tensor per pair of complex objects in
    the kernel's workspace; for P with R or L it is the engine's own RF,
    FR or FL, between which the engine's units and counits map."""
    ops = kernel_ops(PZ)
    p, r, l = PZ.complex, ops.right_adjoint().kernel.complex, ops.left_adjoint().kernel.complex
    assert tensor(ops, p, r) is ops.rf() and tensor(ops, r, p) is ops.fr()
    assert tensor(ops, l, p) is ops.fl() and tensor(ops, p, l) is tensor(ops, p, l)
    chained_maps(PZ)
    canonical_maps_oracle(PZ)
    triangular_identity_composites(PZ)
    kept_tensors = [t for key, t in ops._cache.items() if key[0] == "tensor"]
    assert len({(id(t.x), id(t.y)) for t in kept_tensors}) == len(kept_tensors) > 10
    assert whisker(ops, ops.unit_right(), p).target is tensor(ops, ops.rf().complex, p).complex


def test_basic_identities_no_hypothesis(PD, PZ, PX):
    # quasi-isomorphisms for every kernel, spherical or not
    for p in (identity_kernel(D), PD, PZ, PX):
        for name, ch in basic_identity_maps(p).items():
            assert is_quasi_iso(ch), f"basic identity {name} failed"


def test_condition_maps(PD, PZ, PX):
    assert not is_quasi_iso(condition4_map(identity_kernel(D)))
    assert not is_quasi_iso(condition3_map(identity_kernel(D)))
    assert is_quasi_iso(condition4_map(PD))
    assert is_quasi_iso(condition3_map(PD))
    assert is_quasi_iso(condition4_map(PZ))
    assert is_quasi_iso(condition3_map(PZ))
    assert not is_quasi_iso(condition4_map(PX))
    assert not is_quasi_iso(condition3_map(PX))


def test_splitting_maps_spherical(PD, PZ):
    for p, expected_total in ((PD, 4), (PZ, 6)):
        into_rfl, from_lfr, _ = splitting_maps(p)
        assert is_quasi_iso(into_rfl)
        assert is_quasi_iso(from_lfr)
        assert sum(homology_dims(into_rfl.target).values()) == expected_total


def test_appendix_map(PD, PZ, PX):
    assert is_quasi_iso(appendix_map(PD))
    assert is_quasi_iso(appendix_map(PZ))
    # x^3: the cotwist is not an equivalence; the canonical map need not be
    # a quasi-iso and indeed is not
    assert not is_quasi_iso(appendix_map(PX))


def test_adjunction_dimension_equality(PD, PZ):
    """dim Hom_D(X (x) p, Y) == dim Hom_D(X, Y (x) adjoint) on test objects."""
    from spherica.complexes import shift
    for p in (PD, PZ):
        A, B = p.source_algebra, p.target_algebra
        r = kernel_ops(p).right_adjoint().kernel
        xs = [single_term(restrict_to_right(regular_bimodule(A)))]
        ys = [single_term(restrict_to_right(regular_bimodule(B))),
              shift(single_term(restrict_to_right(regular_bimodule(B))), 1)]
        for x in xs:
            fx = tensor_cx(x, p.complex).complex
            for y in ys:
                ry = tensor_cx(y, r.complex).complex
                lhs = homology_dims(hom_cx(fx, y)).get(0, 0)
                rhs = homology_dims(hom_cx(x, ry)).get(0, 0)
                assert lhs == rhs


def test_compose_list_braid_dims(PZ):
    p2 = kernel_over(Z, 1)
    t1 = kernel_ops(PZ).twist().kernel
    t2 = kernel_ops(p2).twist().kernel
    t121 = compose_list([t1, t2, t1])
    t212 = compose_list([t2, t1, t2])
    assert {n: t121.complex.dim(n) for n in t121.complex.degrees()} == \
        {-3: 9, -2: 36, -1: 27, 0: 6}
    assert homology_dims(t121.complex) == homology_dims(t212.complex)


def test_dual_twists_are_the_adjoint_kernels(PD, PZ):
    """The triangle-defined mirror twists agree with the honest one-sided
    adjoint kernels of the twists, certified by explicit witnesses."""
    import random
    from spherica.complexes import find_quasi_iso
    for p in (PD, PZ):
        t = kernel_ops(p).twist().kernel
        tprime = dual_twist(p).kernel
        tadj = kernel_ops(t).left_adjoint().kernel
        w = find_quasi_iso(tprime.complex, tadj.complex, random.Random(0))
        assert w is not None
        c = kernel_ops(p).cotwist().kernel
        cprime = dual_cotwist(p).kernel
        cadj = kernel_ops(c).left_adjoint().kernel
        w2 = find_quasi_iso(cprime.complex, cadj.complex, random.Random(0))
        assert w2 is not None


@pytest.mark.parametrize("shape", sorted(RANDOM_SHAPES))
@pytest.mark.parametrize("field", [Field.prime(2), F], ids=["F2", "F101"])
def test_left_side_on_random_kernels_with_nontrivial_source(field, shape):
    src, tgt = RANDOM_SHAPES[shape]
    for seed in (0, 5, 7):
        k = random_kernel(src(field), tgt(field), random.Random(seed))
        for n in k.complex.degrees():
            assert is_identity_matrix(left_dual_basis_sum(k.complex.term(n)))
        for name, comp in triangular_identity_composites(k).items():
            assert is_identity_map(comp), f"{name} is not strict for seed {seed}"


@pytest.mark.parametrize("shape", sorted(RANDOM_SHAPES))
def test_left_duals_on_random_kernels_over_rationals(shape):
    field = Field.rationals()
    src, tgt = RANDOM_SHAPES[shape]
    for seed in (0, 7):
        k = random_kernel(src(field), tgt(field), random.Random(seed))
        for n in k.complex.degrees():
            term = k.complex.term(n)
            assert is_identity_matrix(left_dual_basis_sum(term))
            dual = left_dual(term).bimodule
            assert dual.left_algebra is term.right_algebra
            assert dual.right_algebra is term.left_algebra
            left_homs = hom_space(restrict_to_right(flip(term)),
                                  restrict_to_right(flip(regular_bimodule(term.left_algebra))))
            assert dual.dim == len(left_homs)


def _simple() -> Bimodule:
    """The simple (k, D)-bimodule: x acts by zero on the right."""
    return Bimodule(K, D, [Matrix.identity(F, 1)],
                    [Matrix.identity(F, 1), Matrix.zeros(F, 1, 1)], 1, label="S")


def test_kernel_rejects_a_term_that_is_not_right_projective():
    simple = _simple()
    simple.check()
    with pytest.raises(KernelError, match="kernel term at degree 0 is not right-projective"):
        Kernel(K, D, single_term(simple))


def test_a_missing_splitting_is_kept(monkeypatch):
    """A bimodule that is not right-projective has no splitting, and that
    None is kept like any other result: asking twice covers it once."""
    simple, covers, cover = _simple(), [], bimodules._cover
    monkeypatch.setattr(bimodules, "_cover", lambda m: covers.append(m) or cover(m))
    assert not is_projective(simple, "right")
    assert not is_projective(simple, "right")
    assert covers == [simple]


@pytest.mark.parametrize("name", ["dual_numbers", "zigzag_a2"])
def test_terms_that_only_feed_ranks_build_no_action_matrices(name):
    _, kernels = _elaborate(builtin_example(name), F)
    ops = kernel_ops(kernels["P"])
    is_quasi_iso(ops.unit_right())      # the cone of the unit only feeds ranks
    rf = ops.rf()
    assert rf.complex.terms
    for t in rf.complex.terms.values():
        assert not isinstance(t._left_action, list) and not isinstance(t._right_action, list)
    # a first read builds the lists, and later reads return the same ones
    t = rf.complex.term(0)
    assert t.left_action is t.left_action and t.right_action is t.right_action
    t.check()


def _structure_cases():
    for field, tag in ((F, "F101"), (Field.rationals(), "Q"), (Field.prime(2), "F2")):
        for name in builtin_names():
            yield pytest.param(field, ("builtin", name), id=f"{tag}:builtin:{name}")
        for shape in sorted(RANDOM_SHAPES):
            yield pytest.param(field, ("random", shape), id=f"{tag}:random:{shape}")


def _case_kernels(field, case) -> list[Kernel]:
    """The kernels of a builtin session, or two random kernels of a shape."""
    kind, name = case
    if kind == "builtin":
        return list(_elaborate(builtin_example(name), field)[1].values())
    src, tgt = RANDOM_SHAPES[name]
    return [random_kernel(src(field), tgt(field), random.Random(seed)) for seed in (0, 7)]


@pytest.mark.parametrize("field, case", _structure_cases())
def test_canonical_maps_equal_their_chains_through_the_left_shift_interchange(field, case):
    """The condition, appendix and basic identity maps, which read a shift
    of a tensor's left factor as the shifted tensor, equal component by
    component the same chains with every such shift relabelled by the
    interchange and each unit's triangle map re-typed onto shift(C, 1)."""
    for p in _case_kernels(field, case):
        got = {"condition3": condition3_map(p), "condition4": condition4_map(p),
               "appendix": appendix_map(p), **basic_identity_maps(p)}
        want = canonical_maps_oracle(p)
        assert got.keys() == want.keys()
        for name, f in want.items():
            g = got[name]
            assert term_dims(g.source) == term_dims(f.source), name
            assert term_dims(g.target) == term_dims(f.target), name
            assert g.components == f.components, name


def _assert_rebuilt_maps_equal_their_chains(p: Kernel) -> None:
    """The condition, splitting and appendix maps, written straight into
    their endpoint tensors, equal component by component the chains of
    whiskers, unitors, associators and interchanges, with the same
    complexes at both ends."""
    into_rfl, from_lfr, sum_cx = splitting_maps(p)
    got = {"condition3": condition3_map(p), "condition4": condition4_map(p),
           "into_rfl": into_rfl, "from_lfr": from_lfr, "appendix": appendix_map(p)}
    want = chained_maps(p)
    assert got.keys() == want.keys()
    assert into_rfl.source is sum_cx and from_lfr.target is sum_cx
    for name, f in want.items():
        g = got[name]
        for x, y in ((g.source, f.source), (g.target, f.target)):
            assert term_dims(x) == term_dims(y) and x.diffs == y.diffs, name
        assert g.components == f.components, name


@pytest.mark.parametrize("field, case", _structure_cases())
def test_rebuilt_maps_equal_their_chains(field, case):
    for p in _case_kernels(field, case):
        _assert_rebuilt_maps_equal_their_chains(p)


@pytest.mark.parametrize("field", [F, Field.prime(2)], ids=str)
def test_rebuilt_maps_equal_their_chains_on_the_random_stream(field):
    """On the kernels the criterion-5 stream decides: random kernels from
    the one-vertex algebra into D, KK, X3 and Z, each on its minimal model,
    and the model of a partly cancellable kernel, which differs from it."""
    k = scalar_algebra(field)
    models = [kernel_ops(random_kernel(k, b(field), random.Random(seed))).model()
              for b in (dual_numbers, k_times_k, x_cubed, zigzag_a2) for seed in range(4)]
    p, _ = partly_cancellable_kernel(k, zigzag_a2(field), random.Random(3))
    models.append(kernel_ops(p).model())
    assert models[-1] is not p
    for q in models:
        _assert_rebuilt_maps_equal_their_chains(q)


@pytest.mark.parametrize("field", [F, Field.rationals(), Field.prime(2)], ids=str)
@pytest.mark.parametrize("name", builtin_names())
def test_relabelled_maps_equal_their_entry_by_entry_forms(field, name):
    """On the tensors of each builtin kernel P with its adjoints, of LF with
    the cotwist, of P with the twist T and of T with R (odd degrees on both
    sides): a shift of the left factor is the shifted tensor on the nose,
    with equal terms and differentials, and the right-shift interchange
    equals the same map written entry by entry.  The inclusions and
    projections of R (+) L and of T (+) T[1] equal theirs written entry by
    entry."""
    for p in _elaborate(builtin_example(name), field)[1].values():
        ops = kernel_ops(p)
        pc = p.complex
        r, l = ops.right_adjoint().kernel.complex, ops.left_adjoint().kernel.complex
        tw = ops.twist().kernel.complex
        assert len(tw.terms) > 1
        for x, y in ((pc, r), (l, pc), (ops.lf().complex, ops.cotwist().kernel.complex),
                     (pc, tw), (tw, r)):
            for n in (1, 2, -1):
                t_plain = tensor_cx(x, y)
                left, plain = tensor_cx(shift(x, n), y).complex, shift(t_plain.complex, n)
                assert term_dims(left) == term_dims(plain) and left.diffs == plain.diffs
                t_shifted = tensor_cx(x, shift(y, n))
                want = interchange_right_shift_oracle(t_shifted, t_plain, n)
                assert interchange_right_shift(t_shifted, t_plain, n).components == \
                    want.components
        for xs in ([r, l], [tw, shift(tw, 1)]):
            total = direct_sum_complexes(xs)
            injs, projs = direct_sum_maps(xs, total)
            want_injs, want_projs = direct_sum_maps_oracle(xs, total)
            for got, want in zip(injs + projs, want_injs + want_projs):
                assert got.components == want.components


@pytest.mark.parametrize("field, case", _structure_cases())
def test_structured_maps_equal_their_product_forms(field, case, monkeypatch):
    """The cones of the units and counits, placed block by block, have the
    differentials of the sum of products with injections and projections;
    every tensor map given None for an identity factor, in the tensor
    differentials and in the whiskers of the triangular identities, equals
    the map built from that identity."""
    kernels = _case_kernels(field, case)
    calls = []

    def recording(owner, name):
        real = getattr(owner, name)

        def induced(t, f, g, target):
            out = real(t, f, g, target)
            if f is None or g is None:
                calls.append((t, f, g, target, out))
            return out
        monkeypatch.setattr(owner, name, induced)

    recording(helpers, "tensor_induced")
    recording(TensorData, "induced")
    for p in kernels:
        ops = kernel_ops(p)
        for eta in (ops.unit_right(), ops.counit_right(), ops.unit_left(), counit_left(p)):
            want = cone_differentials_by_products(eta)
            got = cone(eta).cone
            assert want and {n: got.diff_matrix(n) for n in want} == want
        triangular_identity_composites(p)
    monkeypatch.undo()
    kinds = set()
    for t, f, g, target, out in calls:
        if not isinstance(t, TensorData):
            want = tensor_induced(t, f or identity_map(t.x), g or identity_map(t.y), target)
            assert out.components == want.components
        else:
            ident = [Matrix.identity(field, m.dim) for m in (t.m, t.n)]
            assert out == t.induced(ident[0] if f is None else f,
                                    ident[1] if g is None else g, target)
        kinds.add((type(t), f is None, g is None))
    assert len(kinds) == 4


@pytest.mark.parametrize("field, case", _structure_cases())
def test_adjoint_differentials_equal_the_solve_in_the_dual_hom_space(field, case):
    """Both adjoints' differentials, read at the generators, equal the
    coordinates found by solving for f o d in the dual hom space, on the
    kernels, their twists and cotwists (terms in several degrees)."""
    kernels = _case_kernels(field, case)
    kernels += [kernel_ops(p).twist().kernel for p in kernels] + \
        [kernel_ops(p).cotwist().kernel for p in kernels]
    compared = 0
    for p in kernels:
        ops = kernel_ops(p)
        for side, adjoint in (("right", ops.right_adjoint()), ("left", ops.left_adjoint())):
            want = adjoint_differentials_by_solve(p, side)
            assert adjoint.kernel.complex.diffs == want
            compared += sum(not d.is_zero() for d in want.values())
    assert compared > 0
