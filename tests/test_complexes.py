"""Complexes: cones, homology, tensor totalization, hom complexes (the test
helper), canonical isos."""

from __future__ import annotations

import random

import pytest

from spherica.bimodules import (
    Bimodule,
    _pieces,
    direct_sum,
    is_projective,
    projective_bimodule,
    regular_bimodule,
)
from spherica.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    chain_map_space,
    cone,
    direct_sum_complexes,
    find_quasi_iso,
    first_witness,
    homology_dims,
    is_quasi_iso,
    minimal_model,
    scalar_algebra,
    shift,
    tensor_cx,
    unit_complex,
)
from spherica.kernels import kernel_ops
from spherica.linalg import Field, Matrix
from spherica.session import _elaborate, builtin_example, builtin_names

from helpers import (
    associator,
    center_basis,
    composite,
    counit_left,
    direct_sum_maps,
    direct_sum_maps_oracle,
    dual_numbers,
    hom_cx,
    homology,
    identity_map,
    interchange_right_shift,
    inverse_map,
    is_acyclic,
    is_identity_map,
    left_unitor,
    right_unitor,
    single_term,
    term_dims,
    zigzag_a2,
)

F = Field.prime(101)
K = scalar_algebra(F)
D = dual_numbers()
Z = zigzag_a2()


def dual_numbers_x_complex() -> Complex:
    """[D --x--> D] in degrees 0, 1 over (k, D)."""
    m = projective_bimodule(K, 0, D, 0)
    x_idx = D.radical_basis[0]
    return Complex(K, D, {0: m, 1: m}, {0: m.right_action[x_idx]})


def test_shift_composition():
    x = dual_numbers_x_complex()
    assert shift(x, 0).terms == x.terms
    y = shift(shift(x, 1), -1)
    assert y.degrees() == x.degrees()
    for n in x.degrees():
        assert y.dim(n) == x.dim(n)
    assert y.diff_matrix(0) == x.diff_matrix(0)


def test_shift_single_term():
    m = regular_bimodule(K)
    x = single_term(m, 0)
    assert shift(x, 1).degrees() == [-1]


def test_d_squared_enforced():
    m = regular_bimodule(K)
    one = Matrix.identity(F, 1)
    x = Complex(K, K, {0: m, 1: m, 2: m}, {0: one, 1: one})
    with pytest.raises(ComplexError, match=r"d\^2 != 0 at degree 0"):
        x.check()


def test_cone_of_identity_acyclic():
    x = dual_numbers_x_complex()
    c = cone(identity_map(x))
    for built in (c.cone, c.include_target, c.project_source):
        built.check()
    assert is_acyclic(c.cone)


def test_cone_of_zero_map_into():
    # cone(0 -> Y) = Y with include_target an isomorphism
    y = dual_numbers_x_complex()
    zero_cx = Complex(K, D, {}, {})
    f = ChainMap(zero_cx, y, {})
    c = cone(f)
    assert is_identity_map(composite(inverse_map(c.include_target), c.include_target))


def test_cone_socle_inclusion():
    # k -> D as right D-modules (socle inclusion): homology k in degree 0
    m = projective_bimodule(K, 0, D, 0)
    x_idx = D.radical_basis[0]
    soc = Bimodule(K, D, [Matrix.identity(F, 1)],
                   [Matrix.identity(F, 1), Matrix.zeros(F, 1, 1)], 1, label="soc")
    # the inclusion sends the generator to x = second basis vector of D
    incl = Matrix.from_rows(F, [[0], [1]])
    f = ChainMap(single_term(soc), single_term(m), {0: incl})
    c = cone(f)
    for built in (soc, f, c.cone, c.include_target, c.project_source):
        built.check()
    h = homology_dims(c.cone)
    assert h == {0: 1}


def test_euler_characteristic_additivity():
    x = dual_numbers_x_complex()
    y = single_term(projective_bimodule(K, 0, D, 0), 0)
    maps = chain_map_space(x, y)
    for f in maps[:3]:
        cn = cone(f).cone
        assert cn.euler_characteristic() == y.euler_characteristic() - x.euler_characteristic()


def test_homology_of_x_complex():
    # [D --x--> D]: rank of x-action is 1 so H^0 and H^1 are 1-dimensional
    x = dual_numbers_x_complex()
    h = homology_dims(x)
    assert h == {0: 1, 1: 1}
    full = homology(x)
    assert full[0][0] == 1 and full[1][0] == 1
    # euler characteristic equals alternating homology sum
    assert x.euler_characteristic() == sum((-1) ** n * d for n, d in h.items())


def test_homology_structure_acts():
    x = dual_numbers_x_complex()
    h = homology(x)
    hm = h[0][1]
    # x acts as zero on H^0 = soc(D)
    assert hm.right_action[D.radical_basis[0]].is_zero()


def test_tensor_cx_unit_law_dims():
    x = dual_numbers_x_complex()
    t = tensor_cx(unit_complex(K), x)
    assert [t.complex.dim(n) for n in (0, 1)] == [2, 2]


def test_tensor_two_term_complexes():
    # two 2-term complexes of 1-dim spaces over k, zero differentials:
    # degrees 0,1,2 with dims 1,2,1
    m = regular_bimodule(K)
    x = Complex(K, K, {0: m, 1: m}, {})
    t = tensor_cx(x, x)
    assert [t.complex.dim(n) for n in (0, 1, 2)] == [1, 2, 1]


def test_tensor_single_terms_match_bimodule_tensor():
    p = projective_bimodule(K, 0, Z, 0)       # e_1 Z as (k, Z)
    q = projective_bimodule(Z, 0, K, 0)       # Z e_1 as (Z, k)
    t = tensor_cx(single_term(p), single_term(q))
    assert t.complex.dim(0) == 2
    assert t.complex.degrees() == [0]


def test_tensor_koszul_d_squared():
    # tensor of two complexes with nonzero differentials must satisfy d^2 = 0
    x = dual_numbers_x_complex()
    dz = regular_bimodule(D)
    y = Complex(D, D, {0: dz, 1: dz},
                {0: dz.left_action[D.radical_basis[0]]})
    t = tensor_cx(x, y)   # (k,D) (x)_D (D,D)
    assert t.complex.degrees() == [0, 1, 2]
    assert 1 in t.complex.diffs and 0 in t.complex.diffs
    t.complex.check()


def test_quasi_iso_identity_and_acyclic():
    x = dual_numbers_x_complex()
    assert is_quasi_iso(identity_map(x))
    c = cone(identity_map(x)).cone
    zero_cx = Complex(K, D, {}, {})
    f = ChainMap(zero_cx, c, {})
    assert is_quasi_iso(f)  # both sides acyclic


def test_unit_map_not_quasi_iso():
    # k -> 2-dimensional module in degree 0 cannot be a quasi-iso
    kk = regular_bimodule(K)
    m = Bimodule(K, K, [Matrix.identity(F, 2)], [Matrix.identity(F, 2)], 2, label="k2")
    f = ChainMap(single_term(kk), single_term(m), {0: Matrix.from_rows(F, [[1], [0]])})
    assert not is_quasi_iso(f)


def test_hom_cx_point():
    x = single_term(regular_bimodule(K))
    h = hom_cx(x, x)
    assert homology_dims(h) == {0: 1}


def test_hom_cx_shifted_projective():
    # Hom(P, P[1]) for P projective in a single degree: H^1 = Hom(P,P), H^0 = 0
    p = single_term(projective_bimodule(K, 0, D, 0))
    h = hom_cx(p, shift(p, -1))   # maps P -> P[-1]... degree +1
    dims = homology_dims(h)
    assert dims == {1: 2}   # Hom_D(D, D) = D is 2-dimensional


def test_hom_cx_center():
    # Hom_{A-A}(A, A) = center; dual numbers give dim 2 in degree 0
    a = single_term(regular_bimodule(D))
    # both-sided homs are not directly a hom_cx side; cross-check via chain maps
    maps = chain_map_space(a, a)
    assert len(maps) == len(center_basis(D)) == 2


def test_hom_cx_requires_projective():
    soc = Bimodule(K, D, [Matrix.identity(F, 1)],
                   [Matrix.identity(F, 1), Matrix.zeros(F, 1, 1)], 1)
    with pytest.raises(ComplexError):
        hom_cx(single_term(soc), single_term(soc))


def test_direct_sum_complexes():
    x = dual_numbers_x_complex()
    s = direct_sum_complexes([x, x])
    injs, projs = direct_sum_maps([x, x], s)
    assert s.dim(0) == 4
    assert is_quasi_iso(composite(injs[0], projs[0], injs[0], projs[0]))
    comp = composite(injs[0], projs[0])
    assert is_identity_map(comp)
    assert composite(injs[1], projs[0]).is_zero()
    assert not is_quasi_iso(composite(projs[0], injs[0]))


def test_chain_map_space_and_find_quasi_iso():
    x = dual_numbers_x_complex()
    rng = random.Random(7)
    f = find_quasi_iso(x, x, rng)
    assert f is not None
    assert is_quasi_iso(f)
    # shifted copies are not quasi-isomorphic to the original
    assert find_quasi_iso(x, shift(x, 1), rng) is None


def test_left_unitor_roundtrip():
    x = dual_numbers_x_complex()
    t = tensor_cx(unit_complex(K), x)
    lam = left_unitor(t)
    lam_inv = inverse_map(lam)
    for f in (lam, lam_inv):
        f.check()
    assert is_identity_map(composite(lam_inv, lam))
    assert is_identity_map(composite(lam, lam_inv))


def test_right_unitor_roundtrip():
    x = dual_numbers_x_complex()
    t = tensor_cx(x, unit_complex(D))
    rho = right_unitor(t)
    rho_inv = inverse_map(rho)
    for f in (rho, rho_inv):
        f.check()
    assert is_identity_map(composite(rho_inv, rho))
    assert is_identity_map(composite(rho, rho_inv))


def test_associator_invertible():
    p = single_term(projective_bimodule(K, 0, Z, 0))     # (k,Z)
    q = single_term(projective_bimodule(Z, 0, K, 0))     # (Z,k)
    r = single_term(projective_bimodule(K, 0, Z, 1))     # (k,Z)
    txy = tensor_cx(p, q)
    txy_z = tensor_cx(txy.complex, r)
    tyz = tensor_cx(q, r)
    tx_yz = tensor_cx(p, tyz.complex)
    a = associator(txy, txy_z, tyz, tx_yz)
    a.check()
    assert is_identity_map(composite(inverse_map(a), a))


def test_associator_on_complexes_with_differentials():
    x = dual_numbers_x_complex()            # (k,D)
    dz = regular_bimodule(D)
    y = Complex(D, D, {0: dz}, {})          # (D,D)
    z = Complex(D, D, {-1: dz, 0: dz},
                {-1: dz.left_action[D.radical_basis[0]]})
    txy = tensor_cx(x, y)
    txy_z = tensor_cx(txy.complex, z)
    tyz = tensor_cx(y, z)
    tx_yz = tensor_cx(x, tyz.complex)
    a = associator(txy, txy_z, tyz, tx_yz)
    a_inv = inverse_map(a)
    for f in (a, a_inv):
        f.check()
    assert is_identity_map(composite(a_inv, a))
    assert is_identity_map(composite(a, a_inv))


def test_chain_map_inverse():
    x = dual_numbers_x_complex()
    # 1 + x in both degrees: an automorphism whose inverse 1 - x is not
    # its transpose
    m = x.term(0)
    one_plus_x = Matrix.identity(F, m.dim) + m.right_action[D.radical_basis[0]]
    f = ChainMap(x, x, {0: one_plus_x, 1: one_plus_x})
    f.check()
    g = inverse_map(f)
    g.check()
    assert g.comp(0) != one_plus_x.transpose()
    assert is_identity_map(composite(f, g)) and is_identity_map(composite(g, f))
    with pytest.raises(ComplexError, match="singular"):
        inverse_map(ChainMap(x, x, {}))
    # x -> x (+) x has different dimensions on the two sides in degree 0
    injs, _ = direct_sum_maps([x, x], direct_sum_complexes([x, x]))
    with pytest.raises(ComplexError, match="not square"):
        inverse_map(injs[0])


def test_left_shift_of_a_tensor_is_the_shifted_tensor():
    """(X[n]) (x) Y and (X (x) Y)[n] have the same terms and differentials,
    so no map relabels the left factor's shift."""
    x = dual_numbers_x_complex()
    dz = regular_bimodule(D)
    y = Complex(D, D, {0: dz, 1: dz},
                {0: dz.left_action[D.radical_basis[0]]})
    for n in (1, 2, -1):
        left, plain = tensor_cx(shift(x, n), y).complex, shift(tensor_cx(x, y).complex, n)
        assert term_dims(left) == term_dims(plain)
        assert left.diffs == plain.diffs and left.diffs


def test_interchange_right_shift_signs():
    x = dual_numbers_x_complex()
    dz = regular_bimodule(D)
    y = Complex(D, D, {0: dz, 1: dz},
                {0: dz.left_action[D.radical_basis[0]]})
    t_plain = tensor_cx(x, y)
    t_shifted = tensor_cx(x, shift(y, 1))
    f = interchange_right_shift(t_shifted, t_plain, 1)
    f.check()
    assert is_identity_map(composite(inverse_map(f), f))


def test_interchanges_reject_tensors_whose_slots_do_not_match():
    x = dual_numbers_x_complex()
    dz = regular_bimodule(D)
    y = Complex(D, D, {0: dz, 1: dz},
                {0: dz.left_action[D.radical_basis[0]]})
    m = x.term(0)
    # a slot of the shifted tensor with no slot to go to
    x_short = single_term(m)
    with pytest.raises(ComplexError, match="no slot"):
        interchange_right_shift(tensor_cx(x, shift(y, 1)), tensor_cx(x_short, y), 1)
    # a slot to go to of another size
    x_wide = Complex(K, D, {0: direct_sum([m, m]), 1: m}, {})
    with pytest.raises(ComplexError, match="do not match"):
        interchange_right_shift(tensor_cx(x, shift(y, 1)), tensor_cx(x_wide, y), 1)


def test_quasi_iso_closed_under_composition():
    x = dual_numbers_x_complex()
    rng = random.Random(11)
    f = find_quasi_iso(x, x, rng)
    g = find_quasi_iso(x, x, rng)
    assert f is not None and g is not None
    assert is_quasi_iso(composite(f, g))


def test_hom_cx_both_sides_is_center():
    # the two-sided hom complex of the regular bimodule computes the center
    a = single_term(regular_bimodule(D))
    h = hom_cx(a, a)
    assert homology_dims(h) == {0: 2}
    z = single_term(regular_bimodule(Z))
    assert homology_dims(hom_cx(z, z)) == {0: 3}


def test_find_quasi_iso_between_acyclic_complexes():
    x = dual_numbers_x_complex()
    acyclic = cone(identity_map(x)).cone
    zero_cx = Complex(K, D, {}, {})
    f = find_quasi_iso(zero_cx, acyclic, random.Random(0))
    assert f is not None and is_quasi_iso(f)
    g = find_quasi_iso(acyclic, zero_cx, random.Random(0))
    assert g is not None and is_quasi_iso(g)


# --- minimal models ---------------------------------------------------------


def _scalar_complex(diffs: dict[int, list[list[int]]]) -> Complex:
    """A complex of (k, k)-bimodules k^m from its differentials; every
    coordinate of k^m is a block of its own."""
    dims = {}
    for n, rows in diffs.items():
        dims[n + 1], dims[n] = len(rows), len(rows[0])
    terms = {n: Bimodule(K, K, [Matrix.identity(F, m)], [Matrix.identity(F, m)], m)
             for n, m in dims.items()}
    x = Complex(K, K, terms, {n: Matrix.from_rows(F, rows) for n, rows in diffs.items()})
    x.check()
    return x


def test_minimal_model_corrects_the_remaining_differential():
    # cancelling the 1 leaves 6 - 3 * 1^-1 * 2 = 0: k in degrees 0 and 1
    x = _scalar_complex({0: [[1, 2], [3, 6]]})
    m = minimal_model(x)
    m.check()
    assert term_dims(m) == {0: 1, 1: 1} and not m.diffs
    assert homology_dims(m) == homology_dims(x) == {0: 1, 1: 1}


def test_minimal_model_drops_cancelled_rows_and_columns():
    # e -> b cancels first, then a -> c: the complex is contractible
    x = _scalar_complex({-1: [[0], [1]], 0: [[1, 0]]})
    assert not minimal_model(x).terms
    # e -> b, then a -> c1, then c2 -> f through the d^1 that is left
    y = _scalar_complex({-1: [[0], [1]], 0: [[1, 0], [2, 0]], 1: [[2, -1]]})
    assert not minimal_model(y).terms
    # with f dropped, c2 survives in degree 1
    z = _scalar_complex({-1: [[0], [1]], 0: [[1, 0], [2, 0]]})
    m = minimal_model(z)
    assert term_dims(m) == {1: 1} and homology_dims(z) == {1: 1}


def test_minimal_model_of_a_cone_of_identity_is_zero():
    x = dual_numbers_x_complex()
    assert not minimal_model(cone(identity_map(x)).cone).terms


def test_minimal_model_keeps_a_complex_without_invertible_components():
    x = dual_numbers_x_complex()          # D --x--> D: x is not invertible
    m = minimal_model(x)
    assert all(m.terms[n] is x.terms[n] for n in x.degrees())
    assert m.diff_matrix(0) == x.diff_matrix(0)


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_cone_maps_are_built_on_first_read(field):
    """cone() builds the cone complex alone.  The triangle maps are built on
    first read and kept: the inclusion of Y and the projection onto X[1],
    equal, entry by entry, to the inclusion and projection of the summands
    Y^n and X^{n+1} of each cone term, on the units and counits of the
    builtin kernels and of those of their twists (which have two terms)
    whose right adjoint is right-projective."""
    kernels = [k for name in builtin_names()
               for p in _elaborate(builtin_example(name), field)[1].values()
               for k in (p, kernel_ops(p).twist().kernel)
               if all(is_projective(t, "right")
                      for t in kernel_ops(k).right_adjoint().kernel.complex.terms.values())]
    for k in kernels:
        ops = kernel_ops(k)
        for f in (ops.unit_right(), ops.counit_right(), ops.unit_left(), counit_left(k)):
            cd = cone(f)
            assert "include_target" not in vars(cd) and "project_source" not in vars(cd)
            injs, projs = direct_sum_maps_oracle([shift(f.source, 1), f.target], cd.cone)
            include, project = cd.include_target, cd.project_source
            assert include is cd.include_target and project is cd.project_source
            assert (include.source, include.target, project.source) == (f.target, cd.cone, cd.cone)
            assert include.components == injs[1].components
            assert project.components == projs[0].components
            assert project.target.terms == shift(f.source, 1).terms
    assert len(kernels) > 10


def test_first_witness_tries_a_one_element_basis_once():
    """Each basis element is tried, then their sum when there are several:
    a one-element basis is its own sum, so its element is tried once.
    With no random attempts nothing is drawn from the rng."""
    m = Matrix.identity(F, 2)
    for basis, want in (([m], [m]), ([m, m.scale(2)], [m, m.scale(2), m.scale(3)])):
        tried = []

        def accept(f):
            tried.append(f)
            return False

        rng = random.Random(0)
        state = rng.getstate()
        assert first_witness(basis, accept, F, rng, attempts=0) is None
        assert tried == want
        assert rng.getstate() == state


def test_cone_terms_sum_only_the_terms_that_exist():
    """A cone term is the direct sum of the terms X^{n+1} and Y^n that
    exist, and a term of direct_sum_complexes the sum of its summands'
    terms in that degree; a complex has no term in any other degree."""
    x = dual_numbers_x_complex()
    y = single_term(x.terms[0])
    cn = cone(ChainMap(x, y, {})).cone
    pieces = lambda cx: {n: [(p, list(idx)) for p, idx in _pieces(t)] for n, t in cx.terms.items()}
    assert pieces(cn) == {-1: [(x.terms[0], [0, 1])],
                          0: [(x.terms[1], [0, 1]), (y.terms[0], [2, 3])]}
    total = direct_sum_complexes([x, shift(y, -1)])
    assert pieces(total) == {0: [(x.terms[0], [0, 1])],
                             1: [(x.terms[1], [0, 1]), (y.terms[0], [2, 3])]}
    with pytest.raises(KeyError):
        total.term(2)
