"""Quiver algebra construction, opposites, and centers (the test helper)."""

from __future__ import annotations

import pytest

from spherica.algebras import (
    Algebra,
    AlgebraError,
    Arrow,
    QuiverPresentation,
    algebra_from_quiver,
    opposite,
    trivial_algebra,
)
from spherica.linalg import Field, Matrix

F = Field.prime(101)


from helpers import a2_path_algebra, center_basis, dual_numbers, x_cubed, zigzag_a2


def test_point_algebra():
    k = trivial_algebra(F)
    assert k.dim == 1
    assert k.vertex_idempotents == [0]
    assert k.radical_basis == []


def test_dual_numbers_basis():
    d = dual_numbers()
    assert d.dim == 2
    assert sorted(d.basis_labels) == ["e_v", "x"]
    # x * x = 0
    x = Matrix.basis_vector(F, 2, d.radical_basis[0])
    assert d.multiply_vec(x, x).is_zero()


def test_zigzag_basis():
    z = zigzag_a2()
    assert z.dim == 6
    assert set(z.basis_labels) == {"e_1", "e_2", "a", "b", "a*b", "b*a"}
    assert len(z.radical_basis) == 4


def test_zigzag_length3_products_vanish():
    z = zigzag_a2()
    lab = {l: i for i, l in enumerate(z.basis_labels)}
    a = Matrix.basis_vector(F, 6, lab["a"])
    ba = Matrix.basis_vector(F, 6, lab["b*a"])
    assert z.multiply_vec(a, ba).is_zero()  # a*b*a = 0
    ab = Matrix.basis_vector(F, 6, lab["a*b"])
    assert z.multiply_vec(ab, a) == a.scale(0)  # (a*b)*a = 0


def test_infinite_dimensional_rejected():
    q = QuiverPresentation(
        vertices=("v",),
        arrows=(Arrow("x", "v", "v"),),
        relations=(),
        length_bound=4,
    )
    with pytest.raises(AlgebraError, match="bound too small"):
        algebra_from_quiver(q, F)


def test_nonadmissible_relation_rejected():
    q = QuiverPresentation(
        vertices=("v",),
        arrows=(Arrow("x", "v", "v"),),
        relations=(((1, ("x",)),),),
        length_bound=2,
    )
    with pytest.raises(AlgebraError, match="admissible"):
        algebra_from_quiver(q, F)


def test_noncomposable_relation_rejected():
    q = QuiverPresentation(
        vertices=("1", "2"),
        arrows=(Arrow("a", "1", "2"),),
        relations=(((1, ("a", "a")),),),
        length_bound=3,
    )
    with pytest.raises(AlgebraError, match="composable"):
        algebra_from_quiver(q, F)


def test_associativity_exhaustive_small():
    for alg in (trivial_algebra(F), dual_numbers(), zigzag_a2(), a2_path_algebra()):
        f = alg.field
        for i in range(alg.dim):
            ei = Matrix.basis_vector(f, alg.dim, i)
            for j in range(alg.dim):
                ej = Matrix.basis_vector(f, alg.dim, j)
                ij = alg.multiply_vec(ei, ej)
                for k in range(alg.dim):
                    ek = Matrix.basis_vector(f, alg.dim, k)
                    left = alg.multiply_vec(ij, ek)
                    right = alg.multiply_vec(ei, alg.multiply_vec(ej, ek))
                    assert left == right


def test_opposite_trivial_and_commutative():
    k = trivial_algebra(F)
    assert opposite(k).mult == k.mult
    d = dual_numbers()
    assert opposite(d).mult == d.mult  # commutative algebra


def test_opposite_zigzag_reverses():
    z = zigzag_a2()
    zop = opposite(z)
    assert zop.dim == 6
    lab = {l: i for i, l in enumerate(z.basis_labels)}
    ia, ib, iab = lab["a"], lab["b"], lab["a*b"]
    # in Z: a*b = ab ; in Z^op the product of a and b is b*a composed the other way
    assert z.mult[ia][ib].get(iab) is not None
    assert zop.mult[ib][ia].get(iab) is not None


def test_center_of_point_and_dual_numbers():
    assert len(center_basis(trivial_algebra(F))) == 1
    assert len(center_basis(dual_numbers())) == 2  # whole algebra (commutative)


def test_center_of_zigzag():
    # Hand computation: z = u*(e1+e2) + s*ab + t*ba is the full center (dim 3);
    # the unit and ab+ba in particular are central.
    z = zigzag_a2()
    basis = center_basis(z)
    assert len(basis) == 3
    lab = {l: i for i, l in enumerate(z.basis_labels)}
    for c in basis:
        for i in range(z.dim):
            e = Matrix.basis_vector(F, z.dim, i)
            assert z.multiply_vec(c, e) == z.multiply_vec(e, c)
    # the unit is in the span: solve for coordinates
    span = basis[0]
    for c in basis[1:]:
        span = span.hstack(c)
    assert span.solve(z.unit) is not None
    ab_plus_ba = Matrix.basis_vector(F, 6, lab["a*b"]) + Matrix.basis_vector(F, 6, lab["b*a"])
    assert span.solve(ab_plus_ba) is not None


def test_center_elements_commute_pairwise():
    z = zigzag_a2()
    basis = center_basis(z)
    for c1 in basis:
        for c2 in basis:
            assert z.multiply_vec(c1, c2) == z.multiply_vec(c2, c1)


def test_rational_field_algebra():
    zq = zigzag_a2(Field.rationals())
    assert zq.dim == 6


def test_radical_is_nilpotent():
    # the span of the positive-length basis paths is a nilpotent ideal
    for alg in (dual_numbers(), x_cubed(), zigzag_a2(), a2_path_algebra()):
        layer = [Matrix.basis_vector(alg.field, alg.dim, i) for i in alg.radical_basis]
        power = 1
        while layer and power <= alg.dim + 1:
            nxt = []
            for x in layer:
                for r in alg.radical_basis:
                    y = alg.multiply_vec(x, Matrix.basis_vector(alg.field, alg.dim, r))
                    if not y.is_zero():
                        nxt.append(y)
            layer = nxt
            power += 1
        assert not layer, f"radical of {alg.name} not nilpotent within dim+1 steps"
