"""Shared fixtures: the small algebras every suite exercises."""

from __future__ import annotations

from spherica.algebras import Algebra, Arrow, QuiverPresentation, algebra_from_quiver
from spherica.bimodules import Bimodule, left_dual
from spherica.linalg import Field, Matrix

F101 = Field.prime(101)


def dual_numbers(field=F101) -> Algebra:
    q = QuiverPresentation(
        vertices=("v",),
        arrows=(Arrow("x", "v", "v"),),
        relations=(((1, ("x", "x")),),),
        length_bound=2,
    )
    return algebra_from_quiver(q, field, name="D")


def x_cubed(field=F101) -> Algebra:
    q = QuiverPresentation(
        vertices=("v",),
        arrows=(Arrow("x", "v", "v"),),
        relations=(((1, ("x", "x", "x")),),),
        length_bound=3,
    )
    return algebra_from_quiver(q, field, name="X3")


def zigzag_a2(field=F101) -> Algebra:
    q = QuiverPresentation(
        vertices=("1", "2"),
        arrows=(Arrow("a", "1", "2"), Arrow("b", "2", "1")),
        relations=(((1, ("a", "b", "a")),), ((1, ("b", "a", "b")),)),
        length_bound=3,
    )
    return algebra_from_quiver(q, field, name="Z")


def a2_path_algebra(field=F101) -> Algebra:
    q = QuiverPresentation(
        vertices=("1", "2"),
        arrows=(Arrow("a", "1", "2"),),
        relations=(),
        length_bound=2,
    )
    return algebra_from_quiver(q, field, name="A2")


def k_times_k(field=F101) -> Algebra:
    q = QuiverPresentation(vertices=("u", "w"), arrows=(), relations=(), length_bound=1)
    return algebra_from_quiver(q, field, name="KK")


# source and target algebras of the random kernels with a non-trivial source
RANDOM_SHAPES = {"D-X3": (dual_numbers, x_cubed), "D-D": (dual_numbers, dual_numbers),
                 "Z-Z": (zigzag_a2, zigzag_a2)}


def left_dual_basis_sum(p: Bimodule) -> Matrix:
    """Column j is sum_t h_t^*(x_j) . h_t for the j-th basis vector x_j of p,
    over the left dual basis; the identity exactly when it is a dual basis."""
    dd = left_dual(p)
    field, n = p.field, p.dim
    total = Matrix.zeros(field, n, n)
    for h, hstar in zip(dd.generators, dd.cogenerators):
        values = dd.evaluate(Matrix.stack_columns(field, [hstar] * n, hstar.rows),
                             Matrix.identity(field, n))
        total = total + p.left_act(values, Matrix.stack_columns(field, [h] * n, n))
    return total
