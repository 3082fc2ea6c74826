"""Shared fixtures: the small algebras every suite exercises, the
equivalence test and the four conditions without minimal models, the
quotient model of a tensor product, and the elimination on Fraction
objects that the rational kernels are checked against."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from spherica.algebras import Algebra, Arrow, QuiverPresentation, algebra_from_quiver
from spherica.bimodules import Bimodule, left_dual
from spherica.complexes import homology_dims, is_quasi_iso
from spherica.kernels import Kernel, condition3_map, condition4_map, kernel_ops
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


def term_dims(x) -> dict[int, int]:
    """Degree -> dimension of each nonzero term of a complex."""
    return {n: x.dim(n) for n in x.degrees()}


def is_equivalence_unminimised(k: Kernel) -> bool:
    """The equivalence test on the kernel itself, not on its minimal model:
    the oracle for spherica.spherical.is_equivalence_kernel."""
    ops = kernel_ops(k)
    return is_quasi_iso(ops.unit_right()) and is_quasi_iso(ops.counit_right())


def conditions_unminimised(p: Kernel) -> tuple[tuple[bool, ...], dict[str, dict[int, int]]]:
    """The four flags and homology profiles on p itself, from its own twist,
    cotwist, adjoints and condition maps: the oracle for
    spherica.spherical.check_conditions, which decides on p's minimal model."""
    ops = kernel_ops(p)
    tw, ct = ops.twist().kernel, ops.cotwist().kernel
    flags = (is_equivalence_unminimised(tw), is_equivalence_unminimised(ct),
             is_quasi_iso(condition3_map(p)), is_quasi_iso(condition4_map(p)))
    profiles = {"twist": homology_dims(tw.complex), "cotwist": homology_dims(ct.complex),
                "right_adjoint": homology_dims(ops.right_adjoint().kernel.complex),
                "left_adjoint": homology_dims(ops.left_adjoint().kernel.complex)}
    return flags, profiles


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


class QuotientTensor:
    """m (x)_B n as m (x)_k n, built by kron, divided by the balancing
    relations x.b (x) y - x (x) b.y for every basis element b of B.

    The reference for spherica.bimodules.tensor_over_middle, which works
    through a projective splitting of m instead; this model needs no
    projectivity.  There are no vertex blocks, so the relations include
    the vertex idempotents.  coords(xs, ys) gives the pure tensors
    xs[:, j] (x) ys[:, j] in the basis of the free (non-pivot) coordinates.
    """

    def __init__(self, m: Bimodule, n: Bimodule):
        field, size = m.field, m.dim * n.dim
        im, in_ = Matrix.identity(field, m.dim), Matrix.identity(field, n.dim)
        rels = [m.right_action[b].kron(in_) - im.kron(n.left_action[b])
                for b in range(m.right_algebra.dim)]
        r, pivots = Matrix.stack_columns(field, rels, size).transpose().rref()
        self._pivots = list(pivots)
        self._free = [c for c in range(size) if c not in pivots]
        self._rel_free = r.submatrix(slice(0, len(pivots)), self._free).transpose()
        self.dim = len(self._free)

    def coords(self, xs: Matrix, ys: Matrix) -> Matrix:
        pure = Matrix.stack_columns(
            xs.field, [xs.column_vec(j).kron(ys.column_vec(j)) for j in range(xs.cols)],
            xs.rows * ys.rows)
        # eliminate the pivot coordinates with the relations, keep the free ones
        return pure.submatrix(self._free, slice(None)) - \
            self._rel_free * pure.submatrix(self._pivots, slice(None))


# Rational linear algebra on Fraction objects, entry by entry: the reference
# for the integer kernels of spherica.linalg over Q.

def fraction_product(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, np.dot(a.arr, b.arr) if a.cols else np.zeros((a.rows, b.cols)))


def fraction_combine_blocks(blocks: Matrix, coeffs: Matrix) -> Matrix:
    r = coeffs.rows
    stacked = blocks.arr.reshape(r, blocks.rows // r, blocks.cols)
    return Matrix(blocks.field, (stacked * coeffs.arr[:, None, :]).sum(axis=0))


def fraction_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Gauss-Jordan on Fractions, first nonzero column, then first nonzero row."""
    R = np.array(m.arr, copy=True)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        nz = [i for i in range(r, m.rows) if R[i, c] != 0]
        if not nz:
            continue
        if nz[0] != r:
            R[[r, nz[0]]] = R[[nz[0], r]]
        R[r] = R[r] * (Fraction(1) / R[r, c])
        for i in range(m.rows):
            if i != r and R[i, c] != 0:
                R[i] = R[i] - R[i, c] * R[r]
        pivots.append(c)
        r += 1
    return Matrix(m.field, R), tuple(pivots)


def fraction_nullspace(m: Matrix) -> Matrix:
    R, pivots = fraction_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = np.zeros((m.cols, len(free)), dtype=object)
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for i, pc in enumerate(pivots):
            out[pc, j] = -R.arr[i, fc]
    return Matrix(m.field, out)


def fraction_solve(m: Matrix, b: Matrix) -> Matrix | None:
    R, pivots = fraction_rref(m.hstack(b))
    if any(pc >= m.cols for pc in pivots):
        return None
    out = np.zeros((m.cols, b.cols), dtype=object)
    for i, pc in enumerate(pivots):
        out[pc, :] = R.arr[i, m.cols:]
    return Matrix(m.field, out)
