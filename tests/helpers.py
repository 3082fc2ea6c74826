"""Shared fixtures: the small algebras every suite exercises, partly
cancellable kernels, the equivalence test, the four conditions and the
adjoint check's two composites without minimal models, the restriction
to scalars, the center of an algebra, the two-sided hom complex, the
quotient model of a tensor product, single-term complexes, the zero
bimodule, the map phi of a splitting, the inclusions and projections of
a direct sum of complexes, the identity kernel, twisted bimodules
_sigma A as kernels, a standard summand in a basis that is no
permutation of its own, homology with its bimodule structure and the sampled
identity test that reads it, the sampled faithful command, identity
chain maps and the tests for identity matrices and maps, the chained
calculus (composites, inverses and shifts of chain maps, induced maps of
tensor complexes, whiskers, unitors, associators and the right-shift
interchange, in a kernel's workspace), the condition, splitting and
appendix maps chained through it, the left counit, the dual twists T'
and C', the four triangular identities and the four standard composites
such as TF[-1] -> FRF -> FC[1], cone differentials as sums of products,
the shift interchanges and the inclusions and projections of a direct
sum written entry by entry, the canonical condition and identity maps
chained through the left-shift interchange, hom spaces solved over every
pair of vertex blocks, adjoint differentials solved in the dual hom
space, the dense elimination over F_p and the elimination on Fraction
objects that the engine's kernels are checked against.  Acyclicity, the
cone test for quasi-isomorphisms and vertex-block homology read off the
double blocks at every vertex pair are the oracles of
complexes.is_quasi_iso and complexes.block_homology_dims."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from spherica.algebras import (
    Algebra,
    Arrow,
    QuiverPresentation,
    algebra_from_quiver,
    scalar_algebra,
)
from spherica.bimodules import (
    Bimodule,
    BimoduleError,
    direct_sum,
    hom_space,
    is_projective,
    left_dual,
    projective_bimodule,
    regular_bimodule,
    right_dual,
)
from spherica.complexes import (
    ChainMap,
    Complex,
    ComplexError,
    TensorComplex,
    cone,
    direct_sum_complexes,
    find_quasi_iso,
    first_witness,
    homology_dims,
    is_quasi_iso,
    shift,
    tensor_cx,
    unit_complex,
)
from spherica.kernels import (
    Kernel,
    KernelOps,
    Triangle,
    compose,
    condition3_map,
    condition4_map,
    kernel_ops,
)
from spherica.linalg import Field, Matrix, kept
from spherica.session import _elaborate, parse_session
from spherica.spherical import check_fully_faithful, random_kernel

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


def zigzag_a4(field=F101) -> Algebra:
    """The zigzag algebra of A_4, as in examples/zigzag_a4.sph."""
    a = [Arrow(f"a{i}", str(i), str(i + 1)) for i in (1, 2, 3)]
    b = [Arrow(f"b{i}", str(i + 1), str(i)) for i in (1, 2, 3)]
    zero = [(f"a{i}", f"a{i + 1}") for i in (1, 2)] + [(f"b{i + 1}", f"b{i}") for i in (1, 2)]
    zero += [(x, y, x) for i in (1, 2, 3) for x, y in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))]
    swap = [((1, (f"b{i}", f"a{i}")), (-1, (f"a{i + 1}", f"b{i + 1}"))) for i in (1, 2)]
    q = QuiverPresentation(
        vertices=("1", "2", "3", "4"),
        arrows=tuple(a + b),
        relations=tuple(((1, path),) for path in zero) + tuple(swap),
        length_bound=3,
    )
    return algebra_from_quiver(q, field, name="Z4")


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


def kronecker(field=F101) -> Algebra:
    """Two parallel arrows a, b: 1 -> 2."""
    q = QuiverPresentation(
        vertices=("1", "2"),
        arrows=(Arrow("a", "1", "2"), Arrow("b", "1", "2")),
        relations=(),
        length_bound=2,
    )
    return algebra_from_quiver(q, field, name="Kr")


def loop_with_exit(field=F101) -> Algebra:
    """A loop x at 1 with x*x = 0 and an arrow y: 1 -> 2 leaving it."""
    q = QuiverPresentation(
        vertices=("1", "2"),
        arrows=(Arrow("x", "1", "1"), Arrow("y", "1", "2")),
        relations=(((1, ("x", "x")),),),
        length_bound=3,
    )
    return algebra_from_quiver(q, field, name="L")


# source and target algebras of the random kernels with a non-trivial source
RANDOM_SHAPES = {"D-X3": (dual_numbers, x_cubed), "D-D": (dual_numbers, dual_numbers),
                 "Z-Z": (zigzag_a2, zigzag_a2)}


def partly_cancellable_kernel(a: Algebra, b: Algebra, rng: random.Random) -> tuple[Kernel, Kernel]:
    """A kernel that is neither minimal nor contractible, and the minimal
    kernel it reduces to: a random kernel that is its own minimal model,
    summed with a contractible two-term kernel P --c--> P on a random
    standard summand P, for a random scalar c != 0.  random_kernel alone
    never draws one: every non-minimal kernel it draws is contractible."""
    field = a.field
    minimal = random_kernel(a, b, rng)
    while kernel_ops(minimal).model() is not minimal:
        minimal = random_kernel(a, b, rng)
    p = projective_bimodule(a, rng.randrange(len(a.vertex_idempotents)),
                            b, rng.randrange(len(b.vertex_idempotents)))
    c = rng.randrange(1, field.p) if field.is_prime_field else rng.choice([1, -2, 3])
    deg = rng.choice([-2, -1, 0])
    contractible = Complex(a, b, {deg: direct_sum([p]), deg + 1: direct_sum([p])},
                           {deg: Matrix.identity(field, p.dim).scale(c)})
    total = direct_sum_complexes([contractible, minimal.complex])
    return Kernel(a, b, total), minimal


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


def adjoint_composites_unminimised(p: Kernel) -> tuple[Kernel, Kernel]:
    """compose(C_R, T) and compose(T_R, C) for the twist T and cotwist C of
    p's minimal model and the twist T_R and cotwist C_R of its right adjoint
    R, tensored from the triangles themselves: the oracle for
    spherica.spherical.check_adjoint_spherical, which tensors their
    minimal models."""
    ops = kernel_ops(kernel_ops(p).model())
    r_ops = kernel_ops(ops.right_adjoint().kernel)
    return (compose(r_ops.cotwist().kernel, ops.twist().kernel),
            compose(r_ops.twist().kernel, ops.cotwist().kernel))


def columns(m: Matrix) -> list[Matrix]:
    """The columns of m, one column matrix each: the generators or
    cogenerators of a DualData, or the generators of a Splitting."""
    return [m.column_vec(j) for j in range(m.cols)]


def splitting_phi(m: Bimodule, sp) -> Matrix:
    """phi of a splitting sp of m, from the free module onto m: slot t,
    g |-> p_t . g for the generator p_t, rebuilt from sp.generators and
    sp.vertex_pos as the engine builds it for its one solve."""
    alg = m.right_algebra
    ideals = [alg.right_ideal_basis(alg.vertex_idempotents[v]) for v in sp.vertex_pos]
    return Matrix.stack_columns(m.field, [
        m.right_act(Matrix.stack_columns(m.field, [g] * ideal.cols, m.dim), ideal)
        for g, ideal in zip(columns(sp.generators), ideals)], m.dim)


def hom_matrices(dd) -> list[Matrix]:
    """The hom matrices of a DualData, one per basis vector of the dual:
    the row blocks of dd.homs."""
    n = dd.homs.rows // max(dd.bimodule.dim, 1)
    return [dd.homs.submatrix(slice(i * n, (i + 1) * n), slice(None))
            for i in range(dd.bimodule.dim)]


def left_dual_basis_sum(p: Bimodule) -> Matrix:
    """Column j is sum_t h_t^*(x_j) . h_t for the j-th basis vector x_j of p,
    over the left dual basis; the identity exactly when it is a dual basis."""
    dd = left_dual(p)
    field, n = p.field, p.dim
    total = Matrix.zeros(field, n, n)
    for h, hstar in zip(columns(dd.gens), columns(dd.cogens)):
        values = dd.evaluate(Matrix.stack_columns(field, [hstar] * n, hstar.rows),
                             Matrix.identity(field, n))
        total = total + p.left_act(values, Matrix.stack_columns(field, [h] * n, n))
    return total


def restrict_to_right(m: Bimodule) -> Bimodule:
    """m as a (k, B)-bimodule: the same right action, with the ground field
    acting by scalars on the left.  Two-sided homs between restrictions are
    the right-module homs; restrict flip(m) for the left-module homs."""
    return Bimodule(scalar_algebra(m.field), m.right_algebra,
                    [Matrix.identity(m.field, m.dim)], lambda: m.right_action, m.dim,
                    label=m.label)


def center_basis(a: Algebra) -> list[Matrix]:
    """Basis of the center, found by solving the commutator system."""
    blocks = []
    for i in range(a.dim):
        blocks.append(a.left_mult_matrix(i) - a.right_mult_matrix(i))
    if not blocks:
        return []
    null = Matrix.stack_rows(a.field, blocks, a.dim).nullspace()
    return [null.column_vec(j) for j in range(null.cols)]


def hom_cx(x: Complex, y: Complex) -> Complex:
    """The two-sided hom complex, as vector spaces over the scalar algebra:
    Hom^n = prod_i Hom(X^i, Y^{i+n}) with d(f) = d_Y f - (-1)^n f d_X.

    Every term of x must be biprojective; H^0 is the space of chain maps
    modulo homotopy.  For (k, B)-bimodules it is the hom complex of right
    B-modules, and H^n = Hom_D(x, y[n]) in the derived category.
    """
    for n, t in x.terms.items():
        for s in ("left", "right"):
            if not is_projective(t, s):
                raise ComplexError(f"hom_cx source term at degree {n} is not "
                                   f"{s}-projective")
    field = x.field
    triv = scalar_algebra(field)
    bases: dict[int, dict[int, list[Matrix]]] = {}
    degrees = set()
    for i in x.degrees():
        for m in y.degrees():
            degrees.add(m - i)
    for n in sorted(degrees):
        slot_homs = {}
        for i in x.degrees():
            if y.dim(i + n) == 0:
                continue
            homs = hom_space(x.term(i), y.term(i + n))
            if homs:
                slot_homs[i] = homs
        if slot_homs:
            bases[n] = slot_homs

    def flatten(mat: Matrix) -> Matrix:
        return mat.reshape(mat.rows * mat.cols, 1)

    terms = {}
    offsets: dict[int, dict[int, int]] = {}
    for n, slot_homs in bases.items():
        total = sum(len(h) for h in slot_homs.values())
        offs = {}
        off = 0
        for i in sorted(slot_homs):
            offs[i] = off
            off += len(slot_homs[i])
        offsets[n] = offs
        ident = Matrix.identity(field, total)
        terms[n] = Bimodule(triv, triv, [ident], [ident], total, label=f"Hom^{n}")

    diffs = {}
    for n in bases:
        if (n + 1) not in bases:
            continue
        arr = np.zeros((terms[n + 1].dim, terms[n].dim), dtype=object)
        sgn = field.elem((-1) ** n)
        for i, homs in bases[n].items():
            for a, F in enumerate(homs):
                col = offsets[n][i] + a
                # d_y . F lands in slot i of degree n+1
                if i in bases.get(n + 1, {}) and y.diffs.get(i + n) is not None:
                    img = y.diff_matrix(i + n) * F
                    tgt = bases[n + 1][i]
                    V = Matrix.stack_columns(field, [flatten(t) for t in tgt],
                                             img.rows * img.cols)
                    coords = V.solve(flatten(img))
                    if coords is None:
                        raise ComplexError("hom differential image not in hom basis span")
                    for b, (c,) in enumerate(coords.entries()):
                        arr[offsets[n + 1][i] + b, col] += c
                # -(-1)^n F . d_x lands in slot i-1 of degree n+1
                if (i - 1) in bases.get(n + 1, {}) and x.diffs.get(i - 1) is not None:
                    img = (F * x.diff_matrix(i - 1)).scale(-1).scale(sgn)
                    tgt = bases[n + 1][i - 1]
                    V = Matrix.stack_columns(field, [flatten(t) for t in tgt],
                                             img.rows * img.cols)
                    coords = V.solve(flatten(img))
                    if coords is None:
                        raise ComplexError("hom differential image not in hom basis span")
                    for b, (c,) in enumerate(coords.entries()):
                        arr[offsets[n + 1][i - 1] + b, col] += c
        diffs[n] = Matrix(field, arr)
    return Complex(triv, triv, terms, diffs)


def hom_space_by_block_pairs(m: Bimodule, n: Bimodule) -> list[Matrix]:
    """The oracle for spherica.bimodules.hom_space: the same unknowns (one
    matrix F_bl per vertex block, in block order), constrained by every
    arrow generator on every pair of a source block and a target block,
    each component read through the idempotent projector of its block
    and kept when it is nonzero."""
    if m.left_algebra.mult != n.left_algebra.mult:
        raise BimoduleError("left algebras differ")
    if m.right_algebra.mult != n.right_algebra.mult:
        raise BimoduleError("right algebras differ")
    field = m.field
    if m.dim == 0 or n.dim == 0:
        return []
    left_idems = m.left_algebra.vertex_idempotents
    right_idems = m.right_algebra.vertex_idempotents
    blocks = [(v, w) for v in range(len(left_idems)) for w in range(len(right_idems))]
    constraints = [(m.left_action[g], n.left_action[g]) for g in m.left_algebra.arrow_indices] + \
                  [(m.right_action[g], n.right_action[g]) for g in m.right_algebra.arrow_indices]

    def block_data(module: Bimodule, bl):
        projector = module.left_action[left_idems[bl[0]]] * module.right_action[right_idems[bl[1]]]
        return module.double_block(*bl), module.double_block_proj(*bl), projector

    src_basis, src_proj, src_coords, tgt_basis, tgt_coords = {}, {}, {}, {}, {}
    for bl in blocks:
        src_basis[bl], src_proj[bl], projector = block_data(m, bl)
        src_coords[bl] = src_proj[bl] * projector
        tgt_basis[bl], proj, projector = block_data(n, bl)
        tgt_coords[bl] = proj * projector
    sizes = {bl: (tgt_basis[bl].cols, src_basis[bl].cols) for bl in blocks}
    offsets, total = {}, 0
    for bl in blocks:
        offsets[bl] = total
        total += sizes[bl][0] * sizes[bl][1]
    if total == 0:
        return []

    rows: list[Matrix] = []
    for Lm, Ln in constraints:
        for src_bl in blocks:
            nB_s, mB_s = sizes[src_bl]
            if mB_s == 0:
                continue
            moved_m = Lm * src_basis[src_bl]
            moved_n = Ln * tgt_basis[src_bl] if nB_s else None
            for tgt_bl in blocks:
                nB_t, mB_t = sizes[tgt_bl]
                if nB_t == 0:
                    continue
                comp_m = src_coords[tgt_bl] * moved_m if mB_t else None
                comp_n = tgt_coords[tgt_bl] * moved_n if nB_s else None
                has_m = comp_m is not None and not comp_m.is_zero()
                has_n = comp_n is not None and not comp_n.is_zero()
                if not has_m and not has_n:
                    continue
                terms = {}
                if has_m:
                    terms[tgt_bl] = Matrix.identity(field, nB_t).kron(comp_m.transpose())
                if has_n:
                    neg = comp_n.scale(-1).kron(Matrix.identity(field, mB_s))
                    terms[src_bl] = terms[src_bl] + neg if src_bl in terms else neg
                rows.append(Matrix.from_blocks(field, nB_t * mB_s, total,
                                               [(0, offsets[bl], t) for bl, t in terms.items()]))
    null = Matrix.stack_rows(field, rows, total).nullspace() if rows \
        else Matrix.identity(field, total)
    bases = Matrix.stack_columns(field, [tgt_basis[bl] for bl in blocks], n.dim)
    projs = Matrix.stack_rows(field, [src_proj[bl] for bl in blocks], m.dim)
    return [bases * Matrix.block_diag(field, [
        null.submatrix(slice(offsets[bl], offsets[bl] + nB * mB), slice(j, j + 1)).reshape(nB, mB)
        for bl, (nB, mB) in sizes.items()]) * projs for j in range(null.cols)]


def adjoint_differentials_by_solve(p: Kernel, side: str) -> dict[int, Matrix]:
    """The oracle for the differentials of the adjoint kernels: the dual of
    d sends f to f o d, whose coordinates in the dual basis of the target
    term are found by solving against that basis's hom matrices, flattened;
    the sign is (-1)^{n+1} on the right side and (-1)^n on the left."""
    field, pc = p.complex.field, p.complex
    duals = {i: right_dual(pc.term(i)) if side == "right" else left_dual(pc.term(i))
             for i in pc.degrees()}

    def flatten(mat: Matrix) -> Matrix:
        return mat.reshape(mat.rows * mat.cols, 1)

    diffs = {}
    for n in sorted(-i for i, dd in duals.items() if dd.bimodule.dim):
        d = pc.diffs.get(-(n + 1))
        if d is None or -(n + 1) not in duals or not duals[-(n + 1)].bimodule.dim:
            continue
        src, tgt = duals[-n], duals[-(n + 1)]
        V = Matrix.stack_columns(field, [flatten(h) for h in hom_matrices(tgt)],
                                 hom_matrices(tgt)[0].rows * hom_matrices(tgt)[0].cols)
        coords = V.solve(Matrix.stack_columns(field, [flatten(h * d) for h in hom_matrices(src)],
                                              V.rows))
        diffs[n] = coords.scale((-1) ** (n + 1) if side == "right" else (-1) ** n)
    return diffs


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


def zero_bimodule(a: Algebra, b: Algebra) -> Bimodule:
    """The zero (a, b)-bimodule."""
    return Bimodule(a, b, [Matrix.zeros(a.field, 0, 0)] * a.dim,
                    [Matrix.zeros(a.field, 0, 0)] * b.dim, 0, label="0")


def single_term(m: Bimodule, degree: int = 0) -> Complex:
    """m as a complex concentrated in one degree."""
    return Complex(m.left_algebra, m.right_algebra, {degree: m}, {})


def identity_kernel(a: Algebra) -> Kernel:
    """The diagonal kernel: a as an (a,a)-bimodule in degree 0."""
    return Kernel(a, a, unit_complex(a))


def twisted_bimodule(a: Algebra, scales: list) -> Bimodule:
    """_sigma A: A with its own right action and a acting on the left by
    sigma(a), for the endomorphism sigma of A that multiplies arrow t by
    scales[t], so a basis path by the product of its arrows' scales.  The
    relations of A must be monomial, which sigma then preserves."""
    left = []
    for k, path in enumerate(a.basis_paths):
        scale = a.field.elem(1)
        for t in path:
            scale = scale * a.field.elem(scales[t])
        left.append(a.left_mult_matrix(k).scale(scale))
    return Bimodule(a, a, left, [a.right_mult_matrix(k) for k in range(a.dim)], a.dim, label="sigma A")


def tilted_summand(a: Algebra, v: int, b: Algebra, w: int) -> Bimodule:
    """The standard summand P(v,w) in the basis changed by g = I + E_ij,
    actions g^-1 L g, for the first i and j of one double block e_u P e_x
    with i outside and j inside the span of the right radical's action.
    The vertex idempotents still act by 0/1 diagonal matrices, but that
    span holds e_j - e_i and neither coordinate vector: a leaf that is no
    permutation of a standard summand, whose reorderings split afresh."""
    p, field = projective_bimodule(a, v, b, w), a.field
    rad = Matrix.stack_columns(field, [p.right_action[r] for r in b.radical_basis], p.dim)
    inside = rad.nonzero_mask().any(axis=1)
    where = lambda side, idems: np.argmax(
        np.array([np.diag(side[e].nonzero_mask()) for e in idems]), axis=0)
    block = list(zip(where(p.left_action, a.vertex_idempotents),
                     where(p.right_action, b.vertex_idempotents)))
    i, j = next((i, j) for i in range(p.dim) for j in range(p.dim)
                if not inside[i] and inside[j] and block[i] == block[j])
    one, e_ij = np.eye(p.dim, dtype=np.int64), np.zeros((p.dim, p.dim), dtype=np.int64)
    e_ij[i, j] = 1
    g, g_inv = Matrix(field, one + e_ij), Matrix(field, one - e_ij)
    tilt = lambda mats: [g_inv * m * g for m in mats]
    return Bimodule(a, b, tilt(p.left_action), tilt(p.right_action), p.dim, label=f"{p.label}~")


def braid_models(field: Field, text: str, words: list[str]) -> list[Kernel]:
    """The minimal models of the composites of the twists of a session's
    kernels P1, P2, ... along each word, applied left to right as the
    session's compose commands do: "121" is T1, then T2, then T1."""
    kernels = _elaborate(parse_session(text), field)[1]
    twists = {name[1:]: kernel_ops(k).twist().kernel for name, k in kernels.items() if name[0] == "P"}
    out = []
    for word in words:
        k = twists[word[0]]
        for c in word[1:]:
            k = compose(k, twists[c])
        out.append(kernel_ops(k).model())
    return out


def homology(x: Complex) -> dict[int, tuple[int, Bimodule]]:
    """Cohomology with its induced bimodule structure in every degree."""
    out = {}
    field = x.field
    for n in x.degrees():
        d_n = x.diff_matrix(n)
        d_prev = x.diff_matrix(n - 1)
        ker = d_n.nullspace()
        img = d_prev.image_basis()
        stacked = img.hstack(ker) if ker.cols else img
        _, pivots = stacked.rref()
        reps_cols = [p - img.cols for p in pivots if p >= img.cols]
        if not reps_cols:
            continue
        reps = Matrix.stack_columns(field, [ker.column_vec(c) for c in reps_cols], x.dim(n))
        basis = img.hstack(reps)
        term = x.term(n)
        hdim = reps.cols

        def induced(action_mats):
            mats = []
            for act in action_mats:
                coords = basis.solve(act * reps)
                if coords is None:
                    raise ComplexError("homology action does not preserve cycles")
                mats.append(coords.submatrix(slice(img.cols, img.cols + hdim),
                                             slice(0, hdim)))
            return mats

        h = Bimodule(x.left_algebra, x.right_algebra, induced(term.left_action),
                     induced(term.right_action), hdim, label=f"H{n}")
        out[n] = (hdim, h)
    return out


def is_acyclic(x: Complex) -> bool:
    return not homology_dims(x)


def is_quasi_iso_by_cone(f: ChainMap) -> bool:
    """The cone test: f is a quasi-isomorphism exactly when its cone is
    acyclic.  The oracle for spherica.complexes.is_quasi_iso, which decides
    on homology with no cone built."""
    return is_acyclic(cone(f).cone)


def block_homology_dims_by_blocks(x: Complex) -> dict[int, np.ndarray]:
    """dim e_u H^n e_w from the differential read between the terms' double
    blocks, at every vertex pair, one vertex each side included.  The oracle
    for spherica.complexes.block_homology_dims, which reads homology_dims
    when each side has one vertex."""
    shape = (len(x.left_algebra.vertex_idempotents), len(x.right_algebra.vertex_idempotents))
    pairs = list(np.ndindex(shape))
    ranks = {n: np.reshape([(x.term(n + 1).double_block_proj(u, w) * d * x.term(n).double_block(u, w)).rank()
                            for u, w in pairs], shape)
             for n, d in x.diffs.items()}
    none = np.zeros(shape, dtype=int)
    out = {}
    for n in x.degrees():
        h = np.reshape([x.term(n).double_block(u, w).cols for u, w in pairs], shape) \
            - ranks.get(n, none) - ranks.get(n - 1, none)
        if h.any():
            out[n] = h
    return out


def identity_by_search(k: Kernel) -> bool:
    """The sampled identity test: a chain witness from the minimal model of
    the endokernel k to the diagonal kernel, then the truncation criterion
    (homology only in degree 0, isomorphic to A by a sampled invertible
    bimodule map A -> H^0).  The oracle for
    spherica.spherical.quasi_iso_to_identity, which decides exactly."""
    a, rng = k.source_algebra, random.Random(0)
    x = kernel_ops(k).model().complex
    if find_quasi_iso(x, unit_complex(a), rng) is not None:
        return True
    h = homology(x)
    if set(h) != {0} or h[0][0] != a.dim:
        return False
    candidates = hom_space(regular_bimodule(a), h[0][1])
    return bool(candidates) and first_witness(candidates, Matrix.is_invertible, a.field, rng, 60) is not None


def faithful_by_search(p: Kernel, rng: random.Random) -> tuple[str, dict]:
    """The sampled faithful command, as (status, data): a witness id -> RF
    drawn from the chain maps out of the diagonal into RF of p's minimal
    model, then check_fully_faithful's monad argument on it.  The oracle
    for the faithful command, which reads the unit id -> RF itself."""
    m = kernel_ops(p).model()
    witness = find_quasi_iso(unit_complex(m.source_algebra), kernel_ops(m).rf().complex, rng)
    if witness is None:
        return "ok", {"witness_found": False, "verdict": "not_applicable",
                      "detail": "no quasi-iso witness id -> RF exists"}
    v = check_fully_faithful(m, witness)
    return ("assert-failed" if v.status == "fail" else "ok"), {"witness_found": True, "verdict": v.status}


def identity_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, {n: Matrix.identity(x.field, t.dim)
                           for n, t in x.terms.items()})


def is_identity_matrix(m: Matrix) -> bool:
    return m.rows == m.cols and m == Matrix.identity(m.field, m.rows)


def is_identity_map(f: ChainMap) -> bool:
    """Whether f has the same degrees and dimensions on both sides and the
    identity matrix in every degree."""
    return set(f.source.terms) == set(f.target.terms) and all(
        f.source.dim(n) == f.target.dim(n) and is_identity_matrix(f.comp(n))
        for n in f.source.terms)


# ---------------------------------------------------------------------------
# the chained calculus: composites, inverses, whiskers, unitors, associators
# and the right-shift interchange, each built in one direction with the
# maps the other way their inverse_map
# ---------------------------------------------------------------------------


def composite(*maps: ChainMap) -> ChainMap:
    """The maps applied in the order given: composite(f, g) is g o f."""
    out = maps[0]
    for g in maps[1:]:
        out = ChainMap(out.source, g.target, {n: g.comp(n) * out.comp(n)
                                              for n in set(out.components) | set(g.components)})
    return out


def inverse_map(f: ChainMap) -> ChainMap:
    """The inverse target -> source, degree by degree; ComplexError when
    a degree has different dimensions on the two sides or is singular."""
    comps = {}
    for n in set(f.source.terms) | set(f.target.terms):
        if f.source.dim(n) != f.target.dim(n):
            raise ComplexError(f"component {n} is not square")
        try:
            comps[n] = f.comp(n).inverse()
        except ValueError:
            raise ComplexError(f"component {n} is singular") from None
    return ChainMap(f.target, f.source, comps)


def shift_map(f: ChainMap, n: int) -> ChainMap:
    return ChainMap(shift(f.source, n), shift(f.target, n),
                    {i - n: m for i, m in f.components.items()})


def tensor_induced(t: TensorComplex, f: ChainMap | None, g: ChainMap | None,
                   target: TensorComplex) -> ChainMap:
    """f (x) g for degree-zero chain maps (no Koszul signs needed); None
    stands for the identity of the factor that t and target share."""
    comps = {}
    for n, slots in t.layout.items():
        tgt = target.layout.get(n, {})
        blocks = []
        for (i, j), (td, off) in slots.items():
            if (i, j) not in tgt:
                continue
            td2, off2 = tgt[(i, j)]
            blocks.append((off2, off, td.induced(None if f is None else f.comp(i),
                                                 None if g is None else g.comp(j), td2)))
        if blocks:
            comps[n] = Matrix.from_blocks(t.complex.field, target.complex.dim(n),
                                          t.complex.dim(n), blocks)
    return ChainMap(t.complex, target.complex, comps)


def left_unitor(t: TensorComplex) -> ChainMap:
    """unit_complex(A) (x) X -> X, a (x) m |-> a.m."""
    x = t.y
    comps = {}
    for n, slots in t.layout.items():
        cols = [x.term(j).left_act(*td.monomial_matrices()) for (i, j), (td, _) in slots.items()]
        comps[n] = Matrix.stack_columns(t.complex.field, cols, x.dim(n))
    return ChainMap(t.complex, x, comps)


def right_unitor(t: TensorComplex) -> ChainMap:
    """X (x) unit_complex(B) -> X, m (x) b |-> m.b."""
    x = t.x
    comps = {}
    for n, slots in t.layout.items():
        cols = [x.term(i).right_act(*td.monomial_matrices()) for (i, j), (td, _) in slots.items()]
        comps[n] = Matrix.stack_columns(t.complex.field, cols, x.dim(n))
    return ChainMap(t.complex, x, comps)


def associator(txy: TensorComplex, txy_z: TensorComplex,
               tyz: TensorComplex, tx_yz: TensorComplex) -> ChainMap:
    """((X (x) Y) (x) Z  ->  X (x) (Y (x) Z), no signs.

    txy = X(x)Y, txy_z = (X(x)Y)(x)Z, tyz = Y(x)Z, tx_yz = X(x)(Y(x)Z).
    """
    field = txy.complex.field
    comps = {}
    for n, slots in txy_z.layout.items():
        # slot (i, j) of the X (x) Y factor of outer slot (m, k) lands in
        # slot (i, j + k), a different one for each i
        blocks = []
        for (m, k), (td_outer, off_outer) in slots.items():
            # outer monomial c is q_c (x) z_c, with q_c = sum_e S[e, c] x_e (x) y_e
            qs, zs = td_outer.monomial_matrices()
            for (i, j), (td_xy, off_xy) in txy.layout[m].items():
                seg = qs.submatrix(slice(off_xy, off_xy + td_xy.bimodule.dim), slice(None))
                # spread sends column r to S[e_r, c_r] times column c_r
                e_idx, c_idx, spread = seg.nonzero_entries()
                if not len(e_idx):
                    continue
                xs, ys = td_xy.monomial_matrices()
                td_yz, off_yz = tyz.layout[j + k][(j, k)]
                inner = td_yz.coords(ys.submatrix(slice(None), e_idx),
                                     zs.submatrix(slice(None), c_idx))
                td_t, off_t = tx_yz.layout[n][(i, j + k)]
                coords = td_t.coords(xs.submatrix(slice(None), e_idx),
                                     inner.pad_rows(off_yz, tyz.complex.dim(j + k)))
                blocks.append((off_t, off_outer, coords * spread))
        comps[n] = Matrix.from_blocks(field, tx_yz.complex.dim(n), txy_z.complex.dim(n), blocks)
    return ChainMap(txy_z.complex, tx_yz.complex, comps)


def interchange_right_shift(t_shifted: TensorComplex, t_plain: TensorComplex,
                            n: int) -> ChainMap:
    """X (x) (Y[n])  ->  (X (x) Y)[n]: slot (i, j) of degree m goes by
    (-1)^{n.i} times the identity to slot (i, j + n) of degree m + n;
    ComplexError when that slot is missing or of another size."""
    field = t_shifted.complex.field
    comps = {}
    for m, slots in t_shifted.layout.items():
        target = t_plain.layout.get(m + n, {})
        blocks = []
        for (i, j), (td, off) in slots.items():
            if (i, j + n) not in target:
                raise ComplexError(f"no slot {(i, j + n)} in degree {m + n}")
            td2, off2 = target[(i, j + n)]
            if td.bimodule.dim != td2.bimodule.dim:
                raise ComplexError("interchange slots do not match")
            ident = Matrix.identity(field, td.bimodule.dim)
            blocks.append((off2, off, ident.scale(-1) if n * i % 2 else ident))
        comps[m] = Matrix.from_blocks(field, t_plain.complex.dim(m + n),
                                      t_shifted.complex.dim(m), blocks)
    return ChainMap(t_shifted.complex, shift(t_plain.complex, n), comps)


def tensor(ops: KernelOps, x: Complex, y: Complex) -> TensorComplex:
    """x (x) y, built once per pair of complex objects in the kernel's
    workspace (the tensor holds both, so their ids stay theirs while it is
    kept), so that the chains below meet at one object per pair.  For the
    kernel's complex P with its adjoints R or L it is the engine's RF, FR
    or FL, between which the engine's units and counits map."""
    def build():
        pc = ops.p.complex
        if x is pc or y is pc:
            r, l = ops.right_adjoint().kernel.complex, ops.left_adjoint().kernel.complex
            for a, b, engine in ((pc, r, ops.rf), (r, pc, ops.fr), (l, pc, ops.fl)):
                if x is a and y is b:
                    return engine()
        return tensor_cx(x, y)
    return kept(ops._cache, ("tensor", id(x), id(y)), build)


def whisker(ops: KernelOps, f: ChainMap | Complex, g: ChainMap | Complex) -> ChainMap:
    """f (x) g over the tensors of the kernel's workspace, where a complex
    stands for its identity map (never built)."""
    sources = [h if isinstance(h, Complex) else h.source for h in (f, g)]
    targets = [h if isinstance(h, Complex) else h.target for h in (f, g)]
    maps = [None if isinstance(h, Complex) else h for h in (f, g)]
    return tensor_induced(tensor(ops, *sources), *maps, tensor(ops, *targets))


def assoc(ops: KernelOps, x: Complex, y: Complex, z: Complex) -> ChainMap:
    """(x (x) y) (x) z -> x (x) (y (x) z), built once per triple of complex
    objects in the kernel's workspace (the cached tensors it is built from
    hold all three)."""
    def build():
        xy, yz = tensor(ops, x, y), tensor(ops, y, z)
        return associator(xy, tensor(ops, xy.complex, z), yz, tensor(ops, x, yz.complex))
    return kept(ops._cache, ("assoc", id(x), id(y), id(z)), build)


def lunit(ops: KernelOps, x: Complex) -> ChainMap:
    """id (x) x -> x, built once per complex in the kernel's workspace."""
    return kept(ops._cache, ("lunit", id(x)), lambda: left_unitor(
        tensor(ops, unit_complex(x.left_algebra), x)))


def runit(ops: KernelOps, x: Complex) -> ChainMap:
    """x (x) id -> x, built once per complex in the kernel's workspace."""
    return kept(ops._cache, ("runit", id(x)), lambda: right_unitor(
        tensor(ops, x, unit_complex(x.right_algebra))))


def shift_out_right(ops: KernelOps, x: Complex, y1: Complex, y: Complex) -> ChainMap:
    """x (x) y1 -> (x (x) y)[1], for y1 = y[1]."""
    return interchange_right_shift(tensor(ops, x, y1), tensor(ops, x, y), 1)


def chained_maps(p: Kernel) -> dict[str, ChainMap]:
    """The condition, splitting and appendix maps chained through whiskers,
    unitors, associators and the right-shift interchange over the 3- and
    4-fold tensors: the oracle for the engine's maps, which it writes
    straight into their endpoint tensors."""
    ops = kernel_ops(p)
    pc = p.complex
    r, l = ops.right_adjoint().kernel.complex, ops.left_adjoint().kernel.complex
    lf = tensor(ops, pc, l).complex
    ct = ops.cotwist()
    gamma = ct.cone.include_target     # RF -> C[1]
    injs, projs = direct_sum_maps([r, l], direct_sum_complexes([r, l]))
    map_r = composite(inverse_map(lunit(ops, r)), whisker(ops, ops.unit_left(), r))
    map_l = composite(inverse_map(runit(ops, l)), whisker(ops, l, ops.unit_right()),
                      inverse_map(assoc(ops, l, pc, r)))
    # LFR -> R: id_r (x) eps_L after regrouping; LFR -> L: eps_R (x) id_l
    g1 = composite(assoc(ops, r, pc, l), whisker(ops, r, counit_left(p)), runit(ops, r))
    g2 = composite(whisker(ops, ops.counit_right(), l), lunit(ops, l))
    # P (x) R -> (P(x)B)(x)R -> (P(x)FL)(x)R -> (LF(x)P)(x)R -> LF(x)RF -> LF(x)C[1]
    into_pflr = composite(whisker(ops, inverse_map(runit(ops, pc)), r),
                          whisker(ops, whisker(ops, pc, ops.unit_left()), r))
    return {
        # (T (x) L)[-1] -> (FR[1] (x) L)[-1], which is (R(x)P)(x)L on the nose
        "condition3": composite(shift_map(whisker(ops, ops.twist().cone.project_source, l), -1),
                                g1),
        "condition4": composite(inverse_map(lunit(ops, r)), whisker(ops, ops.unit_left(), r),
                                assoc(ops, l, pc, r), whisker(ops, l, gamma),
                                shift_out_right(ops, l, gamma.target, ct.kernel.complex)),
        "into_rfl": composite(projs[0], map_r) + composite(projs[1], map_l),
        "from_lfr": composite(g1, injs[0]) + composite(g2, injs[1]),
        "appendix": composite(into_pflr, whisker(ops, inverse_map(assoc(ops, pc, l, pc)), r),
                              assoc(ops, lf, pc, r), whisker(ops, lf, gamma),
                              shift_out_right(ops, lf, gamma.target, ct.kernel.complex)),
    }


def counit_left(p: Kernel) -> ChainMap:
    """LF -> id_A, x (x) f |-> f(x), built once per kernel in its workspace
    by the evaluation the engine's counit_right shares."""
    ops = kernel_ops(p)
    return kept(ops._cache, "counit_left", lambda: ops._evaluation(
        ops.A, tensor(ops, p.complex, ops.left_adjoint().kernel.complex),
        ops.left_adjoint().duals, dual_first=False))


def dual_twist(p: Kernel) -> Triangle:
    """T' = cone(eta_L)[-1], with its triangle T' -> id_B -> FL -> T'[1],
    built once per kernel in its workspace."""
    ops = kernel_ops(p)
    return kept(ops._cache, "dual_twist", lambda: Triangle.of(ops.unit_left(), -1))


def dual_cotwist(p: Kernel) -> Triangle:
    """C' = cone(eps_L), with its triangle LF -> id_A -> C' -> LF[1], built
    once per kernel in its workspace."""
    ops = kernel_ops(p)
    return kept(ops._cache, "dual_cotwist", lambda: Triangle.of(counit_left(p), 0))


def basic_identity_maps(p: Kernel) -> dict[str, ChainMap]:
    """The four standard composites relating twists to the adjoints, with
    no hypothesis on the kernel; each is a quasi-isomorphism:

      TF[-1] -> FRF -> FC[1],     RT[-1] -> RFR -> CR[1],
      FC'[-1] -> FLF -> T'F[1],   C'L[-1] -> LFL -> LT'[1].
    """
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    fr, lf = ops.fr().complex, tensor(ops, pc, l).complex
    ct, dtw = ops.cotwist(), dual_twist(p)            # C, T'
    c, tp = ct.kernel.complex, dtw.kernel.complex
    proj_t = ops.twist().cone.project_source          # T -> FR[1]
    proj_cp = dual_cotwist(p).cone.project_source     # C' -> LF[1]
    gamma_c = ct.cone.include_target                  # RF -> C[1]
    gamma_tp = dtw.cone.include_target                # FL -> T'[1]
    # a shift of the left factor of a tensor is a shift of the tensor on the
    # nose, so only shifts of the right factor are relabelled
    return {
        "TF": composite(shift_map(composite(whisker(ops, pc, proj_t),
                                            shift_out_right(ops, pc, proj_t.target, fr)), -1),
                        inverse_map(assoc(ops, pc, r, pc)),
                        whisker(ops, gamma_c, pc)),
        "RT": composite(shift_map(whisker(ops, proj_t, r), -1),
                        assoc(ops, r, pc, r),
                        whisker(ops, r, gamma_c),
                        shift_out_right(ops, r, gamma_c.target, c)),
        "FC'": composite(shift_map(whisker(ops, proj_cp, pc), -1),
                         assoc(ops, pc, l, pc),
                         whisker(ops, pc, gamma_tp),
                         shift_out_right(ops, pc, gamma_tp.target, tp)),
        "C'L": composite(shift_map(composite(whisker(ops, l, proj_cp),
                                             shift_out_right(ops, l, proj_cp.target, lf)), -1),
                         inverse_map(assoc(ops, l, pc, l)),
                         whisker(ops, gamma_tp, l)),
    }


def triangular_identity_composites(p: Kernel) -> dict[str, ChainMap]:
    """The four unit/counit composites that must be identity chain maps."""
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    eta_r, eps_r = ops.unit_right(), ops.counit_right()
    eta_l, eps_l = ops.unit_left(), counit_left(p)
    return {
        # F: P -> (P(x)R)(x)P -> P(x)(R(x)P) -> P
        "F_right": composite(inverse_map(lunit(ops, pc)), whisker(ops, eta_r, pc),
                             assoc(ops, pc, r, pc), whisker(ops, pc, eps_r), runit(ops, pc)),
        # R: R -> R(x)(P(x)R) -> (R(x)P)(x)R -> R
        "R_right": composite(inverse_map(runit(ops, r)), whisker(ops, r, eta_r),
                             inverse_map(assoc(ops, r, pc, r)), whisker(ops, eps_r, r),
                             lunit(ops, r)),
        # F (left adjunction): P -> P(x)(L(x)P) -> (P(x)L)(x)P -> P
        "F_left": composite(inverse_map(runit(ops, pc)), whisker(ops, pc, eta_l),
                            inverse_map(assoc(ops, pc, l, pc)), whisker(ops, eps_l, pc),
                            lunit(ops, pc)),
        # L: L -> (L(x)P)(x)L -> L(x)(P(x)L) -> L
        "L_left": composite(inverse_map(lunit(ops, l)), whisker(ops, eta_l, l),
                            assoc(ops, l, pc, l), whisker(ops, l, eps_l), runit(ops, l)),
    }


def cone_differentials_by_products(f: ChainMap) -> dict[int, Matrix]:
    """Degree n -> the differential of cone(f) from degree n as the sum of
    products inj (-d_X) proj + inj f proj + inj d_Y proj: the oracle for
    the block placement in spherica.complexes.cone."""
    x, y = f.source, f.target
    parts = {}
    for n in {m - 1 for m in x.terms} | set(y.terms):
        top = x.dim(n + 1)
        eye = Matrix.identity(f.field, top + y.dim(n))
        if eye.rows:
            parts[n] = ([eye.submatrix(slice(None), slice(0, top)),
                         eye.submatrix(slice(None), slice(top, None))],
                        [eye.submatrix(slice(0, top), slice(None)),
                         eye.submatrix(slice(top, None), slice(None))])
    out = {}
    for n in parts:
        if (n + 1) in parts:
            injs1, projs0 = parts[n + 1][0], parts[n][1]
            out[n] = (injs1[0] * (x.diff_matrix(n + 1).scale(-1)) * projs0[0]
                      + injs1[1] * f.comp(n + 1) * projs0[0]
                      + injs1[1] * y.diff_matrix(n) * projs0[1])
    return out


def _slot(t: TensorComplex, n: int, i: int, j: int):
    if (i, j) not in t.layout.get(n, {}):
        raise ComplexError(f"no slot ({i},{j}) in degree {n}")
    return t.layout[n][(i, j)]


def interchange_right_shift_oracle(t_shifted: TensorComplex, t_plain: TensorComplex,
                                   n: int) -> ChainMap:
    """X (x) (Y[n]) -> (X (x) Y)[n], with sign (-1)^{n.|x|} per slot, added
    into one array per degree."""
    field = t_shifted.complex.field
    comps = {}
    for m, slots in t_shifted.layout.items():
        arr = np.zeros((t_plain.complex.dim(m + n), t_shifted.complex.dim(m)), dtype=object)
        for (i, jp), (td, off) in slots.items():
            td2, off2 = _slot(t_plain, m + n, i, jp + n)
            if td.bimodule.dim != td2.bimodule.dim:
                raise ComplexError("interchange slots do not match")
            ident = np.eye(td.bimodule.dim, dtype=int) * (-1) ** (n * i)
            arr[off2:off2 + td2.bimodule.dim, off:off + td.bimodule.dim] += ident
        comps[m] = Matrix(field, arr)
    return ChainMap(t_shifted.complex, shift(t_plain.complex, n), comps)


def interchange_left_shift_oracle(t_shifted: TensorComplex, t_plain: TensorComplex,
                                  n: int) -> ChainMap:
    """(X[n]) (x) Y -> (X (x) Y)[n]: the identity, slots relabelled, added
    into one array per degree."""
    field = t_shifted.complex.field
    comps = {}
    for m, slots in t_shifted.layout.items():
        arr = np.zeros((t_plain.complex.dim(m + n), t_shifted.complex.dim(m)), dtype=object)
        for (ip, j), (td, off) in slots.items():
            td2, off2 = _slot(t_plain, m + n, ip + n, j)
            if td.bimodule.dim != td2.bimodule.dim:
                raise ComplexError("interchange slots do not match")
            arr[off2:off2 + td2.bimodule.dim, off:off + td.bimodule.dim] += \
                np.eye(td.bimodule.dim, dtype=int)
        comps[m] = Matrix(field, arr)
    return ChainMap(t_shifted.complex, shift(t_plain.complex, n), comps)


def canonical_maps_oracle(p: Kernel) -> dict[str, ChainMap]:
    """condition3_map, condition4_map, appendix_map and the four
    basic_identity_maps of p, chained as they were before the engine
    dropped its left-shift interchanges: a shift of a tensor's left factor
    goes through interchange_left_shift_oracle, and each unit triangle's
    map RF -> C[1] (or FL -> T'[1]) is re-typed onto shift(C, 1)."""
    ops = kernel_ops(p)
    pc = p.complex
    r, l = ops.right_adjoint().kernel.complex, ops.left_adjoint().kernel.complex
    fr, lf = ops.fr().complex, tensor(ops, pc, l).complex

    def out_left(x1: Complex, x: Complex, y: Complex) -> ChainMap:
        return interchange_left_shift_oracle(tensor(ops, x1, y), tensor(ops, x, y), 1)

    def out_right(x: Complex, y1: Complex, y: Complex) -> ChainMap:
        return interchange_right_shift_oracle(tensor(ops, x, y1), tensor(ops, x, y), 1)

    def retyped_gamma(triangle) -> ChainMap:
        gamma = triangle.cone.include_target
        return ChainMap(gamma.source, shift(triangle.kernel.complex, 1), gamma.components)

    proj_t = ops.twist().cone.project_source
    proj_cp = dual_cotwist(p).cone.project_source
    c, tp = ops.cotwist().kernel.complex, dual_twist(p).kernel.complex
    gamma_c, gamma_tp = retyped_gamma(ops.cotwist()), retyped_gamma(dual_twist(p))
    into_pflr = composite(whisker(ops, inverse_map(runit(ops, pc)), r),
                          whisker(ops, whisker(ops, pc, ops.unit_left()), r))
    return {
        "condition3": composite(
            shift_map(composite(whisker(ops, proj_t, l), out_left(proj_t.target, fr, l)), -1),
            assoc(ops, r, pc, l), whisker(ops, r, counit_left(p)), runit(ops, r)),
        "condition4": composite(
            inverse_map(lunit(ops, r)), whisker(ops, ops.unit_left(), r), assoc(ops, l, pc, r),
            whisker(ops, l, gamma_c), out_right(l, gamma_c.target, c)),
        "appendix": composite(
            into_pflr, whisker(ops, inverse_map(assoc(ops, pc, l, pc)), r), assoc(ops, lf, pc, r),
            whisker(ops, lf, gamma_c), out_right(lf, gamma_c.target, c)),
        "TF": composite(
            shift_map(composite(whisker(ops, pc, proj_t), out_right(pc, proj_t.target, fr)), -1),
            inverse_map(assoc(ops, pc, r, pc)), whisker(ops, gamma_c, pc),
            out_left(gamma_c.target, c, pc)),
        "RT": composite(
            shift_map(composite(whisker(ops, proj_t, r), out_left(proj_t.target, fr, r)), -1),
            assoc(ops, r, pc, r), whisker(ops, r, gamma_c), out_right(r, gamma_c.target, c)),
        "FC'": composite(
            shift_map(composite(whisker(ops, proj_cp, pc), out_left(proj_cp.target, lf, pc)), -1),
            assoc(ops, pc, l, pc), whisker(ops, pc, gamma_tp), out_right(pc, gamma_tp.target, tp)),
        "C'L": composite(
            shift_map(composite(whisker(ops, l, proj_cp), out_right(l, proj_cp.target, lf)), -1),
            inverse_map(assoc(ops, l, pc, l)), whisker(ops, gamma_tp, l),
            out_left(gamma_tp.target, tp, l)),
    }


def direct_sum_maps(xs: list[Complex], total: Complex) -> tuple[list[ChainMap], list[ChainMap]]:
    """The inclusion and projection of each summand xs[k] of
    total = direct_sum_complexes(xs): slices of one identity per term."""
    field = total.field
    eyes = {n: Matrix.identity(field, t.dim) for n, t in total.terms.items()}
    ends = {n: np.cumsum([0] + [x.dim(n) for x in xs]) for n in total.terms}
    injs, projs = [], []
    for k, x in enumerate(xs):
        own = {n: slice(ends[n][k], ends[n][k + 1]) for n in total.terms if x.dim(n)}
        injs.append(ChainMap(x, total, {n: eyes[n].submatrix(slice(None), s)
                                        for n, s in own.items()}))
        projs.append(ChainMap(total, x, {n: eyes[n].submatrix(s, slice(None))
                                         for n, s in own.items()}))
    return injs, projs


def direct_sum_maps_oracle(xs: list[Complex], total: Complex):
    """The inclusions and projections of the summands xs of total, their
    components written entry by entry: coordinate r of summand k in degree
    n is coordinate r + (sum of x.dim(n) before k) of the sum."""
    injs, projs = [], []
    for k, x in enumerate(xs):
        inj, proj = {}, {}
        for n in x.terms:
            start = sum(y.dim(n) for y in xs[:k])
            arr = np.zeros((total.dim(n), x.dim(n)), dtype=object)
            for r in range(x.dim(n)):
                arr[start + r, r] = 1
            inj[n] = Matrix(x.field, arr)
            proj[n] = Matrix(x.field, arr.T)
        injs.append(ChainMap(x, total, inj))
        projs.append(ChainMap(total, x, proj))
    return injs, projs


def dense_rref_mod_p(arr: np.ndarray, field: Field) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivots of a matrix of residues mod p,
    updating every row at every pivot: the oracle for the sparse pivot
    updates of spherica.linalg."""
    R = np.array(arr, copy=True)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c] != 0)[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = field.inv(R[r, c])
        R[r] = (R[r] * inv) % field.p
        col = R[:, c].copy()
        col[r] = 0
        R -= np.outer(col, R[r])
        R %= field.p
        pivots.append(c)
        r += 1
    return R, pivots


# Rational linear algebra on Fraction objects, entry by entry: the reference
# for the integer kernels of spherica.linalg over Q.

def entries_array(m: Matrix) -> np.ndarray:
    """The entries of m as a 2-D object array of Python numbers."""
    return np.array(m.entries(), dtype=object).reshape(m.rows, m.cols)


def fraction_product(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, np.dot(entries_array(a), entries_array(b)) if a.cols
                  else np.zeros((a.rows, b.cols)))


def fraction_combine_blocks(blocks: Matrix, coeffs: Matrix) -> Matrix:
    r = coeffs.rows
    stacked = entries_array(blocks).reshape(r, blocks.rows // r, blocks.cols)
    return Matrix(blocks.field, (stacked * entries_array(coeffs)[:, None, :]).sum(axis=0))


def fraction_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Gauss-Jordan on Fractions, first nonzero column, then first nonzero row."""
    R = entries_array(m)
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
    R = entries_array(R)
    free = [c for c in range(m.cols) if c not in pivots]
    out = np.zeros((m.cols, len(free)), dtype=object)
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for i, pc in enumerate(pivots):
            out[pc, j] = -R[i, fc]
    return Matrix(m.field, out)


def fraction_solve(m: Matrix, b: Matrix) -> Matrix | None:
    R, pivots = fraction_rref(m.hstack(b))
    if any(pc >= m.cols for pc in pivots):
        return None
    R = entries_array(R)
    out = np.zeros((m.cols, b.cols), dtype=object)
    for i, pc in enumerate(pivots):
        out[pc, :] = R[i, m.cols:]
    return Matrix(m.field, out)
