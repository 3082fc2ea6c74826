"""Finite-dimensional (A,B)-bimodules with explicit action matrices.

Elements are column vectors; the left action of a basis element a of A
is a matrix L_a with vec(a.x) = L_a vec(x), so a -> L_a is an algebra
homomorphism, and the right action satisfies R_{bc} = R_c R_b.

Everything downstream leans on two pieces of structure:

* vertex blocks: e_v M and M e_w, computed from the idempotent action
  matrices, which shrink every linear solve by a factor of
  (#vertices)^2;
* projective splittings: a right-projective M is identified with a
  direct sum of ideals e_v B via a deterministic echelon choice of
  generators, which gives dual bases on the nose, duals with explicit
  evaluation maps, and a quotient-free model of M (x)_B N.

Tensor products over a middle algebra come back as TensorData: the
bimodule together with a monomial basis (each basis vector is the
class of an explicit pure tensor) and a bilinear coordinate map, from
which induced maps on tensors are computed functorially.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import Algebra, opposite
from .linalg import Matrix


class BimoduleError(Exception):
    """Raised for invalid bimodule data or incompatible operations."""


class Bimodule:
    """A finite-dimensional bimodule given by per-basis action matrices.

    The constructor only checks that the algebras share a field; check()
    verifies the module axioms.
    """

    def __init__(self, left_algebra: Algebra, right_algebra: Algebra,
                 left_action: list[Matrix], right_action: list[Matrix],
                 dim: int, label: str = ""):
        if left_algebra.field != right_algebra.field:
            raise BimoduleError("bimodule algebras must share a field")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.dim = dim
        self.left_action = left_action
        self.right_action = right_action
        self.label = label
        self._cache: dict = {}

    # --- validation ---------------------------------------------------

    def check(self):
        """Raise BimoduleError unless the action matrices are dim x dim, both
        actions are unital and multiplicative, and they commute."""
        A, B = self.left_algebra, self.right_algebra
        n = self.dim
        if len(self.left_action) != A.dim or len(self.right_action) != B.dim:
            raise BimoduleError("action list lengths must match algebra dims")
        for m in self.left_action + self.right_action:
            if m.rows != n or m.cols != n:
                raise BimoduleError("action matrices must be dim x dim")
        if n == 0:
            return
        ident = Matrix.identity(self.field, n)
        if self.left_action_of(A.unit) != ident:
            raise BimoduleError("left unit does not act as identity")
        if self.right_action_of(B.unit) != ident:
            raise BimoduleError("right unit does not act as identity")
        # homomorphism property, checked on generator x basis pairs:
        # products of generators reach every basis element, so this
        # propagates to the whole algebra by induction.  The product of
        # basis elements i and j is the sparse combination A.mult[i][j].
        for g in A.generator_indices:
            Lg = self.left_action[g]
            for j in range(A.dim):
                if _combination(self.left_action, A.mult[g][j], n) != Lg * self.left_action[j]:
                    raise BimoduleError("left action is not a homomorphism")
        for g in B.generator_indices:
            Rg = self.right_action[g]
            for j in range(B.dim):
                if _combination(self.right_action, B.mult[j][g], n) != Rg * self.right_action[j]:
                    raise BimoduleError("right action is not an anti-homomorphism")
        for g in A.generator_indices:
            for h in B.generator_indices:
                if self.left_action[g] * self.right_action[h] != \
                   self.right_action[h] * self.left_action[g]:
                    raise BimoduleError("left and right actions do not commute")

    # --- action helpers -----------------------------------------------

    def left_action_of(self, vec: Matrix) -> Matrix:
        out = Matrix.zeros(self.field, self.dim, self.dim)
        zero = self.field.elem(0)
        for i in range(self.left_algebra.dim):
            c = vec.arr[i, 0]
            if c != zero:
                out = out + self.left_action[i].scale(c)
        return out

    def right_action_of(self, vec: Matrix) -> Matrix:
        out = Matrix.zeros(self.field, self.dim, self.dim)
        zero = self.field.elem(0)
        for i in range(self.right_algebra.dim):
            c = vec.arr[i, 0]
            if c != zero:
                out = out + self.right_action[i].scale(c)
        return out

    def left_act(self, avs: Matrix, xs: Matrix) -> Matrix:
        """Column j is a_j . x_j, for a_j = avs[:, j] in A and x_j = xs[:, j]."""
        return _act(self.left_action, avs, xs)

    def right_act(self, xs: Matrix, bvs: Matrix) -> Matrix:
        """Column j is x_j . b_j, for x_j = xs[:, j] and b_j = bvs[:, j] in B."""
        return _act(self.right_action, bvs, xs)

    # --- vertex blocks (cached) ----------------------------------------

    def left_block(self, v_pos: int) -> Matrix:
        """Basis of e_v M for the v-th left vertex idempotent."""
        return flip(self).right_block(v_pos)

    def right_block(self, w_pos: int) -> Matrix:
        """Basis of M e_w for the w-th right vertex idempotent."""
        key = ("rb", w_pos)
        if key not in self._cache:
            idem = self.right_algebra.vertex_idempotents[w_pos]
            self._cache[key] = self.right_action[idem].image_basis()
        return self._cache[key]

    def left_block_proj(self, v_pos: int) -> Matrix:
        return flip(self).right_block_proj(v_pos)

    def right_block_proj(self, w_pos: int) -> Matrix:
        key = ("rbp", w_pos)
        if key not in self._cache:
            self._cache[key] = _left_inverse(self.right_block(w_pos))
        return self._cache[key]

    def double_block(self, v_pos: int, w_pos: int) -> Matrix:
        """Basis of e_v M e_w."""
        key = ("db", v_pos, w_pos)
        if key not in self._cache:
            li = self.left_algebra.vertex_idempotents[v_pos]
            ri = self.right_algebra.vertex_idempotents[w_pos]
            self._cache[key] = (self.left_action[li] * self.right_action[ri]).image_basis()
        return self._cache[key]

    def double_block_proj(self, v_pos: int, w_pos: int) -> Matrix:
        key = ("dbp", v_pos, w_pos)
        if key not in self._cache:
            self._cache[key] = _left_inverse(self.double_block(v_pos, w_pos))
        return self._cache[key]

    def __repr__(self):
        lbl = self.label or "Bimodule"
        return f"{lbl}({self.left_algebra.name or 'A'},{self.right_algebra.name or 'B'}; dim={self.dim})"


def flip(m: Bimodule) -> Bimodule:
    """m read the other way round: the same action matrices with the sides
    swapped, so an (A,B)-bimodule becomes a (B^op,A^op)-bimodule.

    Cached on m; it satisfies the module axioms exactly when m does.
    Every left-side construction is the right-side one read through flip.
    """
    if "flip" not in m._cache:
        m._cache["flip"] = Bimodule(opposite(m.right_algebra), opposite(m.left_algebra),
                                    m.right_action, m.left_action, m.dim, label=m.label)
    return m._cache["flip"]


def _right_view(m: Bimodule, side: str) -> Bimodule:
    """m itself for side "right", its flip for side "left"."""
    if side not in ("left", "right"):
        raise BimoduleError("side must be 'left' or 'right'")
    return m if side == "right" else flip(m)


def _act(actions: list[Matrix], coeffs: Matrix, xs: Matrix) -> Matrix:
    """Column j is sum_i coeffs[i, j] actions[i] xs[:, j]."""
    stacked = Matrix.stack_rows(xs.field, actions, xs.rows)
    return (stacked * xs).combine_blocks(coeffs)


def _combination(mats: list[Matrix], coeffs: dict, n: int) -> Matrix:
    """sum_k c_k mats[k] over the n x n matrices, for coeffs {k: c_k}."""
    if len(coeffs) == 1:
        (k, c), = coeffs.items()
        if c == 1:
            return mats[k]
    out = Matrix.zeros(mats[0].field, n, n)
    for k, c in coeffs.items():
        out = out + mats[k].scale(c)
    return out


def _left_inverse(m: Matrix) -> Matrix:
    """X with X m = I for a matrix of full column rank."""
    if m.cols == 0:
        return Matrix.zeros(m.field, 0, m.rows)
    x = m.transpose().solve(Matrix.identity(m.field, m.cols))
    if x is None:
        raise BimoduleError("matrix does not have full column rank")
    return x.transpose()


class BimoduleMap:
    """A linear map intertwining the actions on the stated sides.

    The constructor checks sides and the matrix shape; check() verifies
    that the map intertwines the actions.
    """

    def __init__(self, source: Bimodule, target: Bimodule, matrix: Matrix,
                 sides: str = "both"):
        if sides not in ("both", "left", "right"):
            raise BimoduleError(f"invalid sides {sides!r}")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise BimoduleError(
                f"map matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{target.dim}x{source.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.sides = sides

    def check(self):
        """Raise BimoduleError unless the map intertwines the actions on its sides."""
        if self.sides in ("both", "left"):
            if self.source.left_algebra is not self.target.left_algebra and \
               self.source.left_algebra.mult != self.target.left_algebra.mult:
                raise BimoduleError("left algebras differ")
            for g in self.source.left_algebra.generator_indices:
                if self.matrix * self.source.left_action[g] != \
                   self.target.left_action[g] * self.matrix:
                    raise BimoduleError("map does not intertwine the left action")
        if self.sides in ("both", "right"):
            if self.source.right_algebra is not self.target.right_algebra and \
               self.source.right_algebra.mult != self.target.right_algebra.mult:
                raise BimoduleError("right algebras differ")
            for g in self.source.right_algebra.generator_indices:
                if self.matrix * self.source.right_action[g] != \
                   self.target.right_action[g] * self.matrix:
                    raise BimoduleError("map does not intertwine the right action")

    def then(self, other: "BimoduleMap") -> "BimoduleMap":
        if other.source.dim != self.target.dim:
            raise BimoduleError("maps are not composable")
        return BimoduleMap(self.source, other.target, other.matrix * self.matrix, self.sides)

    def __add__(self, other: "BimoduleMap") -> "BimoduleMap":
        return BimoduleMap(self.source, self.target, self.matrix + other.matrix, self.sides)

    def scale(self, c) -> "BimoduleMap":
        return BimoduleMap(self.source, self.target, self.matrix.scale(c), self.sides)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_invertible(self) -> bool:
        return self.matrix.is_invertible()

    def __repr__(self):
        return f"BimoduleMap({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------


def zero_bimodule(a: Algebra, b: Algebra) -> Bimodule:
    return Bimodule(a, b, [Matrix.zeros(a.field, 0, 0)] * a.dim,
                    [Matrix.zeros(a.field, 0, 0)] * b.dim, 0, label="0")


def regular_bimodule(a: Algebra) -> Bimodule:
    """The algebra as a bimodule over itself (the diagonal kernel's term)."""
    left = [a.left_mult_matrix(i) for i in range(a.dim)]
    right = [a.right_mult_matrix(i) for i in range(a.dim)]
    return Bimodule(a, a, left, right, a.dim, label=a.name or "A")


def projective_bimodule(a: Algebra, v_pos: int, b: Algebra, w_pos: int) -> Bimodule:
    """The standard biprojective summand  A e_v (x) e_w B."""
    v = a.vertex_idempotents[v_pos]
    w = b.vertex_idempotents[w_pos]
    S = a.left_ideal_basis(v)       # basis of A e_v
    T = b.right_ideal_basis(w)      # basis of e_w B
    sp = _left_inverse(S)
    tp = _left_inverse(T)
    p, q = S.cols, T.cols
    iq = Matrix.identity(a.field, q)
    ip = Matrix.identity(a.field, p)
    left = [(sp * a.left_mult_matrix(i) * S).kron(iq) for i in range(a.dim)]
    right = [ip.kron(tp * b.right_mult_matrix(i) * T) for i in range(b.dim)]
    return Bimodule(a, b, left, right, p * q,
                    label=f"P({v_pos},{w_pos})")


def direct_sum(summands: list[Bimodule], left: Algebra | None = None,
               right: Algebra | None = None) -> tuple[Bimodule, list[Matrix], list[Matrix]]:
    """Direct sum with injection and projection matrices."""
    if not summands:
        if left is None or right is None:
            raise BimoduleError("empty direct sum needs explicit algebras")
        return zero_bimodule(left, right), [], []
    a = summands[0].left_algebra
    b = summands[0].right_algebra
    field = a.field
    total = sum(m.dim for m in summands)
    lefts = [Matrix.block_diag(field, [m.left_action[i] for m in summands])
             for i in range(a.dim)]
    rights = [Matrix.block_diag(field, [m.right_action[i] for m in summands])
              for i in range(b.dim)]
    out = Bimodule(a, b, lefts, rights, total, label="(+)".join(m.label or "?" for m in summands))
    injections = []
    projections = []
    offset = 0
    for m in summands:
        inj = field._zeros(total, m.dim)
        proj = field._zeros(m.dim, total)
        for i in range(m.dim):
            inj[offset + i, i] = field.elem(1)
            proj[i, offset + i] = field.elem(1)
        injections.append(Matrix(field, inj))
        projections.append(Matrix(field, proj))
        offset += m.dim
    return out, injections, projections


# ---------------------------------------------------------------------------
# hom spaces (block-structured linear solve)
# ---------------------------------------------------------------------------


def _radical_generator_indices(a: Algebra) -> list[int]:
    if a.basis_paths is not None:
        return [i for i, p in enumerate(a.basis_paths) if len(p) == 1]
    return list(a.radical_basis)


def hom_space(m: Bimodule, n: Bimodule, sides: str) -> list[BimoduleMap]:
    """Basis of the space of maps m -> n equivariant on the given sides.

    sides is "left", "right" or "both"; the algebras on each requested
    side must agree.  Solving is done per vertex block, with constraint
    rows only for the arrow generators.  Left-equivariant maps are the
    right-equivariant maps of the flips.
    """
    if sides not in ("left", "right", "both"):
        raise BimoduleError(f"invalid sides {sides!r}")
    if sides in ("left", "both") and m.left_algebra.mult != n.left_algebra.mult:
        raise BimoduleError("left algebras differ")
    if sides == "left":
        return [BimoduleMap(m, n, f.matrix, sides="left")
                for f in hom_space(flip(m), flip(n), "right")]
    if m.right_algebra.mult != n.right_algebra.mult:
        raise BimoduleError("right algebras differ")
    field = m.field
    if m.dim == 0 or n.dim == 0:
        return []

    right_idems = m.right_algebra.vertex_idempotents
    constraints = [(m.right_action[g], n.right_action[g])
                   for g in _radical_generator_indices(m.right_algebra)]
    if sides == "both":
        left_idems = m.left_algebra.vertex_idempotents
        blocks = [(v, w) for v in range(len(left_idems)) for w in range(len(right_idems))]
        constraints = [(m.left_action[g], n.left_action[g])
                       for g in _radical_generator_indices(m.left_algebra)] + constraints

        def block_data(module: Bimodule, bl):
            projector = module.left_action[left_idems[bl[0]]] * \
                module.right_action[right_idems[bl[1]]]
            return module.double_block(*bl), module.double_block_proj(*bl), projector
    else:
        blocks = [(w,) for w in range(len(right_idems))]

        def block_data(module: Bimodule, bl):
            return (module.right_block(bl[0]), module.right_block_proj(bl[0]),
                    module.right_action[right_idems[bl[0]]])

    # per block: its basis, and the map to coordinates of a vector's block component
    src_basis, src_proj, src_coords = {}, {}, {}
    tgt_basis, tgt_coords = {}, {}
    for bl in blocks:
        src_basis[bl], src_proj[bl], projector = block_data(m, bl)
        src_coords[bl] = src_proj[bl] * projector
        tgt_basis[bl], proj, projector = block_data(n, bl)
        tgt_coords[bl] = proj * projector

    sizes = {bl: (tgt_basis[bl].cols, src_basis[bl].cols) for bl in blocks}
    offsets = {}
    total = 0
    for bl in blocks:
        offsets[bl] = total
        total += sizes[bl][0] * sizes[bl][1]
    if total == 0:
        return []

    rows: list[Matrix] = []
    for Lm, Ln in constraints:
        # constraint per block pair: F_tgt . (coords of Lm on m-blocks)
        #                          == (coords of Ln on n-blocks) . F_src
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
                arr = field._zeros(nB_t * mB_s, total)
                if has_m:
                    # vec_rm(F_tgt @ comp_m) = (I (x) comp_m^T) vec_rm(F_tgt)
                    term = Matrix.identity(field, nB_t).kron(comp_m.transpose())
                    off_t = offsets[tgt_bl]
                    arr[:, off_t:off_t + nB_t * mB_t] += term.arr
                if has_n:
                    # vec_rm(comp_n @ F_src) = (comp_n (x) I) vec_rm(F_src)
                    term = comp_n.kron(Matrix.identity(field, mB_s))
                    off_s = offsets[src_bl]
                    arr[:, off_s:off_s + nB_s * mB_s] -= term.arr
                rows.append(Matrix(field, arr))

    if rows:
        null = Matrix.stack_rows(field, rows, total).nullspace()
    else:
        null = Matrix.identity(field, total)

    maps = []
    for j in range(null.cols):
        full = Matrix.zeros(field, n.dim, m.dim)
        for bl in blocks:
            nB, mB = sizes[bl]
            if nB == 0 or mB == 0:
                continue
            off = offsets[bl]
            block = Matrix(field, null.arr[off:off + nB * mB, j].reshape(nB, mB))
            full = full + tgt_basis[bl] * block * src_proj[bl]
        maps.append(BimoduleMap(m, n, full, sides=sides))
    return maps


# ---------------------------------------------------------------------------
# projective splittings
# ---------------------------------------------------------------------------


@dataclass
class Splitting:
    """Identification of a right-projective module with ideal summands:
    M = (+)_t  e_{v_t} B  via phi(slot t: g) = p_t . g.

    The left-side splitting of M is the splitting of flip(M).
    """

    gens: list[Matrix]
    vertex_pos: list[int]
    phi: Matrix
    phi_inv: Matrix
    slot_offsets: list[int]
    slot_dims: list[int]


def _cover(m: Bimodule) -> tuple[list[Matrix], list[int], list[int]]:
    """Generators of m modulo m.rad, by echelon choice from the vertex blocks
    m e_v, with their vertices and the dimensions of their slots e_v B."""
    field = m.field
    alg = m.right_algebra
    if m.dim == 0:
        return [], [], []
    rad = Matrix.stack_columns(field, [m.right_action[r] for r in alg.radical_basis], m.dim)
    rad_basis = rad.image_basis()
    cand_cols = [rad_basis]
    cand_meta: list[int] = []
    for v_pos in range(len(alg.vertex_idempotents)):
        blk = m.right_block(v_pos)
        cand_cols.append(blk)
        cand_meta.extend([v_pos] * blk.cols)
    stacked = Matrix.stack_columns(field, cand_cols, m.dim)
    _, pivots = stacked.rref()
    picked = [p for p in pivots if p >= rad_basis.cols]
    vertex_pos = [cand_meta[p - rad_basis.cols] for p in picked]
    slot_dims = [alg.right_ideal_basis(alg.vertex_idempotents[v]).cols for v in vertex_pos]
    return [stacked.column_vec(p) for p in picked], vertex_pos, slot_dims


def _splitting(m: Bimodule) -> Splitting | None:
    """The right-projective splitting of m, or None when m is not right-projective."""
    if "split" in m._cache:
        return m._cache["split"]
    gens, vertex_pos, slot_dims = _cover(m)
    sp = None
    if sum(slot_dims) == m.dim:
        # phi: free module -> M, slot t: g |-> p_t.g
        alg = m.right_algebra
        cols = []
        for t, v_pos in enumerate(vertex_pos):
            ideal = alg.right_ideal_basis(alg.vertex_idempotents[v_pos])
            copies = Matrix.stack_columns(m.field, [gens[t]] * ideal.cols, m.dim)
            cols.append(m.right_act(copies, ideal))
        phi = Matrix.stack_columns(m.field, cols, m.dim)
        if phi.is_invertible():
            offsets = [sum(slot_dims[:t]) for t in range(len(slot_dims))]
            sp = Splitting(gens, vertex_pos, phi, phi.inverse(), offsets, slot_dims)
    m._cache["split"] = sp
    return sp


def is_projective(m: Bimodule, side: str) -> bool:
    """Projectivity over one side, decided by the projective cover dimension."""
    return _splitting(_right_view(m, side)) is not None


def projective_cover_dim(m: Bimodule, side: str) -> int:
    """Dimension of the projective cover over one side (diagnostic)."""
    return sum(_cover(_right_view(m, side))[2])


# ---------------------------------------------------------------------------
# one-sided duals with chosen dual bases
# ---------------------------------------------------------------------------


@dataclass
class DualData:
    """A dual bimodule with its evaluation and chosen dual basis.

    hom_matrices[i] is the map P -> B (or P -> A for left duals)
    realised by the i-th basis vector of the dual; generators g_t and
    cogenerators g_t^* satisfy sum_t g_t . g_t^*(x) = x (right side)
    or sum_t h_t^*(x) . h_t = x (left side).
    """

    bimodule: Bimodule
    hom_matrices: list[Matrix]
    generators: list[Matrix]
    cogenerators: list[Matrix]

    def evaluate(self, f_coords: Matrix, x: Matrix) -> Matrix:
        """Column j is f_j(x_j), for f_j = f_coords[:, j] and x_j = x[:, j]."""
        if not self.hom_matrices:
            return Matrix.zeros(f_coords.field, 0, x.cols)
        return _act(self.hom_matrices, f_coords, x)


def _require_projective(p: Bimodule, side: str) -> None:
    if not is_projective(p, side):
        raise BimoduleError(
            f"{side}_dual needs a {side}-projective bimodule (cover dim "
            f"{projective_cover_dim(p, side)} != dim {p.dim})")


def right_dual(p: Bimodule) -> DualData:
    """Maps into the right algebra: an (A,B)-bimodule yields a (B,A)-bimodule."""
    _require_projective(p, "right")
    sp = _splitting(p)
    A, B = p.left_algebra, p.right_algebra
    field = p.field
    # dual slots: B e_{v_t}
    slot_basis = []
    for v_pos in sp.vertex_pos:
        v = B.vertex_idempotents[v_pos]
        slot_basis.append(B.left_ideal_basis(v))
    dual_dim = sum(g.cols for g in slot_basis)
    dual_offsets = []
    off = 0
    for g in slot_basis:
        dual_offsets.append(off)
        off += g.cols

    # component maps  comp_t : P -> B, x |-> embed(slot t of phi_inv x)
    comp = []
    for t, v_pos in enumerate(sp.vertex_pos):
        v = B.vertex_idempotents[v_pos]
        E = B.right_ideal_basis(v)  # basis of e_v B
        rows = sp.phi_inv.submatrix(slice(sp.slot_offsets[t], sp.slot_offsets[t] + sp.slot_dims[t]),
                                    slice(0, p.dim))
        comp.append(E * rows)

    hom_matrices = []
    for t, G in enumerate(slot_basis):
        for j in range(G.cols):
            beta = G.column_vec(j)
            hom_matrices.append(B.left_action_of(beta) * comp[t])

    # actions on the dual
    slot_proj = [_left_inverse(G) for G in slot_basis]
    left_action = []
    for i in range(B.dim):
        blocks = []
        for t, G in enumerate(slot_basis):
            blocks.append(slot_proj[t] * (B.left_mult_matrix(i) * G))
        left_action.append(Matrix.block_diag(field, blocks))
    right_action = []
    for i in range(A.dim):
        mat = field._zeros(dual_dim, dual_dim)
        for s in range(len(sp.gens)):
            img = sp.phi_inv * (p.left_action[i] * sp.gens[s])
            for t in range(len(sp.gens)):
                v_t = B.vertex_idempotents[sp.vertex_pos[t]]
                E_t = B.right_ideal_basis(v_t)
                c_ts = E_t * img.submatrix(
                    slice(sp.slot_offsets[t], sp.slot_offsets[t] + sp.slot_dims[t]),
                    slice(0, 1))
                if c_ts.is_zero():
                    continue
                # beta |-> beta . c_ts maps slot t to slot s
                move = slot_proj[s] * (B.right_action_of(c_ts) * slot_basis[t]) \
                    if slot_basis[s].cols else None
                if move is None:
                    continue
                r0, c0 = dual_offsets[s], dual_offsets[t]
                block = move.arr
                if block.shape[0] and block.shape[1]:
                    sub = mat[r0:r0 + block.shape[0], c0:c0 + block.shape[1]]
                    mat[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = sub + block
        right_action.append(Matrix(field, mat))

    dual = Bimodule(B, A, left_action, right_action, dual_dim,
                    label=f"{p.label or 'P'}^v")
    cogens = []
    for t, v_pos in enumerate(sp.vertex_pos):
        v = B.vertex_idempotents[v_pos]
        G = slot_basis[t]
        coords = G.solve(Matrix.basis_vector(field, B.dim, v))
        if coords is None:
            raise BimoduleError("idempotent not in its own ideal (internal error)")
        vec = field._zeros(dual_dim, 1)
        for j in range(G.cols):
            vec[dual_offsets[t] + j, 0] = coords.arr[j, 0]
        cogens.append(Matrix(field, vec))
    return DualData(dual, hom_matrices, list(sp.gens), cogens)


def left_dual(p: Bimodule) -> DualData:
    """Maps into the left algebra: an (A,B)-bimodule yields a (B,A)-bimodule.

    Hom_A(P, A) is Hom_{A^op}(flip P, A^op), so this is the right dual of
    the flip, read back through flip, with the same hom matrices and bases.
    """
    _require_projective(p, "left")
    dd = right_dual(flip(p))
    return DualData(flip(dd.bimodule), dd.hom_matrices, dd.generators, dd.cogenerators)


# ---------------------------------------------------------------------------
# tensor over the middle algebra
# ---------------------------------------------------------------------------


class TensorData:
    """A concrete model of m (x)_B n with monomial basis and coordinates.

    Each basis vector of the resulting bimodule is the class of a pure
    tensor x_j (x) y_j; monomial_matrices() returns the x_j and the y_j
    as the columns of two matrices.  coords(X, Y) expresses the pure
    tensors X[:, j] (x) Y[:, j] in that basis, all columns at once, and
    induced() transports a pair of equivariant maps to a map of tensor
    products with one such call.
    """

    def __init__(self, m: Bimodule, n: Bimodule):
        if m.right_algebra.mult != n.left_algebra.mult:
            raise BimoduleError("tensor factors do not share the middle algebra")
        self.m = m
        self.n = n
        self.field = m.field

    @property
    def bimodule(self) -> Bimodule:
        raise NotImplementedError

    def monomial_matrices(self) -> tuple[Matrix, Matrix]:
        raise NotImplementedError

    def coords(self, xs: Matrix, ys: Matrix) -> Matrix:
        raise NotImplementedError

    def monomials(self) -> list[tuple[Matrix, Matrix]]:
        xs, ys = self.monomial_matrices()
        return [(xs.column_vec(j), ys.column_vec(j)) for j in range(xs.cols)]

    def tensor_coords(self, mv: Matrix, nv: Matrix) -> Matrix:
        return self.coords(mv, nv)

    def induced(self, f: BimoduleMap, g: BimoduleMap, target: "TensorData") -> BimoduleMap:
        """The map f (x) g between tensor products (f, g equivariant)."""
        xs, ys = self.monomial_matrices()
        mat = target.coords(f.matrix * xs, g.matrix * ys)
        return BimoduleMap(self.bimodule, target.bimodule, mat)


class _SplitTensor(TensorData):
    """Model of m (x)_B n through a right-projective splitting of m.

    With m = (+)_t p_t.e_{v_t}B, the tensor is (+)_t p_t (x) e_{v_t}n: in
    slot t, x (x) y has the coordinates of c_t(x).y in e_{v_t}n, where
    c_t(x) in e_{v_t}B is the slot-t component of phi^-1(x).
    """

    def __init__(self, m: Bimodule, n: Bimodule, sp: Splitting):
        super().__init__(m, n)
        self.sp = sp
        B = m.right_algebra
        field = self.field
        self._nblocks = [n.left_block(v_pos) for v_pos in sp.vertex_pos]
        self._nprojs = [n.left_block_proj(v_pos) for v_pos in sp.vertex_pos]
        self._comp = []
        for t, v_pos in enumerate(sp.vertex_pos):
            v = B.vertex_idempotents[v_pos]
            E = B.right_ideal_basis(v)
            rows = sp.phi_inv.submatrix(
                slice(sp.slot_offsets[t], sp.slot_offsets[t] + sp.slot_dims[t]),
                slice(0, m.dim))
            self._comp.append(E * rows)
        self._dim = sum(blk.cols for blk in self._nblocks)

        A, C = m.left_algebra, n.right_algebra
        # right action of C: block diagonal on e_{v_t} n
        right_action = []
        for i in range(C.dim):
            blocks = [self._nprojs[t] * (n.right_action[i] * self._nblocks[t])
                      for t in range(len(sp.gens))]
            right_action.append(Matrix.block_diag(field, blocks))
        # left action of A: a.(p_t (x) y) = (a.p_t) (x) y, for every basis
        # element a and monomial at once
        gens = Matrix.stack_columns(field, sp.gens, m.dim)
        moved = Matrix.stack_columns(field, [m.left_action[i] * gens for i in range(A.dim)], m.dim)
        acted = self._acted(self.monomial_matrices()[1])
        every = self._from_coeffs([self._per_monomial(comp * moved) for comp in self._comp],
                                  Matrix.stack_columns(field, [acted] * A.dim, acted.rows))
        left_action = [every.submatrix(slice(None), slice(i * self._dim, (i + 1) * self._dim))
                       for i in range(A.dim)]
        self._bimodule = Bimodule(A, C, left_action, right_action, self._dim,
                                  label=f"{m.label or 'M'}(x){n.label or 'N'}")

    @property
    def bimodule(self) -> Bimodule:
        return self._bimodule

    def monomial_matrices(self):
        field = self.field
        gens = Matrix.stack_columns(field, self.sp.gens, self.m.dim)
        return self._per_monomial(gens), Matrix.stack_columns(field, self._nblocks, self.n.dim)

    def _per_monomial(self, per_slot: Matrix) -> Matrix:
        """Column t of per_slot repeated once for each monomial of slot t
        (columns t + k * #slots likewise, for several runs of slots)."""
        counts = [blk.cols for blk in self._nblocks]
        runs = per_slot.cols // len(counts) if counts else 0
        return Matrix(self.field, np.repeat(per_slot.arr, counts * runs, axis=1))

    def coords(self, xs: Matrix, ys: Matrix) -> Matrix:
        return self._from_coeffs([comp * xs for comp in self._comp], self._acted(ys))

    def _acted(self, ys: Matrix) -> Matrix:
        """b_i . y for every basis element b_i of B, stacked by i."""
        return Matrix.stack_rows(self.field, self.n.left_action, self.n.dim) * ys

    def _from_coeffs(self, coeffs: list[Matrix], acted: Matrix) -> Matrix:
        """Coordinates of the x_j (x) y_j from coeffs[t][:, j] = c_t(x_j)
        and acted = self._acted(ys)."""
        parts = [proj * acted.combine_blocks(c)
                 for c, proj in zip(coeffs, self._nprojs) if proj.rows]
        return Matrix.stack_rows(self.field, parts, acted.cols)


class _QuotientTensor(TensorData):
    """Generic model: blocks over the middle vertices, arrow relations, rref."""

    def __init__(self, m: Bimodule, n: Bimodule):
        super().__init__(m, n)
        B = m.right_algebra
        field = self.field
        nverts = len(B.vertex_idempotents)
        self._mblocks = [m.right_block(v) for v in range(nverts)]
        self._mprojs = [m.right_block_proj(v) for v in range(nverts)]
        self._nblocks = [n.left_block(v) for v in range(nverts)]
        self._nprojs = [n.left_block_proj(v) for v in range(nverts)]

        # relations x.b (x) y - x (x) b.y for arrows b and basis vectors x, y
        every_x = Matrix.identity(field, m.dim)
        every_y = Matrix.identity(field, n.dim)
        rel_cols = []
        for g in _radical_generator_indices(B):
            xs, ys = _all_pairs(m.right_action[g], every_y)
            xs0, ys0 = _all_pairs(every_x, n.left_action[g])
            rel_cols.append(self._model_coords(xs, ys) - self._model_coords(xs0, ys0))
        model_dim = sum(mb.cols * nb.cols for mb, nb in zip(self._mblocks, self._nblocks))
        R, pivots = Matrix.stack_columns(field, rel_cols, model_dim).transpose().rref()
        self._pivots = list(pivots)
        pivot_set = set(pivots)
        self._free = [c for c in range(model_dim) if c not in pivot_set]
        self._rel_free = R.submatrix(slice(0, len(pivots)), self._free).transpose()
        self._dim = len(self._free)

        A, C = m.left_algebra, n.right_algebra
        xs, ys = self.monomial_matrices()
        left_action = [self.coords(m.left_action[i] * xs, ys) for i in range(A.dim)]
        right_action = [self.coords(xs, n.right_action[i] * ys) for i in range(C.dim)]
        self._bimodule = Bimodule(A, C, left_action, right_action, self._dim,
                                  label=f"{m.label or 'M'}(x){n.label or 'N'}")

    @property
    def bimodule(self) -> Bimodule:
        return self._bimodule

    def _model_coords(self, xs: Matrix, ys: Matrix) -> Matrix:
        """Coordinates of the classes of xs[:, j] (x) ys[:, j] in the block model."""
        m, n = self.m, self.n
        blocks = []
        for v, (mproj, nproj) in enumerate(zip(self._mprojs, self._nprojs)):
            mc = mproj * (m.right_action[m.right_algebra.vertex_idempotents[v]] * xs)
            nc = nproj * (n.left_action[n.left_algebra.vertex_idempotents[v]] * ys)
            blocks.append(mc.column_kron(nc))
        return Matrix.stack_rows(self.field, blocks, xs.cols)

    def monomial_matrices(self):
        pairs = [_all_pairs(mb, nb) for mb, nb in zip(self._mblocks, self._nblocks)]
        xs = Matrix.stack_columns(self.field, [x for x, _ in pairs], self.m.dim)
        ys = Matrix.stack_columns(self.field, [y for _, y in pairs], self.n.dim)
        # keep only the free coordinates' monomials
        return xs.submatrix(slice(None), self._free), ys.submatrix(slice(None), self._free)

    def coords(self, xs: Matrix, ys: Matrix) -> Matrix:
        # eliminate the pivot coordinates with the relations, keep the free ones
        model = self._model_coords(xs, ys)
        free = model.submatrix(self._free, slice(None))
        if not self._pivots:
            return free
        return free - self._rel_free * model.submatrix(self._pivots, slice(None))


def _all_pairs(xs: Matrix, ys: Matrix) -> tuple[Matrix, Matrix]:
    """Columns x_i and y_j of every pair (i, j), in row-major order of (i, j)."""
    field = xs.field
    return (Matrix(field, np.repeat(xs.arr, ys.cols, axis=1)),
            Matrix(field, np.tile(ys.arr, (1, xs.cols))))


def tensor_over_middle(m: Bimodule, n: Bimodule) -> TensorData:
    """The tensor product m (x)_B n as a bimodule with retained projection.

    Uses the projective-splitting model when m is right-projective
    (every kernel term is) and the generic block quotient otherwise.
    """
    sp = _splitting(m)
    if sp is not None:
        return _SplitTensor(m, n, sp)
    return _QuotientTensor(m, n)
