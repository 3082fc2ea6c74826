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

Composite bimodules record their parts: a direct sum its summands (on
both sides, so its flip is the sum of the flips), a tensor its slots (on
the right only).  Their splittings, vertex blocks and projectivity are
read from the parts' cached ones, which is the same echelon choice with
no row reduction, since every action matrix is block diagonal on the
parts.  The standard summands P(v,w) are shared, one per algebra pair
and vertex pair while any of them is in use, so each is split once and
builds its right dual once; the dual of a sum of them is the sum of their
duals, so the adjoints' terms carry summand records too.

Tensor products m (x)_B n over a middle algebra are built from the
splitting of m, so m must be right-projective; every kernel term is, as
kernels are biprojective.  They come back as TensorData: the bimodule
together with a monomial basis (each basis vector is the class of an
explicit pure tensor) and a bilinear coordinate map, one batched
Matrix.combine_slots over all slots, from which induced maps on tensors
are computed functorially.

A map between bimodules is a plain Matrix, target.dim x source.dim:
hom_space returns them and TensorData.induced takes and returns them.
check_map verifies a hand-built one; the engine trusts those it builds.

All values are immutable and safe to share.  A bimodule may be given its
action lists as zero-argument builders: the first read of left_action or
right_action calls the builder and keeps the list, so terms that only
feed a rank computation never build their action matrices.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebras import Algebra, opposite, scalar_algebra
from .linalg import Matrix


class BimoduleError(Exception):
    """Raised for invalid bimodule data or incompatible operations."""


Actions = list[Matrix] | Callable[[], list[Matrix]]


class Bimodule:
    """A finite-dimensional bimodule given by per-basis action matrices.

    Each action is a list of matrices, one per basis element, or a
    zero-argument function returning that list, called on first read.
    The constructor only checks that the algebras share a field; check()
    verifies the module axioms.
    """

    def __init__(self, left_algebra: Algebra, right_algebra: Algebra,
                 left_action: Actions, right_action: Actions,
                 dim: int, label: str = ""):
        if left_algebra.field != right_algebra.field:
            raise BimoduleError("bimodule algebras must share a field")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.dim = dim
        self._left_action = left_action
        self._right_action = right_action
        self.label = label
        self._cache: dict = {}
        # part records: m is the direct sum of right_parts as a right module,
        # and of summands as a bimodule, in coordinate order (see _sum)
        self.right_parts: list[Bimodule] | None = None
        self.summands: list[Bimodule] | None = None
        self.shared = False  # P(v,w), or a flip or dual of a shared one: keeps its dual

    @property
    def left_action(self) -> list[Matrix]:
        if callable(self._left_action):
            self._left_action = self._left_action()
        return self._left_action

    @property
    def right_action(self) -> list[Matrix]:
        if callable(self._right_action):
            self._right_action = self._right_action()
        return self._right_action

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
        if Matrix.combinations(self.left_action, A.unit)[0] != ident:
            raise BimoduleError("left unit does not act as identity")
        if Matrix.combinations(self.right_action, B.unit)[0] != ident:
            raise BimoduleError("right unit does not act as identity")
        # homomorphism property, checked on generator x basis pairs:
        # products of generators reach every basis element, so this
        # propagates to the whole algebra by induction.  Column j of the
        # left (right) multiplication matrix of g holds the product g a_j
        # (a_j g), so it is the combination of actions that must act as it.
        for g in A.generator_indices:
            Lg = self.left_action[g]
            products = Matrix.combinations(self.left_action, A.left_mult_matrix(g))
            if any(prod != Lg * Lj for prod, Lj in zip(products, self.left_action)):
                raise BimoduleError("left action is not a homomorphism")
        for g in B.generator_indices:
            Rg = self.right_action[g]
            products = Matrix.combinations(self.right_action, B.right_mult_matrix(g))
            if any(prod != Rg * Rj for prod, Rj in zip(products, self.right_action)):
                raise BimoduleError("right action is not an anti-homomorphism")
        for g in A.generator_indices:
            for h in B.generator_indices:
                if self.left_action[g] * self.right_action[h] != \
                   self.right_action[h] * self.left_action[g]:
                    raise BimoduleError("left and right actions do not commute")

    # --- action helpers -----------------------------------------------

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
        """Basis of M e_w for the w-th right vertex idempotent; block diagonal
        on the right parts, which give the same pivots."""
        key = ("rb", w_pos)
        if key not in self._cache:
            if self.right_parts:
                self._cache[key] = Matrix.block_diag(
                    self.field, [p.right_block(w_pos) for p in self.right_parts])
            else:
                idem = self.right_algebra.vertex_idempotents[w_pos]
                self._cache[key] = self.right_action[idem].image_basis()
        return self._cache[key]

    def left_block_proj(self, v_pos: int) -> Matrix:
        return flip(self).right_block_proj(v_pos)

    def right_block_proj(self, w_pos: int) -> Matrix:
        key = ("rbp", w_pos)
        if key not in self._cache:
            if self.right_parts:
                self._cache[key] = Matrix.block_diag(
                    self.field, [p.right_block_proj(w_pos) for p in self.right_parts])
            else:
                self._cache[key] = _left_inverse(self.right_block(w_pos))
        return self._cache[key]

    def double_block(self, v_pos: int, w_pos: int) -> Matrix:
        """Basis of e_v M e_w; block diagonal on the summands, like right_block."""
        key = ("db", v_pos, w_pos)
        if key not in self._cache:
            if self.summands:
                self._cache[key] = Matrix.block_diag(
                    self.field, [s.double_block(v_pos, w_pos) for s in self.summands])
            else:
                li = self.left_algebra.vertex_idempotents[v_pos]
                ri = self.right_algebra.vertex_idempotents[w_pos]
                self._cache[key] = (self.left_action[li] * self.right_action[ri]).image_basis()
        return self._cache[key]

    def double_block_proj(self, v_pos: int, w_pos: int) -> Matrix:
        key = ("dbp", v_pos, w_pos)
        if key not in self._cache:
            if self.summands:
                self._cache[key] = Matrix.block_diag(
                    self.field, [s.double_block_proj(v_pos, w_pos) for s in self.summands])
            else:
                self._cache[key] = _left_inverse(self.double_block(v_pos, w_pos))
        return self._cache[key]

    def __repr__(self):
        lbl = self.label or "Bimodule"
        return f"{lbl}({self.left_algebra.name or 'A'},{self.right_algebra.name or 'B'}; dim={self.dim})"


def flip(m: Bimodule) -> Bimodule:
    """m read the other way round: the same action matrices with the sides
    swapped, so an (A,B)-bimodule becomes a (B^op,A^op)-bimodule.

    Cached on m; it satisfies the module axioms exactly when m does.
    Every left-side construction is the right-side one read through flip,
    and the flip of a sum is the sum of the flipped summands.
    """
    if "flip" not in m._cache:
        f = Bimodule(opposite(m.right_algebra), opposite(m.left_algebra),
                     lambda: m.right_action, lambda: m.left_action, m.dim, label=m.label)
        if m.summands:
            f.summands = f.right_parts = [flip(s) for s in m.summands]
        f.shared = m.shared
        m._cache["flip"] = f
    return m._cache["flip"]


def _right_view(m: Bimodule, side: str) -> Bimodule:
    """m itself for side "right", its flip for side "left"."""
    if side not in ("left", "right"):
        raise BimoduleError("side must be 'left' or 'right'")
    return m if side == "right" else flip(m)


def _stacked_left(m: Bimodule) -> Matrix:
    """The left action matrices of m stacked top to bottom, built once per m."""
    if "stacked_left" not in m._cache:
        m._cache["stacked_left"] = Matrix.stack_rows(m.field, m.left_action, m.dim)
    return m._cache["stacked_left"]


def _act(actions: list[Matrix], coeffs: Matrix, xs: Matrix) -> Matrix:
    """Column j is sum_i coeffs[i, j] actions[i] xs[:, j]."""
    stacked = Matrix.stack_rows(xs.field, actions, xs.rows)
    return (stacked * xs).combine_blocks(coeffs)


def _left_inverse(m: Matrix) -> Matrix:
    """X with X m = I for a matrix of full column rank."""
    if m.cols == 0:
        return Matrix.zeros(m.field, 0, m.rows)
    x = m.transpose().solve(Matrix.identity(m.field, m.cols))
    if x is None:
        raise BimoduleError("matrix does not have full column rank")
    return x.transpose()


def check_map(source: Bimodule, target: Bimodule, matrix: Matrix):
    """Raise BimoduleError unless matrix is a map source -> target (of shape
    target.dim x source.dim) that intertwines both actions."""
    if matrix.rows != target.dim or matrix.cols != source.dim:
        raise BimoduleError(
            f"map matrix is {matrix.rows}x{matrix.cols}, expected "
            f"{target.dim}x{source.dim}")
    if source.left_algebra is not target.left_algebra and \
       source.left_algebra.mult != target.left_algebra.mult:
        raise BimoduleError("left algebras differ")
    for g in source.left_algebra.generator_indices:
        if matrix * source.left_action[g] != target.left_action[g] * matrix:
            raise BimoduleError("map does not intertwine the left action")
    if source.right_algebra is not target.right_algebra and \
       source.right_algebra.mult != target.right_algebra.mult:
        raise BimoduleError("right algebras differ")
    for g in source.right_algebra.generator_indices:
        if matrix * source.right_action[g] != target.right_action[g] * matrix:
            raise BimoduleError("map does not intertwine the right action")


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------


def regular_bimodule(a: Algebra) -> Bimodule:
    """The algebra as a bimodule over itself (the diagonal kernel's term)."""
    left = [a.left_mult_matrix(i) for i in range(a.dim)]
    right = [a.right_mult_matrix(i) for i in range(a.dim)]
    return Bimodule(a, a, left, right, a.dim, label=a.name or "A")


# the standard summands in use, held weakly and keyed by the ids of their
# algebras (which each summand keeps alive), so none outlives its last use
_projectives: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def projective_bimodule(a: Algebra, v_pos: int, b: Algebra, w_pos: int) -> Bimodule:
    """The standard biprojective summand  A e_v (x) e_w B, one shared object
    per (a, v, b, w) while any reference to it lives."""
    key = (id(a), v_pos, id(b), w_pos)
    if (m := _projectives.get(key)) is not None:
        return m
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
    m = _projectives[key] = Bimodule(a, b, left, right, p * q, label=f"P({v_pos},{w_pos})")
    m.shared = True
    return m


def _diagonal(field, parts: list[Bimodule], side: str, count: int) -> Callable[[], list[Matrix]]:
    """Builder of the block diagonal action matrices of the parts on one side."""
    return lambda: [Matrix.block_diag(field, [getattr(p, side)[i] for p in parts])
                    for i in range(count)]


def _sum(summands: list[Bimodule], label: str) -> Bimodule:
    """The direct sum of the summands, which share their algebras, with its
    part records; both actions are block diagonal."""
    a, b = summands[0].left_algebra, summands[0].right_algebra
    out = Bimodule(a, b, _diagonal(a.field, summands, "left_action", a.dim),
                   _diagonal(a.field, summands, "right_action", b.dim),
                   sum(m.dim for m in summands), label=label)
    out.summands = out.right_parts = [m for m in summands if m.dim]
    return out


def direct_sum(summands: list[Bimodule]) -> Bimodule:
    """The direct sum of a nonempty list of bimodules over the same algebras,
    their coordinates in order.  It records its summands, so its splittings
    and vertex blocks are assembled from theirs; the inclusion and
    projection of summand k are the column and row slices of the identity
    at the summand's coordinates."""
    if not summands:
        raise BimoduleError("empty direct sum")
    return _sum(summands, "(+)".join(m.label or "?" for m in summands))


# ---------------------------------------------------------------------------
# hom spaces (one equation per arrow and vertex block)
# ---------------------------------------------------------------------------


def _arrow_ends(alg: Algebra, a: int) -> tuple[int, int]:
    """The positions s and t of the vertex idempotents with e_s a = a = a e_t,
    for an arrow a of alg: a runs from s to t (from t to s in opposite(alg))."""
    idems = alg.vertex_idempotents
    return (next(s for s, e in enumerate(idems) if alg.mult[e][a]),
            next(t for t, e in enumerate(idems) if alg.mult[a][e]))


def hom_space(m: Bimodule, n: Bimodule) -> list[Matrix]:
    """Basis of the space of bimodule maps m -> n (equivariant on both sides).

    The algebras on each side must agree.  A map is block diagonal on the
    vertex blocks e_v m e_w -> e_v n e_w, one unknown matrix F_(v,w) each,
    and the idempotents commute with it for free.  An arrow a: s -> t of
    the left algebra moves block (t, w) of either module into block (s, w),
    and an arrow of the right algebra from s to t moves (v, s) into (v, t).
    So each arrow and vertex of the other side gives one equation
    F_tgt m_a = n_a F_src, with m_a and n_a the arrow's action read in the
    block bases; the basis is the canonical nullspace of these equations,
    the unknowns in block order.  A one-sided hom is the two-sided hom of
    the restrictions to scalars on the other side.
    """
    A, B = m.left_algebra, m.right_algebra
    if A.mult != n.left_algebra.mult:
        raise BimoduleError("left algebras differ")
    if B.mult != n.right_algebra.mult:
        raise BimoduleError("right algebras differ")
    field = m.field
    if m.dim == 0 or n.dim == 0:
        return []

    nv, nw = len(A.vertex_idempotents), len(B.vertex_idempotents)
    blocks = [(v, w) for v in range(nv) for w in range(nw)]
    sizes = {bl: (n.double_block(*bl).cols, m.double_block(*bl).cols) for bl in blocks}
    ends = np.cumsum([0] + [nb * mb for nb, mb in sizes.values()])
    offsets, total = dict(zip(blocks, ends)), int(ends[-1])

    # (action on m, action on n, block moved from, block moved into)
    moves = [(m.left_action[a], n.left_action[a], (t, w), (s, w))
             for a in A.arrow_indices for s, t in [_arrow_ends(A, a)] for w in range(nw)] + \
            [(m.right_action[b], n.right_action[b], (v, s), (v, t))
             for b in B.arrow_indices for s, t in [_arrow_ends(B, b)] for v in range(nv)]
    rows: list[Matrix] = []
    for Lm, Ln, src, tgt in moves:
        nb_t, mb_s = sizes[tgt][0], sizes[src][1]
        if nb_t * mb_s == 0:
            continue
        m_a = m.double_block_proj(*tgt) * Lm * m.double_block(*src)
        n_a = n.double_block_proj(*tgt) * Ln * n.double_block(*src)
        # vec_rm(F_tgt m_a) = (I (x) m_a^T) vec_rm(F_tgt), minus
        # vec_rm(n_a F_src) = (n_a (x) I) vec_rm(F_src), summed for a loop
        terms = [(tgt, Matrix.identity(field, nb_t).kron(m_a.transpose())),
                 (src, n_a.scale(-1).kron(Matrix.identity(field, mb_s)))]
        if src == tgt:
            terms = [(src, terms[0][1] + terms[1][1])]
        rows.append(Matrix.from_blocks(field, nb_t * mb_s, total,
                                       [(0, offsets[bl], t) for bl, t in terms]))

    null = Matrix.stack_rows(field, rows, total).nullspace()
    # map j is the sum over blocks of basis_n F_bl proj_m, with F_bl read off
    # null column j: one product through the block diagonal of the F_bl
    bases = Matrix.stack_columns(field, [n.double_block(*bl) for bl in blocks], n.dim)
    projs = Matrix.stack_rows(field, [m.double_block_proj(*bl) for bl in blocks], m.dim)
    return [bases * Matrix.block_diag(field, [
        null.submatrix(slice(offsets[bl], offsets[bl] + nb * mb), slice(j, j + 1)).reshape(nb, mb)
        for bl, (nb, mb) in sizes.items()]) * projs for j in range(null.cols)]


# ---------------------------------------------------------------------------
# projective splittings
# ---------------------------------------------------------------------------


@dataclass
class Splitting:
    """Identification of a right-projective module with ideal summands:
    M = (+)_t  e_{v_t} B  via phi(slot t: g) = p_t . g.

    slot_coords[t] is c_t : M -> B, x |-> the slot-t component of
    phi^-1(x) in e_{v_t} B, written in the basis of B; the dual and the
    tensor product both read the splitting through these maps.  The
    left-side splitting of M is the splitting of flip(M).
    """

    gens: list[Matrix]
    vertex_pos: list[int]
    phi: Matrix
    slot_coords: list[Matrix]


def _slot_dims(alg: Algebra, vertex_pos: list[int]) -> list[int]:
    """The dimensions of the ideals e_v B of alg, for v in vertex_pos."""
    dims = [alg.right_ideal_basis(e).cols for e in alg.vertex_idempotents]
    return [dims[v] for v in vertex_pos]


def _cover(m: Bimodule) -> tuple[list[Matrix], list[int], list[int]]:
    """Generators of m modulo m.rad, by echelon choice from the vertex blocks
    m e_v, with their vertices and the dimensions of their slots e_v B.

    The pivots come from one rref of [m.rad | m e_0 | m e_1 | ...]: a column
    is a pivot when the columns before it do not span it, so spanning
    m.rad by all the radical action columns picks the same generators."""
    field = m.field
    alg = m.right_algebra
    if m.dim == 0:
        return [], [], []
    rad = Matrix.stack_columns(field, [m.right_action[r] for r in alg.radical_basis], m.dim)
    blocks = [m.right_block(v_pos) for v_pos in range(len(alg.vertex_idempotents))]
    cand_meta = [v_pos for v_pos, blk in enumerate(blocks) for _ in range(blk.cols)]
    stacked = Matrix.stack_columns(field, [rad] + blocks, m.dim)
    picked = [p for p in stacked.rref()[1] if p >= rad.cols]
    vertex_pos = [cand_meta[p - rad.cols] for p in picked]
    return [stacked.column_vec(p) for p in picked], vertex_pos, _slot_dims(alg, vertex_pos)


def _splitting(m: Bimodule) -> Splitting | None:
    """The right-projective splitting of m, or None when m is not right-projective.

    A bimodule with right parts assembles it from theirs, with no elimination."""
    if "split" not in m._cache:
        m._cache["split"] = _assembled_splitting(m) if m.right_parts else _fresh_splitting(m)
    return m._cache["split"]


def _fresh_splitting(m: Bimodule) -> Splitting | None:
    gens, vertex_pos, slot_dims = _cover(m)
    if sum(slot_dims) != m.dim:
        return None
    # phi: free module -> M, slot t: g |-> p_t.g; one solve decides invertibility
    alg = m.right_algebra
    ideals = [alg.right_ideal_basis(alg.vertex_idempotents[v_pos]) for v_pos in vertex_pos]
    cols = [m.right_act(Matrix.stack_columns(m.field, [g] * ideal.cols, m.dim), ideal)
            for g, ideal in zip(gens, ideals)]
    phi = Matrix.stack_columns(m.field, cols, m.dim)
    phi_inv = phi.solve(Matrix.identity(m.field, m.dim))
    if phi_inv is None:
        return None
    ends = np.cumsum([0] + slot_dims)
    slot_coords = [ideal * phi_inv.submatrix(slice(ends[t], ends[t + 1]), slice(0, m.dim))
                   for t, ideal in enumerate(ideals)]
    return Splitting(gens, vertex_pos, phi, slot_coords)


def _assembled_splitting(m: Bimodule) -> Splitting | None:
    """The splitting of m read off its right parts' splittings.

    Every column of a block diagonal matrix lies in one block, so _cover's
    first-pivot choice on m splits into one choice per part: the same
    generators, ordered by vertex, then part, then position in the part.
    phi is block diagonal up to that order of its slots, and phi^-1 too."""
    parts = m.right_parts
    splits = [_splitting(p) for p in parts]
    if any(sp is None for sp in splits):
        return None
    offsets = np.cumsum([0] + [p.dim for p in parts])
    slot_starts = [offsets[i] + np.cumsum([0] + _slot_dims(m.right_algebra, sp.vertex_pos))
                   for i, sp in enumerate(splits)]
    order = sorted((v, i, k) for i, sp in enumerate(splits) for k, v in enumerate(sp.vertex_pos))
    phi_cols = [c for _, i, k in order for c in range(slot_starts[i][k], slot_starts[i][k + 1])]
    return Splitting(
        [splits[i].gens[k].pad_rows(offsets[i], m.dim) for _, i, k in order],
        [v for v, _, _ in order],
        Matrix.block_diag(m.field, [sp.phi for sp in splits]).submatrix(slice(None), phi_cols),
        [Matrix.from_blocks(m.field, c.rows, m.dim, [(0, offsets[i], c)])
         for _, i, k in order for c in [splits[i].slot_coords[k]]])


def is_projective(m: Bimodule, side: str) -> bool:
    """Projectivity over one side, decided by the projective cover dimension:
    a bimodule with right parts is projective when every part is."""
    m = _right_view(m, side)
    if m.right_parts:
        return all(is_projective(p, "right") for p in m.right_parts)
    return _splitting(m) is not None


def right_multiplicities(m: Bimodule) -> np.ndarray | None:
    """Entry (u, w) is the multiplicity of e_w B in e_u m, for the vertices u
    of the left and w of the right algebra, as Python ints; None when m is
    not right-projective.  Cached on m; a sum adds its summands'.

    The multiplicity is dim e_u (m / m.rad) e_w, the top of e_u m at w.  The
    projective cover with these multiplicities maps onto e_u m (Nakayama),
    so m is right-projective exactly when the covers' dimensions add up to
    m.dim.  Each entry is one rank: e_u m e_w is a cached vertex block, and
    e_u m.rad is spanned by the radical's actions on the image of e_u."""
    if "mult" not in m._cache:
        if m.summands:
            parts = [right_multiplicities(s) for s in m.summands]
            m._cache["mult"] = None if any(p is None for p in parts) else sum(parts)
        else:
            m._cache["mult"] = _fresh_multiplicities(m)
    return m._cache["mult"]


def _fresh_multiplicities(m: Bimodule) -> np.ndarray | None:
    A, B, field = m.left_algebra, m.right_algebra, m.field
    out = np.zeros((len(A.vertex_idempotents), len(B.vertex_idempotents)), dtype=object)
    for u, e in enumerate(A.vertex_idempotents):
        rad = Matrix.stack_columns(field, [m.right_action[r] * m.left_action[e]
                                           for r in B.radical_basis], m.dim)
        for w, f in enumerate(B.vertex_idempotents):
            out[u, w] = m.double_block(u, w).cols - (m.right_action[f] * rad).rank()
    covers = out @ np.array(_slot_dims(B, range(len(B.vertex_idempotents))), dtype=object)
    return out if sum(covers) == m.dim else None


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
            f"{sum(_cover(_right_view(p, side))[2])} != dim {p.dim})")


@dataclass
class _DualSlot:
    """The tables of B e_v that right_dual reads, built once per (B, v)."""

    basis: Matrix              # G: columns spanning B e_v in the basis of B
    proj: Matrix               # the left inverse of G
    mults: Matrix              # left multiplication matrices of G's columns, stacked
    left_action: list[Matrix]  # b_i acting on B e_v, in the basis G
    unit: Matrix               # e_v in the basis G


def _dual_slot(B: Algebra, v_pos: int) -> _DualSlot:
    key = ("slot", v_pos)
    if key not in B._dual_tables:
        G = B.left_ideal_basis(B.vertex_idempotents[v_pos])
        proj = _left_inverse(G)
        mults = Matrix.combinations([B.left_mult_matrix(i) for i in range(B.dim)], G)
        B._dual_tables[key] = _DualSlot(
            G, proj, Matrix.stack_rows(B.field, mults, B.dim),
            [proj * (B.left_mult_matrix(i) * G) for i in range(B.dim)],
            proj * Matrix.basis_vector(B.field, B.dim, B.vertex_idempotents[v_pos]))
    return B._dual_tables[key]


def _move_table(B: Algebra, s_pos: int, t_pos: int) -> Matrix:
    """Column k is vec(proj_s R_k G_t), G_t spanning B e_t and proj_s the
    left inverse of G_s: beta |-> beta.c maps B e_t to B e_s by this table
    applied to the coordinates of c."""
    key = ("move", s_pos, t_pos)
    if key not in B._dual_tables:
        proj, G = _dual_slot(B, s_pos).proj, _dual_slot(B, t_pos).basis
        moved = [proj * (B.right_mult_matrix(k) * G) for k in range(B.dim)]
        B._dual_tables[key] = Matrix.stack_columns(
            B.field, [m.reshape(m.rows * m.cols, 1) for m in moved], proj.rows * G.cols)
    return B._dual_tables[key]


def right_dual(p: Bimodule) -> DualData:
    """Maps into the right algebra: an (A,B)-bimodule yields a (B,A)-bimodule.

    A shared bimodule builds its dual once and keeps it, and a sum of shared
    summands whose generators each lie at one vertex assembles its dual from
    theirs (_dual_of_sum); any other bimodule builds it from its splitting."""
    _require_projective(p, "right")
    if p.shared:
        return p._cache.get("rdual") or p._cache.setdefault("rdual", _fresh_dual(p))
    if p.summands and all(s.shared and len(set(_splitting(s).vertex_pos)) == 1
                          for s in p.summands):
        return _dual_of_sum(p)
    return _fresh_dual(p)


def _dual_of_sum(p: Bimodule) -> DualData:
    """The right dual of a sum of shared summands, each with its generators
    at one vertex: the sum of their duals, in the order of the sum's
    splitting (by vertex, then summand: see _assembled_splitting), with
    each hom matrix, generator and cogenerator at its summand's place."""
    parts = p.summands
    offsets = np.cumsum([0] + [s.dim for s in parts])
    order = sorted(range(len(parts)), key=lambda i: _splitting(parts[i]).vertex_pos[0])
    duals = [right_dual(parts[i]) for i in order]
    ends = np.cumsum([0] + [dd.bimodule.dim for dd in duals])
    dual = _sum([dd.bimodule for dd in duals], f"{p.label or 'P'}^v")
    homs, gens, cogens = [], [], []
    for i, dd, end in zip(order, duals, ends):
        homs += [Matrix.from_blocks(p.field, h.rows, p.dim, [(0, offsets[i], h)])
                 for h in dd.hom_matrices]
        gens += [g.pad_rows(offsets[i], p.dim) for g in dd.generators]
        cogens += [c.pad_rows(end, dual.dim) for c in dd.cogenerators]
    return DualData(dual, homs, gens, cogens)


def _fresh_dual(p: Bimodule) -> DualData:
    """The right dual read off the splitting of p.

    Slot t of the dual is B e_{v_t}; a in A sends beta in slot t to
    beta.c_t(a.g_s) in slot s, read off the move table for every a at once."""
    sp = _splitting(p)
    A, B = p.left_algebra, p.right_algebra
    field, S = p.field, len(sp.gens)
    slots = [_dual_slot(B, v_pos) for v_pos in sp.vertex_pos]
    ends = np.cumsum([0] + [slot.basis.cols for slot in slots])
    dual_dim = int(ends[-1])

    hom_matrices = []
    for slot, coords in zip(slots, sp.slot_coords):
        homs = slot.mults * coords
        hom_matrices += [homs.submatrix(slice(j * B.dim, (j + 1) * B.dim), slice(None))
                         for j in range(slot.basis.cols)]
    left_action = [Matrix.block_diag(field, [slot.left_action[i] for slot in slots])
                   for i in range(B.dim)]

    # c_t(a_i.g_s) for every t, s and i: row block t, column s * A.dim + i
    moved = _stacked_left(p) * Matrix.stack_columns(field, sp.gens, p.dim)
    moved = moved.reshape(A.dim, p.dim * S).transpose().reshape(p.dim, S * A.dim)
    coeffs = Matrix.stack_rows(field, sp.slot_coords, p.dim) * moved
    # every right action stacked, slot by slot: rows A.dim * ends[s] + i * size_s + k
    # hold row ends[s] + k of the action of a_i
    blocks = []
    for s in range(S):
        for t in range(S):
            c_ts = coeffs.submatrix(slice(t * B.dim, (t + 1) * B.dim),
                                    slice(s * A.dim, (s + 1) * A.dim))
            if not c_ts.is_zero():
                block = _move_table(B, sp.vertex_pos[s], sp.vertex_pos[t]) * c_ts
                blocks.append((A.dim * ends[s], ends[t], block.transpose().reshape(
                    A.dim * (ends[s + 1] - ends[s]), ends[t + 1] - ends[t])))
    stacked = Matrix.from_blocks(field, A.dim * dual_dim, dual_dim, blocks)
    sizes = np.diff(ends)
    right_action = [stacked.submatrix([A.dim * ends[s] + i * sizes[s] + k for s in range(S)
                                       for k in range(sizes[s])], slice(None))
                    for i in range(A.dim)]

    dual = Bimodule(B, A, left_action, right_action, dual_dim,
                    label=f"{p.label or 'P'}^v")
    dual.shared = p.shared
    cogens = [slot.unit.pad_rows(int(ends[t]), dual_dim) for t, slot in enumerate(slots)]
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
    """m (x)_B n through the right-projective splitting of m.

    With m = (+)_t p_t.e_{v_t}B, the tensor is (+)_t p_t (x) e_{v_t}n: in
    slot t, x (x) y has the coordinates of c_t(x).y in e_{v_t}n, where
    c_t(x) in e_{v_t}B is the slot-t component of phi^-1(x).

    Each basis vector of the resulting bimodule is the class of a pure
    tensor p_t (x) y_j; monomial_matrices() returns these factors as the
    columns of two matrices.  coords(X, Y) expresses the pure tensors
    X[:, j] (x) Y[:, j] in that basis, all columns at once, and induced()
    transports a pair of equivariant maps to a map of tensor products
    with one such call.

    As a right module the tensor is the sum of its slots e_{v_t}n, so its
    right parts are the slot parts of n (see _slot_part); the left action
    mixes the slots, so it has no summands.
    """

    def __init__(self, m: Bimodule, n: Bimodule, sp: Splitting):
        self.m = m
        self.n = n
        self.field = m.field
        self.sp = sp
        self._nblocks = [n.left_block(v_pos) for v_pos in sp.vertex_pos]
        self._nprojs = [n.left_block_proj(v_pos) for v_pos in sp.vertex_pos]
        self._dim = sum(blk.cols for blk in self._nblocks)
        self._monomials = None
        slots = [_slot_part(n, v_pos) for v_pos in sp.vertex_pos]
        self.bimodule = Bimodule(m.left_algebra, n.right_algebra, self._build_left_action,
                                 _diagonal(self.field, slots, "right_action", n.right_algebra.dim),
                                 self._dim, label=f"{m.label or 'M'}(x){n.label or 'N'}")
        self.bimodule.right_parts = [part for part in slots if part.dim]

    def induced(self, f: Matrix | None, g: Matrix | None, target: "TensorData") -> Matrix:
        """The matrix of f (x) g between tensor products (f, g equivariant);
        None stands for the identity of a factor that self and target share."""
        xs, ys = self.monomial_matrices()
        return target.coords(xs if f is None else f * xs, ys if g is None else g * ys)

    def _build_left_action(self) -> list[Matrix]:
        """The left action of A: a.(p_t (x) y) = (a.p_t) (x) y, for every
        basis element a and monomial at once."""
        field, m, dim = self.field, self.m, self.m.left_algebra.dim
        gens = Matrix.stack_columns(field, self.sp.gens, m.dim)
        moved = Matrix.stack_columns(field, [m.left_action[i] * gens for i in range(dim)], m.dim)
        acted = self._acted(self.monomial_matrices()[1])
        every = Matrix.stack_columns(field, [acted] * dim, acted.rows).combine_slots(
            self._per_monomial(self._stacked_coords * moved), self._nprojs)
        return [every.submatrix(slice(None), slice(i * self._dim, (i + 1) * self._dim))
                for i in range(dim)]

    def monomial_matrices(self) -> tuple[Matrix, Matrix]:
        if self._monomials is None:
            gens = Matrix.stack_columns(self.field, self.sp.gens, self.m.dim)
            self._monomials = (self._per_monomial(gens),
                               Matrix.stack_columns(self.field, self._nblocks, self.n.dim))
        return self._monomials

    def _per_monomial(self, per_slot: Matrix) -> Matrix:
        """Column t of per_slot repeated once for each monomial of slot t
        (columns t + k * #slots likewise, for several runs of slots)."""
        counts = [blk.cols for blk in self._nblocks]
        runs = per_slot.cols // len(counts) if counts else 0
        return per_slot.submatrix(slice(None), np.repeat(np.arange(per_slot.cols), counts * runs))

    def coords(self, xs: Matrix, ys: Matrix) -> Matrix:
        """Slot t of x_j (x) y_j is the projection onto e_{v_t}n of
        sum_i c_t(x_j)_i b_i.y_j: every slot and column in one combine_slots."""
        return self._acted(ys).combine_slots(self._stacked_coords * xs, self._nprojs)

    @cached_property
    def _stacked_coords(self) -> Matrix:
        """The slot coordinate maps c_t stacked top to bottom."""
        return Matrix.stack_rows(self.field, self.sp.slot_coords, self.m.dim)

    def _acted(self, ys: Matrix) -> Matrix:
        """b_i . y for every basis element b_i of B, stacked by i."""
        return _stacked_left(self.n) * ys


def _slot_part(n: Bimodule, v_pos: int) -> Bimodule:
    """e_v n as a (k, C)-bimodule in the basis n.left_block(v): the slot of
    a tensor m (x) n at a generator of m at vertex v.  Built once per (n, v),
    so its splitting is too; for a sum n it is the sum of the summands'."""
    key = ("slot", v_pos)
    if key not in n._cache:
        if n.summands:
            part = _sum([_slot_part(s, v_pos) for s in n.summands], n.label)
        else:
            blk, proj = n.left_block(v_pos), n.left_block_proj(v_pos)
            part = Bimodule(scalar_algebra(n.field), n.right_algebra,
                            [Matrix.identity(n.field, blk.cols)],
                            lambda: [proj * (a * blk) for a in n.right_action],
                            blk.cols, label=n.label)
        n._cache[key] = part
    return n._cache[key]


def tensor_over_middle(m: Bimodule, n: Bimodule) -> TensorData:
    """The tensor product m (x)_B n, as TensorData.

    m must be right-projective, so that it splits; every kernel term is,
    since kernels are biprojective.
    """
    if m.right_algebra.mult != n.left_algebra.mult:
        raise BimoduleError("tensor factors do not share the middle algebra")
    sp = _splitting(m)
    if sp is None:
        raise BimoduleError(
            f"tensor_over_middle needs a right-projective left factor (cover dim "
            f"{sum(_cover(m)[2])} != dim {m.dim})")
    return TensorData(m, n, sp)
