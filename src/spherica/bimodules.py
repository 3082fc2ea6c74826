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

Composite bimodules record the pieces they are the direct sum of: each
piece is a leaf bimodule with the increasing array of the coordinates it
sits at.  Leaves are given their action matrices; a composite scatters
its pieces' to their coordinates on first read.  Three constructions
make records: a direct sum, whose pieces sit at consecutive ranges; a
tensor m (x)_B n, the pieces of one pair tensor m_i (x) n_j per pair of
pieces, whose coordinates interleave; and a right dual, the sum of its
pieces' duals.  A cut of a minimal model keeps the records it holds
whole.  A sum built from records that is one piece at every coordinate
is that piece.  Vertex blocks, splittings, multiplicities, coordinate
blocks and duals are read off the pieces' kept ones, which is the same
echelon choice with no row reduction; leaves alone build them from
scratch.  The standard summands
P(v,w) = Ae_v (x) e_wB are shared per algebra and the diagonal A per
algebra (complexes.unit_complex), so each splits and builds its dual
once.  A pair tensor of standard summands, and of the kept duals of
standard summands, is recorded as a sum of standard summands again, so
tensors of kernel terms need no action matrix to be split, dualised or
cut.

Tensor products m (x)_B n over a middle algebra are built from the
splitting of m, so m must be right-projective; every kernel term is, as
kernels are biprojective.  They come back as TensorData: the bimodule
together with a monomial basis (each basis vector is the class of an
explicit pure tensor) and a bilinear coordinate map, one batched
Matrix.combine_slots over all slots, from which induced maps on tensors
are computed functorially.  This split model gives coordinates only; the
tensor's actions are its records'.

A map between bimodules is a plain Matrix, target.dim x source.dim:
hom_space returns them and TensorData.induced takes and returns them.
check_map verifies a hand-built one; the engine trusts those it builds.

All values are immutable and safe to share.  What a bimodule derives
(vertex blocks, splitting, multiplicities, coordinate blocks, its flip, a
leaf's dual) is kept in its _cache, and what an algebra's bimodules
share (standard summands, dual slots) in the algebra's _tables, both
through linalg.kept on the first read.  A bimodule may be given its
action lists and its records as zero-argument builders: the first read
calls the builder, or scatters the pieces' actions, and keeps the list,
so terms that only feed a rank computation never build their action
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebras import Algebra, opposite, scalar_algebra
from .linalg import Matrix, kept


class BimoduleError(Exception):
    """Raised for invalid bimodule data or incompatible operations."""


Actions = list[Matrix] | Callable[[], list[Matrix]] | None
# a piece of a bimodule and the increasing array of the coordinates it sits at
Record = tuple["Bimodule", np.ndarray]
Records = list[Record] | Callable[[], list[Record]]


class Bimodule:
    """A finite-dimensional bimodule given by per-basis action matrices.

    Each action is a list of matrices, one per basis element, or a
    zero-argument function returning that list, called on first read;
    the records likewise (see records).  A bimodule with records may be
    given None for its actions: the first read scatters its pieces'.  The
    constructor only checks that the algebras share a field; check()
    verifies the module axioms.
    """

    def __init__(self, left_algebra: Algebra, right_algebra: Algebra,
                 left_action: Actions, right_action: Actions,
                 dim: int, label: str = "", records: Records | None = None):
        if left_algebra.field != right_algebra.field:
            raise BimoduleError("bimodule algebras must share a field")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.dim = dim
        self._left_action = left_action
        self._right_action = right_action
        self._records = records
        self.label = label
        # read off the actions and kept from the first read: blocks, splitting, a leaf's dual
        self._cache: dict = {}
        self.diagonal = False  # the regular bimodule of its algebra

    @property
    def left_action(self) -> list[Matrix]:
        if not isinstance(self._left_action, list):
            self._left_action = self._built(self._left_action, "left_action", self.left_algebra)
        return self._left_action

    @property
    def right_action(self) -> list[Matrix]:
        if not isinstance(self._right_action, list):
            self._right_action = self._built(self._right_action, "right_action", self.right_algebra)
        return self._right_action

    def _built(self, builder, side: str, alg: Algebra) -> list[Matrix]:
        """What builder returns, or for None the pieces' actions on one side
        scattered to their coordinates."""
        if builder is not None:
            return builder()
        return [Matrix.from_blocks(self.field, self.dim, self.dim, [
            (idx, idx, getattr(p, side)[i]) for p, idx in self.records]) for i in range(alg.dim)]

    @property
    def records(self) -> list[Record] | None:
        """The leaf pieces this bimodule is the direct sum of, each with the
        increasing array of its coordinates, or None for a leaf.  Every
        action matrix restricted to a piece's coordinates is the piece's,
        and it has no entry between two pieces."""
        if callable(self._records):
            self._records = self._records()
        return self._records

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

    # --- vertex blocks (kept) ------------------------------------------

    def left_block(self, v_pos: int) -> Matrix:
        """Basis of e_v M for the v-th left vertex idempotent."""
        return flip(self).right_block(v_pos)

    def right_block(self, w_pos: int) -> Matrix:
        """Basis of M e_w for the w-th right vertex idempotent."""
        return self._block(("r", w_pos))[0]

    def left_block_proj(self, v_pos: int) -> Matrix:
        return flip(self).right_block_proj(v_pos)

    def right_block_proj(self, w_pos: int) -> Matrix:
        return self._block_proj(("r", w_pos))

    def double_block(self, v_pos: int, w_pos: int) -> Matrix:
        """Basis of e_v M e_w."""
        return self._block(("d", v_pos, w_pos))[0]

    def double_block_proj(self, v_pos: int, w_pos: int) -> Matrix:
        return self._block_proj(("d", v_pos, w_pos))

    def _block(self, key) -> tuple[Matrix, np.ndarray, list[np.ndarray] | None]:
        """(basis, pivots, places) of the vertex block ("r", w), M e_w, or
        ("d", v, w), e_v M e_w: the basis is the pivot columns of the
        idempotents' action, which are at pivots.

        With records it is read off the pieces: a column is a pivot exactly
        when it is one in its piece, as the action is block diagonal on the
        pieces' increasing coordinates.  So the basis is the pieces' bases
        scattered to their coordinates, columns in the order of their
        pivots, and places[k] lists the columns that piece k's go to."""
        def build():
            if not self.records:
                act = self.right_action[self.right_algebra.vertex_idempotents[key[-1]]]
                if key[0] == "d":
                    act = self.left_action[self.left_algebra.vertex_idempotents[key[1]]] * act
                pivots = list(act.rref()[1])
                return act.submatrix(slice(None), pivots), np.array(pivots, dtype=int), None
            parts = [p._block(key) for p, _ in self.records]
            pivots = np.concatenate([idx[piv] for (_, idx), (_, piv, _) in
                                     zip(self.records, parts)])
            rank = np.empty(len(pivots), dtype=int)
            rank[np.argsort(pivots)] = np.arange(len(pivots))
            ends = np.cumsum([0] + [len(piv) for _, piv, _ in parts])
            places = [rank[s:e] for s, e in zip(ends, ends[1:])]
            basis = Matrix.from_blocks(self.field, self.dim, len(pivots), [
                (idx, pl, b) for (_, idx), (b, _, _), pl in zip(self.records, parts, places)])
            return basis, np.sort(pivots), places
        return kept(self._cache, key, build)

    def _block_proj(self, key) -> Matrix:
        """The left inverse of the basis of _block(key); the pieces' scattered."""
        def build():
            basis, _, places = self._block(key)
            if not self.records:
                return _left_inverse(basis)
            return Matrix.from_blocks(self.field, basis.cols, self.dim, [
                (pl, idx, p._block_proj(key)) for (p, idx), pl in zip(self.records, places)])
        return kept(self._cache, ("proj",) + key, build)

    def __repr__(self):
        lbl = self.label or "Bimodule"
        return f"{lbl}({self.left_algebra.name or 'A'},{self.right_algebra.name or 'B'}; dim={self.dim})"


def flip(m: Bimodule) -> Bimodule:
    """m read the other way round: the same action matrices with the sides
    swapped, so an (A,B)-bimodule becomes a (B^op,A^op)-bimodule.

    Kept on m; it satisfies the module axioms exactly when m does.
    Every left-side construction is the right-side one read through flip,
    and the flip of a bimodule with records has the flipped pieces at the
    same coordinates.
    """
    return kept(m._cache, "flip", lambda: Bimodule(
        opposite(m.right_algebra), opposite(m.left_algebra),
        lambda: m.right_action, lambda: m.left_action, m.dim, label=m.label,
        records=lambda: m.records and [(flip(p), idx) for p, idx in m.records]))


def _right_view(m: Bimodule, side: str) -> Bimodule:
    """m itself for side "right", its flip for side "left"."""
    if side not in ("left", "right"):
        raise BimoduleError("side must be 'left' or 'right'")
    return m if side == "right" else flip(m)


def _stacked_left(m: Bimodule) -> Matrix:
    """The left action matrices of m stacked top to bottom, built once per m."""
    return kept(m._cache, "stacked_left", lambda: Matrix.stack_rows(m.field, m.left_action, m.dim))


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
    """The algebra as a bimodule over itself: the diagonal kernel's term,
    built once per algebra by complexes.unit_complex, so it keeps its dual."""
    left = [a.left_mult_matrix(i) for i in range(a.dim)]
    right = [a.right_mult_matrix(i) for i in range(a.dim)]
    m = Bimodule(a, a, left, right, a.dim, label=a.name or "A")
    m.diagonal = True
    return m


def _standard_left(a: Algebra, v_pos: int) -> list[Matrix]:
    """The left action of a on A e_v, in the basis left_ideal_basis; for
    opposite(b) it is the right action of b on e_v B in the basis
    right_ideal_basis."""
    def build():
        S = a.left_ideal_basis(a.vertex_idempotents[v_pos])
        sp = _left_inverse(S)
        return [sp * a.left_mult_matrix(i) * S for i in range(a.dim)]
    return kept(a._tables, ("left", v_pos), build)


def _product(a: Algebra, b: Algebra, left: list[Matrix], right: list[Matrix],
             label: str) -> Bimodule:
    """X (x) Y for a left a-module X and a right b-module Y given by their
    action matrices: x_i (x) y_j at coordinate i dim Y + j.  It is one
    coordinate block when X and Y are."""
    p, q = left[0].rows, right[0].rows
    ip, iq = Matrix.identity(a.field, p), Matrix.identity(a.field, q)
    return Bimodule(a, b, lambda: [x.kron(iq) for x in left], lambda: [ip.kron(y) for y in right],
                    p * q, label=label)


def projective_bimodule(a: Algebra, v_pos: int, b: Algebra, w_pos: int) -> Bimodule:
    """The standard biprojective summand  A e_v (x) e_w B, one shared object
    per (a, v, b, w) kept by b (by a when b is the shared scalar algebra),
    so it splits and builds its dual once for as long as b lives.  It keeps
    a, which therefore lives as long as b."""
    home = a if b is scalar_algebra(b.field) else b
    return kept(home._tables, ("P", id(a), v_pos, id(b), w_pos), lambda: _product(
        a, b, _standard_left(a, v_pos), _standard_left(opposite(b), w_pos), f"P({v_pos},{w_pos})"))


def _standard_vertex(alg: Algebra, mats: list[Matrix]) -> int | None:
    """The vertex v with _standard_left(alg, v) == mats, if there is one."""
    for v in range(len(alg.vertex_idempotents)):
        std = _standard_left(alg, v)
        if std[0].rows == mats[0].rows and std == mats:
            return v
    return None


def _pieces(m: Bimodule) -> list[Record]:
    """m's records, or m itself at all its coordinates for a nonzero leaf."""
    return m.records or ([(m, np.arange(m.dim))] if m.dim else [])


def _recorded(a: Algebra, b: Algebra, records: list[Record], dim: int, label: str) -> Bimodule:
    """The bimodule that is the sum of the records' pieces at their
    coordinates; a piece at every coordinate is its own sum."""
    if len(records) == 1 and len(records[0][1]) == dim:
        return records[0][0]
    return Bimodule(a, b, None, None, dim, label=label, records=records)


def direct_sum(summands: list[Bimodule]) -> Bimodule:
    """The direct sum of a nonempty list of bimodules over the same algebras,
    their coordinates in order; one summand is its own sum.  Its records
    are the summands' pieces, shifted to the summands' ranges; the
    inclusion and projection of summand k are the column and row slices of
    the identity at the summand's coordinates."""
    if not summands:
        raise BimoduleError("empty direct sum")
    if len(summands) == 1:
        return summands[0]
    a, b = summands[0].left_algebra, summands[0].right_algebra

    def records() -> list[Record]:
        out, end = [], 0
        for m in summands:
            out += [(p, idx + end) for p, idx in _pieces(m)]
            end += m.dim
        return out

    return Bimodule(a, b, None, None, sum(m.dim for m in summands),
                    label="(+)".join(m.label or "?" for m in summands), records=records)


def summand(m: Bimodule, keep: np.ndarray) -> Bimodule:
    """The direct summand of m on the increasing coordinates keep, a union
    of coordinate blocks.  It keeps the records that keep holds whole, and
    cuts the pieces it holds in part to leaves."""
    if m.records:
        records = []
        for p, idx in m.records:
            inside = np.isin(idx, keep)
            if inside.all():
                records.append((p, np.searchsorted(keep, idx)))
            elif inside.any():
                records.append((summand(p, np.flatnonzero(inside)),
                                np.searchsorted(keep, idx[inside])))
        return _recorded(m.left_algebra, m.right_algebra, records, len(keep), m.label)
    return Bimodule(m.left_algebra, m.right_algebra,
                    lambda: [_restricted(a, keep) for a in m.left_action],
                    lambda: [_restricted(a, keep) for a in m.right_action],
                    len(keep), label=m.label)


def coordinate_blocks(m: Bimodule) -> list[np.ndarray]:
    """The classes of coordinates joined by a nonzero entry of some action
    matrix, as increasing index arrays in the order of their first
    coordinates: every action is block diagonal on them.  Kept on m.

    With records they are the pieces' blocks at the pieces' coordinates,
    read with no action matrix, and a reordered copy of a leaf (_permuted)
    reads its base's.  Other leaves join the entries of their actions."""
    def build():
        if m.records:
            found = [idx[blk] for p, idx in m.records for blk in coordinate_blocks(p)]
        elif "base" in m._cache:
            base, moved = m._cache["base"]
            found = [np.sort(moved[blk]) for blk in coordinate_blocks(base)]
        else:
            found = _classes(_support(m.left_action + m.right_action))
        return sorted(found, key=lambda blk: blk[0])
    return kept(m._cache, "blocks", build)


def _classes(linked: np.ndarray) -> list[np.ndarray]:
    """The classes of the indices that linked[r, c] joins, by union-find."""
    parent = list(range(len(linked)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r, c in zip(*np.nonzero(linked)):
        parent[root(int(r))] = root(int(c))
    classes: dict[int, list[int]] = {}
    for i in range(len(linked)):
        classes.setdefault(root(i), []).append(i)
    return [np.array(c) for c in classes.values()]


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

    The generators p_t are the columns of generators; p_t is the pivot
    column pivots[t] of the action of e_{v_t}.  Row block t of coords is
    c_t : M -> B, x |-> the slot-t component of phi^-1(x) in e_{v_t} B,
    written in the basis of B; the dual and the tensor product both read
    the splitting through these maps.  For a bimodule with records,
    owners[t] is (k, s): slot t is slot s of piece k's splitting.  The
    left-side splitting of M is the splitting of flip(M).
    """

    generators: Matrix
    vertex_pos: list[int]
    coords: Matrix
    pivots: list[int]
    owners: list[tuple[int, int]] | None = None


def _slot_dims(alg: Algebra, vertex_pos: list[int]) -> list[int]:
    """The dimensions of the ideals e_v B of alg, for v in vertex_pos."""
    dims = [alg.right_ideal_basis(e).cols for e in alg.vertex_idempotents]
    return [dims[v] for v in vertex_pos]


def _cover(m: Bimodule) -> tuple[list[Matrix], list[int], list[int]]:
    """Generators of m modulo m.rad, by echelon choice from the vertex blocks
    m e_v, with their vertices and the pivot columns they are in the
    actions of the vertex idempotents.

    The pivots come from one rref of [m.rad | m e_0 | m e_1 | ...]: a column
    is a pivot when the columns before it do not span it, so spanning
    m.rad by all the radical action columns picks the same generators."""
    field = m.field
    alg = m.right_algebra
    if m.dim == 0:
        return [], [], []
    rad = Matrix.stack_columns(field, [m.right_action[r] for r in alg.radical_basis], m.dim)
    blocks = [m._block(("r", v_pos)) for v_pos in range(len(alg.vertex_idempotents))]
    cand_meta = [(v_pos, int(piv)) for v_pos, (_, pivots, _) in enumerate(blocks) for piv in pivots]
    stacked = Matrix.stack_columns(field, [rad] + [blk for blk, _, _ in blocks], m.dim)
    picked = [p for p in stacked.rref()[1] if p >= rad.cols]
    meta = [cand_meta[p - rad.cols] for p in picked]
    return [stacked.column_vec(p) for p in picked], [v for v, _ in meta], [c for _, c in meta]


def _splitting(m: Bimodule) -> Splitting | None:
    """The right-projective splitting of m, or None when m is not right-projective.

    A bimodule with records assembles it from its pieces', with no elimination."""
    return kept(m._cache, "split",
                lambda: _assembled_splitting(m) if m.records else _fresh_splitting(m))


def _fresh_splitting(m: Bimodule) -> Splitting | None:
    gens, vertex_pos, pivots = _cover(m)
    slot_dims = _slot_dims(m.right_algebra, vertex_pos)
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
    coords = Matrix.block_diag(m.field, ideals) * phi_inv
    return Splitting(Matrix.stack_columns(m.field, gens, m.dim), vertex_pos, coords, pivots)


def _assembled_splitting(m: Bimodule) -> Splitting | None:
    """The splitting of m read off its pieces' splittings.

    Every column of a block diagonal matrix lies in one block, so _cover's
    first-pivot choice on m splits into one choice per piece: the same
    generators, ordered by vertex, then by the coordinate of their pivot.
    As the pieces' coordinates increase, that keeps each piece's own order.
    phi is block diagonal up to that order of its slots, so phi^-1 too."""
    splits = [_splitting(p) for p, _ in m.records]
    if any(sp is None for sp in splits):
        return None
    order = sorted((v, idx[piv], k, t) for k, ((_, idx), sp) in enumerate(zip(m.records, splits))
                   for t, (v, piv) in enumerate(zip(sp.vertex_pos, sp.pivots)))
    owners = [(k, t) for _, _, k, t in order]
    vertex_pos = [v for v, _, _, _ in order]
    rows = np.arange(len(order) + 1) * m.right_algebra.dim
    parts = list(zip((idx for _, idx in m.records), splits, _owned(owners, len(splits))))
    field = m.field
    return Splitting(
        Matrix.from_blocks(field, m.dim, len(order), [(idx, sl, sp.generators)
                                                      for idx, sp, sl in parts]),
        vertex_pos,
        Matrix.from_blocks(field, int(rows[-1]), m.dim, [(_runs(rows, sl), idx, sp.coords)
                                                         for idx, sp, sl in parts]),
        [int(p) for _, p, _, _ in order], owners)


def _owned(owners: list[tuple[int, int]], count: int) -> list[np.ndarray]:
    """The slots that each of count pieces owns, in the piece's own order."""
    out = [[] for _ in range(count)]
    for s, (k, _) in enumerate(owners):
        out[k].append(s)
    return [np.array(slots) for slots in out]


def _runs(ends: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The coordinates ends[s] to ends[s + 1] of each of the slots, in order."""
    return np.concatenate([np.arange(ends[s], ends[s + 1]) for s in slots])


def is_projective(m: Bimodule, side: str) -> bool:
    """Projectivity over one side, decided by the projective cover dimension:
    whether m splits, which a bimodule with records is when every piece is."""
    return _splitting(_right_view(m, side)) is not None


def right_multiplicities(m: Bimodule) -> np.ndarray | None:
    """Entry (u, w) is the multiplicity of e_w B in e_u m, for the vertices u
    of the left and w of the right algebra, as Python ints; None when m is
    not right-projective.  Kept on m; with records it adds the pieces'.

    The multiplicity is dim e_u (m / m.rad) e_w, the top of e_u m at w.  The
    projective cover with these multiplicities maps onto e_u m (Nakayama),
    so m is right-projective exactly when the covers' dimensions add up to
    m.dim.  Each entry is one rank: e_u m e_w is a kept vertex block, and
    e_u m.rad is spanned by the radical's actions on the image of e_u."""
    def build():
        if not m.records:
            return _fresh_multiplicities(m)
        parts = [right_multiplicities(p) for p, _ in m.records]
        return None if any(p is None for p in parts) else sum(parts)
    return kept(m._cache, "mult", build)


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

    Row block i of homs is the map P -> B (or P -> A for left duals)
    realised by the i-th basis vector of the dual.  The generators g_t and
    cogenerators g_t^* are the columns of gens and cogens, and satisfy
    sum_t g_t . g_t^*(x) = x (right side) or sum_t h_t^*(x) . h_t = x
    (left side).
    """

    bimodule: Bimodule
    homs: Matrix
    gens: Matrix
    cogens: Matrix

    def evaluate(self, f_coords: Matrix, x: Matrix) -> Matrix:
        """Column j is f_j(x_j), for f_j = f_coords[:, j] and x_j = x[:, j]."""
        if not self.bimodule.dim:
            return Matrix.zeros(f_coords.field, 0, x.cols)
        return (self.homs * x).combine_blocks(f_coords)


def _require_projective(p: Bimodule, side: str) -> None:
    if not is_projective(p, side):
        m = _right_view(p, side)
        raise BimoduleError(
            f"{side}_dual needs a {side}-projective bimodule (cover dim "
            f"{sum(_slot_dims(m.right_algebra, _cover(m)[1]))} != dim {p.dim})")


@dataclass
class _DualSlot:
    """The tables of B e_v that right_dual reads, built once per (B, v)."""

    basis: Matrix              # G: columns spanning B e_v in the basis of B
    proj: Matrix               # the left inverse of G
    mults: Matrix              # left multiplication matrices of G's columns, stacked
    left_action: list[Matrix]  # b_i acting on B e_v, in the basis G
    unit: Matrix               # e_v in the basis G


def _dual_slot(B: Algebra, v_pos: int) -> _DualSlot:
    def build():
        G = B.left_ideal_basis(B.vertex_idempotents[v_pos])
        proj = _left_inverse(G)
        mults = Matrix.combinations([B.left_mult_matrix(i) for i in range(B.dim)], G)
        return _DualSlot(G, proj, Matrix.stack_rows(B.field, mults, B.dim),
                         _standard_left(B, v_pos),
                         proj * Matrix.basis_vector(B.field, B.dim, B.vertex_idempotents[v_pos]))
    return kept(B._tables, ("slot", v_pos), build)


def _move_table(B: Algebra, s_pos: int, t_pos: int) -> Matrix:
    """Column k is vec(proj_s R_k G_t), G_t spanning B e_t and proj_s the
    left inverse of G_s: beta |-> beta.c maps B e_t to B e_s by this table
    applied to the coordinates of c."""
    def build():
        proj, G = _dual_slot(B, s_pos).proj, _dual_slot(B, t_pos).basis
        moved = [proj * (B.right_mult_matrix(k) * G) for k in range(B.dim)]
        return Matrix.stack_columns(B.field, [m.reshape(m.rows * m.cols, 1) for m in moved],
                                    proj.rows * G.cols)
    return kept(B._tables, ("move", s_pos, t_pos), build)


def right_dual(p: Bimodule) -> DualData:
    """Maps into the right algebra: an (A,B)-bimodule yields a (B,A)-bimodule.

    A bimodule with records assembles its dual from its pieces' duals
    (_dual_of_sum); a leaf builds its dual from its splitting on first
    read and keeps it."""
    _require_projective(p, "right")
    return _dual_of_sum(p) if p.records else kept(p._cache, "rdual", lambda: _fresh_dual(p))


def _dual_of_sum(p: Bimodule) -> DualData:
    """The right dual of a bimodule with records: the sum of its pieces'
    duals, which is the kept dual of its one piece when that sits at every
    coordinate of p.  The dual of p has one run of coordinates per slot of
    p's splitting, and the slots of a piece keep their order in it, so
    each piece's dual sits at the runs of its slots; its hom matrices,
    generators and cogenerators are scattered to its coordinates and
    slots.  This is _fresh_dual's result matrix for
    matrix: the coefficients c_t(a.g_s) between the slots of two pieces
    are zero."""
    sp = _splitting(p)
    B, field = p.right_algebra, p.field
    duals = [right_dual(q) for q, _ in p.records]
    ends = np.cumsum([0] + [_dual_slot(B, v).basis.cols for v in sp.vertex_pos])
    parts = [(idx, dd, slots, _runs(ends, slots)) for (_, idx), dd, slots
             in zip(p.records, duals, _owned(sp.owners, len(duals)))]
    dim, S = int(ends[-1]), len(sp.owners)
    dual = _recorded(B, p.left_algebra, [(dd.bimodule, run) for _, dd, _, run in parts], dim,
                     f"{p.label or 'P'}^v")
    rows = np.arange(dim + 1) * B.dim
    return DualData(
        dual,
        Matrix.from_blocks(field, int(rows[-1]), p.dim, [(_runs(rows, run), idx, dd.homs)
                                                         for idx, dd, _, run in parts]),
        Matrix.from_blocks(field, p.dim, S, [(idx, slots, dd.gens) for idx, dd, slots, _ in parts]),
        Matrix.from_blocks(field, dim, S, [(run, slots, dd.cogens) for _, dd, slots, run in parts]))


def _generator_coeffs(p: Bimodule) -> Matrix:
    """c_t(a_i.g_s) for every slot t and s of p's splitting and basis
    element a_i of the left algebra: row block t, column s * A.dim + i.
    Built once per p."""
    def build():
        sp = _splitting(p)
        moved = _stacked_left(p) * sp.generators
        S, n = sp.generators.cols, p.left_algebra.dim
        return sp.coords * moved.reshape(n, p.dim * S).transpose().reshape(p.dim, S * n)
    return kept(p._cache, "coeffs", build)


def _fresh_dual(p: Bimodule) -> DualData:
    """The right dual read off the splitting of p.

    Slot t of the dual is B e_{v_t}; a in A sends beta in slot t to
    beta.c_t(a.g_s) in slot s, read off the move table for every a at once."""
    sp = _splitting(p)
    A, B = p.left_algebra, p.right_algebra
    field, S = p.field, len(sp.vertex_pos)
    slots = [_dual_slot(B, v_pos) for v_pos in sp.vertex_pos]
    ends = np.cumsum([0] + [slot.basis.cols for slot in slots])
    dual_dim = int(ends[-1])

    homs = Matrix.stack_rows(field, [
        slot.mults * sp.coords.submatrix(slice(t * B.dim, (t + 1) * B.dim), slice(None))
        for t, slot in enumerate(slots)], p.dim)
    left_action = [Matrix.block_diag(field, [slot.left_action[i] for slot in slots])
                   for i in range(B.dim)]

    coeffs = _generator_coeffs(p)
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
    return DualData(dual, homs, sp.generators,
                    Matrix.block_diag(field, [slot.unit for slot in slots]))


def left_dual(p: Bimodule) -> DualData:
    """Maps into the left algebra: an (A,B)-bimodule yields a (B,A)-bimodule.

    Hom_A(P, A) is Hom_{A^op}(flip P, A^op), so this is the right dual of
    the flip, read back through flip, with the same hom matrices and bases.
    """
    _require_projective(p, "left")
    dd = right_dual(flip(p))
    return DualData(flip(dd.bimodule), dd.homs, dd.gens, dd.cogens)


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

    This split model gives coordinates only.  As a bimodule the tensor is
    the sum of one pair tensor m_i (x) n_j for each piece m_i of m and n_j
    of n, each at the coordinates of its monomials: the slots of m that
    m_i owns, times the columns of e_v n that n_j places (see _records).
    Its records are the pair tensors' pieces there, and its actions are
    theirs scattered, the matrices that induced() gives for the actions
    of m and of n; its splitting, vertex blocks, coordinate blocks and
    dual need neither action.  A tensor of two leaves has one record at
    every coordinate when their pair tensor is one piece.
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
        self.bimodule = Bimodule(m.left_algebra, n.right_algebra, None, None, self._dim,
                                 label=f"{m.label or 'M'}(x){n.label or 'N'}",
                                 records=self._records)

    def induced(self, f: Matrix | None, g: Matrix | None, target: "TensorData") -> Matrix:
        """The matrix of f (x) g between tensor products (f, g equivariant);
        None stands for the identity of a factor that self and target share."""
        xs, ys = self.monomial_matrices()
        return target.coords(xs if f is None else f * xs, ys if g is None else g * ys)

    def _records(self) -> list[Record]:
        """The pieces of every pair tensor m_i (x) n_j at the coordinates of
        its monomials: slot t of m_i is the slot of m that owns it, and
        column r of e_v n_j the column of e_v n that n places it at, as the
        pieces' coordinates increase.  Restricted there, both actions are
        the pair tensor's: c_s(a.g_t) is m_i's own, and so is the block of
        n's vertex blocks and their projections."""
        m, n, sp = self.m, self.n, self.sp
        starts = np.cumsum([0] + [blk.cols for blk in self._nblocks])
        owned = _owned(sp.owners, len(m.records)) if m.records else [np.arange(len(sp.vertex_pos))]
        # where each piece of n places its columns of e_v n
        places = {v: flip(n)._block(("r", v))[2] or [np.arange(n.left_block(v).cols)]
                  for v in set(sp.vertex_pos)}
        out = []
        for (mi, _), slots in zip(_pieces(m), owned):
            for j, (nj, _) in enumerate(_pieces(n)):
                coords = np.concatenate([starts[s] + places[sp.vertex_pos[s]][j] for s in slots])
                if len(coords):
                    out += [(q, coords[idx]) for q, idx in _pieces(_pair_tensor(mi, nj))]
        return out

    def monomial_matrices(self) -> tuple[Matrix, Matrix]:
        if self._monomials is None:
            # generator t once for each monomial of slot t
            counts = [blk.cols for blk in self._nblocks]
            self._monomials = (
                self.sp.generators.submatrix(slice(None), np.repeat(np.arange(len(counts)), counts)),
                Matrix.stack_columns(self.field, self._nblocks, self.n.dim))
        return self._monomials

    def coords(self, xs: Matrix, ys: Matrix) -> Matrix:
        """Slot t of x_j (x) y_j is the projection onto e_{v_t}n of
        sum_i c_t(x_j)_i b_i.y_j, with b_i . y_j stacked by i: every slot
        and column in one combine_slots."""
        return (_stacked_left(self.n) * ys).combine_slots(self.sp.coords * xs, self._nprojs)


def _pair_tensor(m: Bimodule, n: Bimodule) -> Bimodule:
    """m (x)_B n for two leaves, with records where its structure gives them.

    * m is the diagonal B, its coordinates perhaps reordered: g_t = e_t,
      and b (x) y |-> b.y is an isomorphism onto n, which sends the
      monomial e_t (x) y_r to y_r, column r of n.left_block(t).  When those
      columns are unit vectors, the tensor is n with its coordinates
      reordered.
    * The left action of A maps generators of m to combinations of
      generators (_left_classes): a.(g_t (x) y) = sum_s L_a[s, t] g_s (x) y.
      Then the tensor is the sum, over the classes c of slots that L links
      and the coordinate blocks beta of e_v n, of X_c (x) Y_beta: L_a on c,
      and the right action of e_v n on beta.  When X_c is A e_u and Y_beta
      is e_y C, each in its standard basis, that piece is P(u, y).

    Otherwise the tensor is a leaf, and its actions are the maps that the
    split model induces from the actions of m and of n."""
    sp = _splitting(m)
    A, C, field = m.left_algebra, n.right_algebra, m.field
    label = f"{m.label or 'M'}(x){n.label or 'N'}"
    vertices = range(len(m.right_algebra.vertex_idempotents))
    if _reordered_diagonal(m) and sp.vertex_pos == list(vertices):
        order = _unit_columns(Matrix.stack_columns(field, [n.left_block(v) for v in vertices],
                                                   n.dim))
        if order is not None:
            return _permuted(n, order, label)
    classes = _left_classes(m)
    if classes is None:
        td = TensorData(m, n, sp)
        return Bimodule(A, C, lambda: [td.induced(a, None, td) for a in m.left_action],
                        lambda: [td.induced(None, c, td) for c in n.right_action],
                        td.bimodule.dim, label=label)
    starts = np.cumsum([0] + [n.left_block(v).cols for v in sp.vertex_pos])
    records = []
    for slots, x, u in classes:
        for beta, y, w in _right_blocks(n, sp.vertex_pos[slots[0]]):
            if u is not None and w is not None:
                piece = projective_bimodule(A, u, C, w)
            else:
                piece = _product(A, C, x, y, label)
                piece._cache["blocks"] = [np.arange(piece.dim)]  # x and y are one block each
            records.append((piece, np.concatenate([starts[t] + beta for t in slots])))
    return _recorded(A, C, records, int(starts[-1]), label)


def _reordered_diagonal(m: Bimodule) -> bool:
    """Whether m is the diagonal, or the diagonal with its coordinates
    reordered: its generators are then the images of the idempotents."""
    while "base" in m._cache:
        m = m._cache["base"][0]
    return m.diagonal


def _left_classes(m: Bimodule) -> list[tuple[np.ndarray, list[Matrix], int | None]] | None:
    """When the left action maps the generators g_t of m's splitting to
    combinations of generators, a.g_t = sum_s L_a[s, t] g_s: the classes of
    slots that L links, each with L_a on it and the vertex u when that is
    A e_u in its standard basis.  None when some c_s(a.g_t) is not a
    multiple of e_{v_s}.  Built once per m."""
    def build():
        sp, B = _splitting(m), m.right_algebra
        coeffs, S = _generator_coeffs(m), len(sp.vertex_pos)
        at_idem = [t * B.dim + B.vertex_idempotents[v] for t, v in enumerate(sp.vertex_pos)]
        rest = np.setdiff1d(np.arange(S * B.dim), at_idem)
        if not coeffs.submatrix(rest, slice(None)).is_zero():
            return None
        rows, n = coeffs.submatrix(at_idem, slice(None)), m.left_algebra.dim
        return _identified(m.left_algebra, [rows.submatrix(slice(None), np.arange(S) * n + i)
                                            for i in range(n)])
    return kept(m._cache, "left classes", build)


def _slot_action(n: Bimodule, v_pos: int) -> list[Matrix]:
    """The right action on e_v n in the basis n.left_block(v): the slot of a
    tensor m (x) n at a generator of m at vertex v."""
    blk, proj = n.left_block(v_pos), n.left_block_proj(v_pos)
    return [proj * (a * blk) for a in n.right_action]


def _right_blocks(n: Bimodule, v_pos: int) -> list[tuple[np.ndarray, list[Matrix], int | None]]:
    """The coordinate blocks of e_v n in the basis n.left_block(v), each with
    the right action on it and the vertex w when that is e_w C in its
    standard basis.  Built once per (n, v)."""
    return kept(n._cache, ("right blocks", v_pos),
                lambda: _identified(opposite(n.right_algebra), _slot_action(n, v_pos)))


def _support(mats: list[Matrix]) -> np.ndarray:
    """Where some of the matrices has a nonzero entry."""
    return np.any([a.nonzero_mask() for a in mats], axis=0)


def _identified(alg: Algebra, mats: list[Matrix]):
    """Each class of coordinates that the matrices' entries join, the
    matrices on it, and the vertex v with _standard_left(alg, v) equal to
    them, or None: the right action of C on e_w C is the left action of
    opposite(C) on it."""
    return [(c, x, _standard_vertex(alg, x))
            for c in _classes(_support(mats)) for x in [[_restricted(a, c) for a in mats]]]


def _restricted(a: Matrix, idx: np.ndarray) -> Matrix:
    """a on the coordinates idx: its rows and columns there."""
    return a.submatrix(idx, slice(None)).submatrix(slice(None), idx)


def _unit_columns(mat: Matrix) -> np.ndarray | None:
    """The rows r with column q of the square mat the unit vector at r[q],
    or None when mat is not a permutation matrix."""
    rows, cols = np.nonzero(mat.nonzero_mask())
    if mat.rows != mat.cols or len(cols) != mat.cols:
        return None
    order = rows[np.argsort(cols)]
    return order if mat == Matrix.identity(mat.field, mat.rows).submatrix(slice(None), order) \
        else None


def _permuted(base: Bimodule, order: np.ndarray, label: str) -> Bimodule:
    """base with coordinate q moved from order[q]: base itself when order
    is the identity, else a leaf that reads its coordinate blocks off
    base's."""
    if (order == np.arange(len(order))).all():
        return base
    reorder = lambda mats: [a.submatrix(order, slice(None)).submatrix(slice(None), order)
                            for a in mats]
    out = Bimodule(base.left_algebra, base.right_algebra, lambda: reorder(base.left_action),
                   lambda: reorder(base.right_action), base.dim, label=label)
    out._cache["base"] = (base, np.argsort(order))
    return out


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
            f"{sum(_slot_dims(m.right_algebra, _cover(m)[1]))} != dim {m.dim})")
    return TensorData(m, n, sp)
