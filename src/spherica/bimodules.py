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
cut.  A tensor with the diagonal, and a pair tensor piece that is a
standard summand in its basis reordered, is a reordered piece: a view of
its root (_permuted) that reads the root's vertex blocks, splitting and
multiplicities, moved, when the root's idempotents act diagonally and its
radical's span is one of coordinates (_aligned), as the echelon choices
then move with the coordinates.

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
A hom space is the direct sum of the homs between the pieces' roots,
moved: out of a standard summand P(u,v) they are its Yoneda maps, one per
vector of e_u n e_v, and any other pair of roots solves equations; a pair
of shared roots keeps its maps on the algebra that keeps both.  Reducing
their coordinates with the order reversed gives the canonical basis that
the equations over the whole bimodules give, so every draw from it stays.

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
        self.standard: tuple[int, int] | None = None  # (v, w) of the shared standard summand P(v, w)

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
                if view := _root_read(self):  # unit columns at the moved pivots
                    root, order = view
                    pivots = np.sort(np.argsort(order)[root._block(key)[1]])
                    return Matrix.unit_columns(self.field, self.dim, pivots), pivots, None
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
        """The left inverse of the basis of _block(key); the pieces' scattered,
        and for unit columns their transpose."""
        def build():
            basis, _, places = self._block(key)
            if not self.records:
                return basis.transpose() if _root_read(self) else _left_inverse(basis)
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
    the flip of a bimodule with records has the flipped pieces at the
    same coordinates, and the flip of a reordered piece is its root's flip
    reordered.
    """
    def build():
        if "base" in m._cache:
            root, order = m._cache["base"]
            return _permuted(flip(root), order, m.label)
        return Bimodule(opposite(m.right_algebra), opposite(m.left_algebra),
                        lambda: m.right_action, lambda: m.left_action, m.dim, label=m.label,
                        records=lambda: m.records and [(flip(p), idx) for p, idx in m.records])
    return kept(m._cache, "flip", build)


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

    def build():
        p = _product(a, b, _standard_left(a, v_pos), _standard_left(opposite(b), w_pos),
                     f"P({v_pos},{w_pos})")
        p.standard = (v_pos, w_pos)
        return p
    return kept(home._tables, ("P", id(a), v_pos, id(b), w_pos), build)


def _standard_vertex(alg: Algebra, mats: list[Matrix]) -> tuple[int, np.ndarray] | None:
    """The vertex v and the order with mats the table of A e_v,
    _standard_left(alg, v), with coordinate q moved from order[q], if there
    are any.  Such mats fix the moved generator e_v at a unit vector e_j,
    and their images of e_j are the table's images of e_v moved: on the
    columns of _generated they are the permutation times an invertible
    square.  Each order read off them is confirmed on every matrix."""
    k = mats[0].rows
    stacked = Matrix.stack_rows(alg.field, mats, k)
    for v, e in enumerate(alg.vertex_idempotents):
        std = _standard_left(alg, v)
        if std[0].rows != k:
            continue
        if std == mats:
            return v, np.arange(k)
        cols, inverse = _generated(alg, v)
        for j in np.flatnonzero(np.diag(mats[e].nonzero_mask())):
            images = stacked.column_vec(j).reshape(alg.dim, k).transpose()
            order = _unit_columns((images.submatrix(slice(None), cols) * inverse).transpose())
            if order is not None and all(a == _restricted(b, order) for a, b in zip(mats, std)):
                return v, order
    return None


def _generated(alg: Algebra, v_pos: int) -> tuple[list[int], Matrix]:
    """Columns at which the images b_i e_v of the generator of A e_v, in the
    basis of _standard_left(alg, v), form an invertible square, and the
    inverse of that square.  Built once per (alg, v)."""
    def build():
        e = alg.vertex_idempotents[v_pos]
        gen = _left_inverse(alg.left_ideal_basis(e)) * Matrix.basis_vector(alg.field, alg.dim, e)
        std = _standard_left(alg, v_pos)
        images = Matrix.stack_columns(alg.field, [a * gen for a in std], std[0].rows)
        cols = list(images.rref()[1])
        return cols, images.submatrix(slice(None), cols).inverse()
    return kept(alg._tables, ("generated", v_pos), build)


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
    read with no action matrix, and a reordered piece (_permuted) reads its
    root's.  Other leaves join the entries of their actions."""
    def build():
        if m.records:
            found = [idx[blk] for p, idx in m.records for blk in coordinate_blocks(p)]
        elif "base" in m._cache:
            root, order = m._cache["base"]
            found = [np.sort(np.argsort(order)[blk]) for blk in coordinate_blocks(root)]
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
    vertex blocks e_v m e_w -> e_v n e_w, one matrix F_(v,w) each; its
    coordinates are their entries, blocks in order, row by row.  The basis
    is the canonical nullspace basis of _solved's equations on m and n:
    each vector has a 1 at its last nonzero coordinate, a free variable,
    and a 0 at the others.  Hom(m, n) is the direct sum of the homs between
    the pieces' roots (_root_homs), rows and columns moved, and reducing
    those maps' coordinates in reverse order gives the canonical rows read
    backwards.  When every root passes _aligned, the vertex blocks are unit
    columns, so a map's coordinates are its entries where their pivots
    meet; otherwise they are read through the blocks' bases.  A one-sided
    hom is the two-sided hom of the restrictions to scalars on the other
    side.
    """
    A, B = m.left_algebra, m.right_algebra
    if A.mult != n.left_algebra.mult:
        raise BimoduleError("left algebras differ")
    if B.mult != n.right_algebra.mult:
        raise BimoduleError("right algebras differ")
    if m.dim == 0 or n.dim == 0:
        return []
    field, ms, ns = m.field, _pieces(m), _pieces(n)
    blocks = [(v, w) for v in range(len(A.vertex_idempotents)) for w in range(len(B.vertex_idempotents))]
    (owner_m, moved_m), (owner_n, moved_n) = _owners(ms, m.dim), _owners(ns, n.dim)
    aligned = all(_aligned(_root(p)) for p, _ in ms + ns)
    if aligned:
        # each vertex block is unit columns at the coordinates in it, and a
        # root map is nonzero only between equal blocks, so the coordinates
        # joining pieces i and j hold all of its entries, moved
        rows, cols = _unknowns(_aligned_blocks(ns, moved_n, len(blocks)),
                               _aligned_blocks(ms, moved_m, len(blocks)))
        pair = owner_n[rows] * len(ms) + owner_m[cols]
        order = np.argsort(pair, kind="stable")
        firsts, starts = np.unique(pair[order], return_index=True)
        parts = []
        for key, here in zip(firsts, np.split(order, starts[1:])):
            homs = _root_homs(_root(ms[key % len(ms)][0]), _root(ns[key // len(ms)][0]))
            if homs:
                parts.append((here, Matrix.gathered(field, homs, moved_n[rows[here]], moved_m[cols[here]])))
        ends = np.cumsum([0] + [g.rows for _, g in parts])
        span = Matrix.from_blocks(field, int(ends[-1]), len(rows),
                                  [(int(e), here, g) for e, (here, g) in zip(ends, parts)])
    else:
        # in the basis of the vertex blocks side by side, each one a run: the
        # root maps moved to their pieces' coordinates, read in that basis
        bases_m, bases_n = (Matrix.stack_columns(field, [t.double_block(*bl) for bl in blocks], t.dim)
                            for t in (m, n))
        projs_m, projs_n = (Matrix.stack_rows(field, [t.double_block_proj(*bl) for bl in blocks], t.dim)
                            for t in (m, n))
        runs = lambda t: np.split(np.arange(t.dim), np.cumsum([t.double_block(*bl).cols
                                                               for bl in blocks])[:-1])
        rows, cols = _unknowns(runs(n), runs(m))
        moved = [Matrix.from_blocks(field, n.dim, m.dim, [(qi, pi, f.submatrix(moved_n[qi], slice(None))
                                                          .submatrix(slice(None), moved_m[pi]))])
                 for p, pi in ms for q, qi in ns for f in _root_homs(_root(p), _root(q))]
        span = Matrix.gathered(field, [projs_n * f * bases_m for f in moved], rows, cols)
    if not span.rows:
        return []
    reduced, pivots = span.submatrix(slice(None), slice(None, None, -1)).rref()
    found = reduced.submatrix(np.arange(len(pivots))[::-1], slice(None, None, -1)) \
        .scattered(rows, cols, n.dim, m.dim)
    return found if aligned else [bases_n * f * projs_m for f in found]


def _unknowns(at_n: list[np.ndarray], at_m: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Where each coordinate of a map sits, for the coordinates of each
    vertex block of the target and the source: entry (a, b) of F_(v,w), in
    block order, row by row, at row at_n[(v,w)][a] and column at_m[(v,w)][b]."""
    return (np.concatenate([np.repeat(r, len(c)) for r, c in zip(at_n, at_m)]),
            np.concatenate([np.tile(c, len(r)) for r, c in zip(at_n, at_m)]))


def _owners(pieces: list[Record], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """For each coordinate, the piece it lies in and the coordinate of that
    piece's root it is moved from."""
    owner, moved = np.zeros(dim, dtype=int), np.zeros(dim, dtype=int)
    for k, (p, idx) in enumerate(pieces):
        owner[idx] = k
        moved[idx] = p._cache["base"][1] if "base" in p._cache else np.arange(p.dim)
    return owner, moved


def _aligned_blocks(pieces: list[Record], moved: np.ndarray, count: int) -> list[np.ndarray]:
    """The coordinates in each double block (v, w), blocks in order, for
    pieces whose roots pass _aligned: a coordinate lies in the block of the
    root coordinate it is moved from."""
    label = np.zeros(len(moved), dtype=int)
    for p, idx in pieces:
        label[idx] = _block_labels(_root(p))[moved[idx]]
    order = np.argsort(label, kind="stable")
    return np.split(order, np.cumsum(np.bincount(label, minlength=count))[:-1])


def _block_labels(m: Bimodule) -> np.ndarray:
    """For m passing _aligned, the double block (v, w) of each coordinate,
    as v times the number of right vertices plus w.  Kept on m."""
    def build():
        nw, out = len(m.right_algebra.vertex_idempotents), np.zeros(m.dim, dtype=int)
        for v in range(len(m.left_algebra.vertex_idempotents)):
            for w in range(nw):
                out[m._block(("d", v, w))[1]] = v * nw + w
        return out
    return kept(m._cache, "block labels", build)


def _root_homs(m: Bimodule, n: Bimodule) -> list[Matrix]:
    """A basis of the maps m -> n between two roots: the Yoneda maps when m
    is a standard summand, else _solved's.  Kept by the algebra that keeps
    both m and n when both are shared, so the key lives no longer than the
    bimodules it names; any other pair is solved on each call."""
    build = lambda: _yoneda(m, n) if m.standard else _solved(m, n)
    home = _keeper(m)
    if home is None or home is not _keeper(n):
        return build()
    return kept(home._tables, ("hom", id(m), id(n)), build)


def _keeper(m: Bimodule) -> Algebra | None:
    """The algebra whose tables keep m, for a shared root: a standard summand
    (projective_bimodule) or the diagonal of complexes.unit_complex."""
    a, b = m.left_algebra, m.right_algebra
    if m.standard:
        return a if b is scalar_algebra(b.field) else b
    unit = a._tables.get("unit complex")
    return a if unit is not None and unit.terms[0] is m else None


def _yoneda(p: Bimodule, n: Bimodule) -> list[Matrix]:
    """The maps P(u, y) -> n, for the standard summand p = A e_u (x) e_y B:
    Hom(p, n) = e_u n e_y, and column k of n.double_block(u, y) gives the
    map x_i (x) z_j |-> x_i . n_k . z_j, at column i dim(e_y B) + j as in
    _product, for the bases x of A e_u and z of e_y B of p's tables."""
    (u, y), a, b = p.standard, p.left_algebra, p.right_algebra
    block = n.double_block(u, y)
    if not block.cols:
        return []
    xs = Matrix.combinations(n.left_action, a.left_ideal_basis(a.vertex_idempotents[u]))
    zs = Matrix.combinations(n.right_action, opposite(b).left_ideal_basis(b.vertex_idempotents[y]))
    zn = Matrix.stack_columns(p.field, [z * block for z in zs], n.dim)
    # column (i dim(e_y B) + j) block.cols + k is x_i . n_k . z_j
    images = Matrix.stack_columns(p.field, [x * zn for x in xs], n.dim)
    return [images.submatrix(slice(None), slice(k, None, block.cols)) for k in range(block.cols)]


def _solved(m: Bimodule, n: Bimodule) -> list[Matrix]:
    """hom_space by equations, for two leaves.  An arrow a: s -> t of the
    left algebra moves block (t, w) of either module into block (s, w),
    and an arrow of the right algebra from s to t moves (v, s) into (v, t).
    So each arrow and vertex of the other side gives one equation
    F_tgt m_a = n_a F_src, with m_a and n_a the arrow's action read in the
    block bases, and the idempotents commute with the maps for free."""
    A, B, field = m.left_algebra, m.right_algebra, m.field
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

    A bimodule with records assembles it from its pieces', and a reordered
    piece whose root passes _aligned moves its root's, with no elimination."""
    def build():
        if m.records:
            return _assembled_splitting(m)
        view = _root_read(m)
        return _moved_splitting(*view) if view else _fresh_splitting(m)
    return kept(m._cache, "split", build)


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


def _moved_splitting(root: Bimodule, order: np.ndarray) -> Splitting | None:
    """The splitting of root with coordinate q moved from order[q], for a
    root that passes _aligned.  Its generators are unit columns, and _cover
    picks the same ones moved: ordered by vertex, then by moved pivot.
    phi is moved on both sides, so coords has its row blocks in that order
    and column q from column order[q]."""
    sp = _splitting(root)
    if sp is None:
        return None
    pivots = np.argsort(order)[sp.pivots]
    slots = np.lexsort((pivots, sp.vertex_pos))
    rows = np.arange(len(slots) + 1) * root.right_algebra.dim
    return Splitting(Matrix.unit_columns(root.field, root.dim, pivots[slots]),
                     [sp.vertex_pos[t] for t in slots],
                     sp.coords.submatrix(_runs(rows, slots), slice(None)).submatrix(slice(None), order),
                     [int(p) for p in pivots[slots]])


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
    e_u m.rad is spanned by the radical's actions on the image of e_u.  The
    ranks do not depend on the basis, so a reordered piece reads its root's."""
    def build():
        if "base" in m._cache:
            return right_multiplicities(m._cache["base"][0])
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
      is e_y C, each in its standard basis with its coordinates perhaps
      reordered, that piece is P(u, y) reordered: x_i (x) y_j sits at
      i dim Y + j in both, so the orders combine as a Kronecker product.

    Otherwise the tensor is a leaf, and its actions are the maps that the
    split model induces from the actions of m and of n.  The reordered
    pieces read their roots' (_permuted), so no piece that the diagonal or
    a standard summand gives is split or blocked from scratch."""
    sp = _splitting(m)
    A, C, field = m.left_algebra, n.right_algebra, m.field
    label = f"{m.label or 'M'}(x){n.label or 'N'}"
    vertices = range(len(m.right_algebra.vertex_idempotents))
    if _root(m).diagonal and sp.vertex_pos == list(vertices):
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
    for slots, x, left in classes:
        for beta, y, right in _right_blocks(n, sp.vertex_pos[slots[0]]):
            if left and right:
                (u, sigma), (w, tau) = left, right
                piece = _permuted(projective_bimodule(A, u, C, w),
                                  (sigma[:, None] * len(tau) + tau).ravel(), label)
            else:
                piece = _product(A, C, x, y, label)
                piece._cache["blocks"] = [np.arange(piece.dim)]  # x and y are one block each
            records.append((piece, np.concatenate([starts[t] + beta for t in slots])))
    return _recorded(A, C, records, int(starts[-1]), label)


def _root(m: Bimodule) -> Bimodule:
    """The root of a reordered piece (_permuted), and any other bimodule itself."""
    return m._cache["base"][0] if "base" in m._cache else m


def _left_classes(m: Bimodule) -> list[tuple[np.ndarray, list[Matrix], tuple | None]] | None:
    """When the left action maps the generators g_t of m's splitting to
    combinations of generators, a.g_t = sum_s L_a[s, t] g_s: the classes of
    slots that L links, each with L_a on it and (u, order) when that is
    A e_u in its standard basis reordered (_standard_vertex).  None when
    some c_s(a.g_t) is not a multiple of e_{v_s}.  Built once per m."""
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


def _right_blocks(n: Bimodule, v_pos: int) -> list[tuple[np.ndarray, list[Matrix], tuple | None]]:
    """The coordinate blocks of e_v n in the basis n.left_block(v), each with
    the right action on it and (w, order) when that is e_w C in its
    standard basis reordered.  Built once per (n, v)."""
    return kept(n._cache, ("right blocks", v_pos),
                lambda: _identified(opposite(n.right_algebra), _slot_action(n, v_pos)))


def _support(mats: list[Matrix]) -> np.ndarray:
    """Where some of the matrices has a nonzero entry."""
    return np.any([a.nonzero_mask() for a in mats], axis=0)


def _identified(alg: Algebra, mats: list[Matrix]):
    """Each class of coordinates that the matrices' entries join, the
    matrices on it, and _standard_vertex of them: the right action of C on
    e_w C is the left action of opposite(C) on it."""
    return [(c, x, _standard_vertex(alg, x))
            for c in _classes(_support(mats)) for x in [[_restricted(a, c) for a in mats]]]


def _restricted(a: Matrix, idx: np.ndarray) -> Matrix:
    """a on the coordinates idx: its rows and columns there."""
    return a.submatrix(idx, slice(None)).submatrix(slice(None), idx)


def _unit_columns(mat: Matrix) -> np.ndarray | None:
    """The rows r with column q of the square mat the unit vector at r[q],
    or None when mat is not a permutation matrix."""
    rows, cols = np.nonzero(mat.nonzero_mask())
    if mat.rows != mat.cols or len(cols) != mat.cols or len(np.unique(rows)) != mat.rows:
        return None
    order = rows[np.argsort(cols)]
    return order if mat == Matrix.unit_columns(mat.field, mat.rows, order) else None


def _permuted(base: Bimodule, order: np.ndarray, label: str) -> Bimodule:
    """base with coordinate q moved from order[q]: base itself when order
    is the identity, else a reordered piece, a leaf whose _cache["base"] is
    (root, order) for a root that is not reordered itself, as orders
    compose.  It reads its coordinate blocks and multiplicities off the
    root, and when the root passes _aligned its vertex blocks, their
    projections and its splitting too: the fresh constructions' choices
    move with the coordinates, so they are the root's moved."""
    if "base" in base._cache:
        base, order = base._cache["base"][0], base._cache["base"][1][order]
    if (order == np.arange(len(order))).all():
        return base
    reorder = lambda mats: [_restricted(a, order) for a in mats]
    out = Bimodule(base.left_algebra, base.right_algebra, lambda: reorder(base.left_action),
                   lambda: reorder(base.right_action), base.dim, label=label)
    out._cache["base"] = (base, order)
    return out


def _root_read(m: Bimodule) -> tuple[Bimodule, np.ndarray] | None:
    """(root, order) for a reordered piece whose root passes _aligned."""
    return m._cache["base"] if "base" in m._cache and _aligned(m._cache["base"][0]) else None


def _aligned(m: Bimodule) -> bool:
    """Whether every vertex idempotent acts on m, on either side, by a 0/1
    diagonal matrix, and the right radical action spans a subspace spanned
    by coordinates.  Then each vertex block is the rref's unit columns at
    the 1s, and _cover picks, vertex by vertex, the unit columns at the
    coordinates outside that subspace.  Kept on m."""
    def build():
        idems = [m.left_action[e] for e in m.left_algebra.vertex_idempotents] + \
                [m.right_action[e] for e in m.right_algebra.vertex_idempotents]
        for a in idems:
            rows, cols = np.nonzero(a.nonzero_mask())
            if (rows != cols).any() or _restricted(a, rows) != Matrix.identity(m.field, len(rows)):
                return False
        rad = Matrix.stack_columns(m.field, [m.right_action[r] for r in m.right_algebra.radical_basis],
                                   m.dim)
        return rad.rank() == int(np.count_nonzero(rad.nonzero_mask().any(axis=1)))
    return kept(m._cache, "aligned", build)


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
