"""Units of kernels, decided on one-sided minimal models.

A kernel X from C to A induces F = - (x)_C X, with adjoints L -| F -| R.
F is fully faithful exactly when the unit id -> RF is an isomorphism; for
C = A, F is an equivalence exactly when id -> FL is one too: L is then
fully faithful, and FL = id makes F essentially surjective.  Each unit is
a map of kernels out of a diagonal, and a functor given by a kernel
takes the generator to the kernel itself, so each is a quasi-isomorphism
exactly when its value there is one.  There the unit of F -| R is the
left action C -> Hom_A(X_A, X_A) = X (x)_A X^v, and the unit of L -| F the
right action A^op -> Hom_C^op(_C X, _C X): the two-sided tilting criterion
(Rickard, "Derived equivalences as derived functors", 1991).  The right
action is the left action of the flip of X, so one test serves both.  The
faithful command runs the left one, and spherical.is_equivalence_kernel
both over algebras with arrows: over k^n it reads vertex-block homology.

The test builds no tensor, adjoint or cone.  As a right module each term
of X is the free module (+)_t e_{v_t} A of its splitting, inside A^S, and
a map of free modules is left multiplication by a matrix over A whose
entry (t, s) lies in e_{v_t} A e_{v_s}.  A matrix over A is stored with
one row block of A.dim rows per row, each entry's coefficients in the
basis of A, as Splitting.coords is.  Gaussian elimination (Bar-Natan,
arXiv:math/0606318; complexes.eliminate, the step of minimal_model)
cancels every component between two slots at one vertex whose e_v
coefficient is nonzero, as left multiplication by such an element is
invertible on e_v A: all of them in one step, as a component between
degrees n and n + 1 is never changed by a cancellation in another pair
of degrees.  It carries along the inclusion i: X' -> X and the
projection p: X -> X' of the homotopy equivalence it builds.  X' is then
minimal, and Hom_A(X', X') is read in generator-value form,
Hom_A(e_v A, M) = M e_v: a map is its values at the generators.  Every
coordinate matrix here is formed only at the entries that can be
nonzero, each one row of the algebra's stacked multiplication matrices
times the coefficients of an entry over A, so no matrix has a side of
(number of slots) x A.dim.  The action is a quasi-isomorphism exactly
when a |-> p L_a i, C -> Hom_A(X', X'), is one, which ranks decide; L_a
acts on the values of i in the basis of each term of X, piece by piece
when the term has records.

The same model decides whether X is the identity kernel (is_identity),
which spherical.quasi_iso_to_identity asks over algebras with arrows:
by Krull-Schmidt (Krause, arXiv:1410.2822) X' must then be A_A itself,
and a |-> p L_a i twists it by an endomorphism of A, which must be
inner.  One nullspace decides that, with no chain map or cone.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .algebras import Algebra
from .bimodules import Bimodule, BimoduleError, _splitting, _stacked_left, flip
from .complexes import Complex, _part, eliminate
from .linalg import Matrix, kept


def left_action_is_quasi_iso(x: Complex) -> bool:
    """Whether a |-> L_a is a quasi-isomorphism C -> Hom_A(X, X) of complexes
    of right modules, for the complex X of C-A-bimodules x, whose terms must
    be right-projective: the unit id -> RF of its functor, at C."""
    return _action_is_quasi_iso(x.terms, x.diffs)


def right_action_is_quasi_iso(x: Complex) -> bool:
    """Whether the right action is a quasi-isomorphism A^op -> Hom_C^op(X, X),
    the left action of the flip of x: the unit id -> FL of its functor, at A."""
    return _action_is_quasi_iso({n: flip(t) for n, t in x.terms.items()}, x.diffs)


def is_identity(x: Complex) -> bool:
    """Whether the complex x of A-bimodules, whose terms must be
    right-projective, is quasi-isomorphic to A.

    Then its free minimal model X' is homotopy equivalent to A as a
    complex of right modules, so X' is A: one term, in degree 0, with one
    slot e_v A at each vertex v (Krull-Schmidt).  Otherwise the answer is
    no.  H^0 x = X' is then A_A with the left action a |-> p L_a i, which
    psi(b) = (sum of the generators) b identifies with _sigma A for the
    endomorphism sigma(a) = psi^-1(a psi(1)), and _sigma A is isomorphic
    to A exactly when some unit u has sigma(a) u = u a for every generator
    a.  These u form a subspace S, which is u_0 Z(A) when u_0 is a unit
    among them; Z(A) is scalar modulo its radical on each block of A, so
    an element of S then has a nonzero e_v coefficient at every vertex of
    v's block or at none.  So with w_v the first basis element of S whose
    e_v coefficient is nonzero, u = sum_v e_v w_v, a unit by construction,
    lies in S exactly when S holds a unit."""
    if not x.terms:
        return False
    tables, m, action = _model(x.terms, x.diffs)
    alg = x.right_algebra
    field, size, idems = alg.field, alg.dim, alg.vertex_idempotents
    if m.level.any() or sorted(m.vert.tolist()) != list(range(len(idems))):
        return False
    # coordinate r of X' is coefficient m.coef[r] of psi^-1, once each;
    # column i of sigma is sigma(a_i)
    summed = action(0) * Matrix.stack_rows(field, [Matrix.identity(field, size)] * len(m.vert), size)
    sigma = summed.submatrix(np.argsort(m.coef), slice(None))
    # row block g of the equations is L_sigma(a_g) - R_g, for the generators a_g
    gens = np.array(alg.generator_indices)
    lefts = sigma.submatrix(slice(None), gens).transpose() * tables.left.reshape(size, size * size)
    rights = tables.right.submatrix((gens[:, None] * size + np.arange(size)).ravel(), slice(None))
    equations = lefts.reshape(len(gens) * size, size) - rights
    units = equations.nullspace()
    nonzero = units.submatrix(idems, slice(None)).nonzero_mask()
    if not nonzero.any(axis=1).all():
        return False
    # coordinate k of u is coordinate k of w_v for the vertex v where a_k starts
    pick = np.arange(size) * units.cols + nonzero.argmax(axis=1)[tables.start]
    return (equations * units.reshape(1, size * units.cols).submatrix(slice(None), pick).transpose()).is_zero()


class _FreeTables:
    """What the free right modules over an algebra read, kept per algebra:
    start[k] and end[k], the vertices v and w with e_v a_k = a_k = a_k e_w;
    unit[k], whether a_k is a vertex idempotent; and left and right, the
    matrices L_k of x |-> a_k x and R_k of x |-> x a_k stacked top to
    bottom, so that row k A.dim + j of left is row j of L_k."""

    def __init__(self, alg: Algebra):
        idems = alg.vertex_idempotents
        # column k of L_e (of R_e) is a_k when a_k starts (ends) at e, else 0
        self.start, self.end = (np.argmax([mult(e).nonzero_mask().any(axis=0) for e in idems], axis=0)
                                for mult in (alg.left_mult_matrix, alg.right_mult_matrix))
        self.unit = np.isin(np.arange(alg.dim), idems)
        self.left, self.right = (Matrix.stack_rows(alg.field, [mult(k) for k in range(alg.dim)], alg.dim)
                                 for mult in (alg.left_mult_matrix, alg.right_mult_matrix))


class _Free:
    """A complex of free right modules, its terms in degree order: slot q is
    e_v A for v = vert[q], in degree level[q], at the coordinates of the a_k
    that start at v; coordinate r is coefficient coef[r] of slot slot[r],
    and d is the differential on the coordinates."""

    def __init__(self, vert: np.ndarray, level: np.ndarray, slot: np.ndarray, coef: np.ndarray,
                 d: Matrix):
        self.vert, self.level, self.slot, self.coef, self.d = vert, level, slot, coef, d


def _model(terms: dict[int, Bimodule], diffs: dict[int, Matrix]):
    """The free minimal model X' of the complex of right-projective bimodules
    (terms, diffs), with the tables of its right algebra A and its left
    action up to homotopy: action(n) has row r and column s C.dim + i the
    coordinate r of p L_{a_i} i at generator s, for the basis a_i of the
    left algebra C and the coordinates r and generators s of X' in degree
    n, each in order."""
    alg = next(iter(terms.values())).right_algebra
    field, size = alg.field, alg.dim
    tables = kept(alg._tables, "free modules", lambda: _FreeTables(alg))
    degs = sorted(terms)
    splits = {n: _splitting(terms[n]) for n in degs}
    for n, sp in splits.items():
        if sp is None:
            raise BimoduleError(f"the action test needs right-projective terms, "
                                f"but the term at degree {n} is not")
    # the free model of X: term n is (+)_t e_{v_t} A for the slots of its
    # splitting, the first of which is slot first[n]; the differential over
    # A has entry (t, u) c_t(d g_u) for the generators g_u, and coordinate
    # (t, k) of d(g_u a_j) is coefficient k of c_t(d g_u) a_j
    first = dict(zip(degs, accumulate([len(splits[n].vertex_pos) for n in degs], initial=0)))
    vert = np.concatenate([splits[n].vertex_pos for n in degs])
    level = np.repeat(degs, np.diff([*first.values(), len(vert)]))
    full = np.flatnonzero(tables.start == vert[:, None])
    slot, coef = full // size, full % size
    over = Matrix.from_blocks(field, len(vert) * size, len(vert), [
        (first[n + 1] * size, first[n], splits[n + 1].coords * (dn * splits[n].generators))
        for n, dn in diffs.items()])
    rows, cols = np.nonzero(level[slot][:, None] == level[slot][None, :] + 1)
    d = _placed(field, len(full), [(rows, cols, _products(
        tables.right, _by_entry(over), coef[cols] * size + coef[rows], slot[cols] * len(vert) + slot[rows]))])
    m, incl, proj = _cancelled(_Free(vert, level, slot, coef, d), tables)

    def action(n: int) -> Matrix:
        # in degree n, x has its coordinates at xs and m at ms, with
        # generators at gens; L_a acts on the values i(g) in the basis of
        # X^n, and to_free takes them back to x's coordinates
        xs, ms = np.flatnonzero(level[slot] == n), np.flatnonzero(m.level[m.slot] == n)
        gens, dim, left = ms[tables.unit[m.coef[ms]]], terms[n].dim, terms[n].left_algebra.dim
        local = full[xs] - first[n] * size
        to_free = splits[n].coords.submatrix(local, slice(None))
        # where nothing in degree n cancels, i and p are the identity there;
        # elsewhere solving by to_free takes the values of i from x's
        # coordinates to the basis of X^n
        if len(xs) == len(ms):
            images, out = splits[n].generators, to_free
        else:
            images = to_free.solve(_part(incl, xs, gens))
            out = _part(proj, ms, xs) * to_free
        acted = _acted(terms[n], images)
        return out * acted.reshape(left, dim * len(gens)).transpose().reshape(dim, len(gens) * left)

    return tables, m, action


def _acted(term: Bimodule, images: Matrix) -> Matrix:
    """Row (i, b), column s: coordinate b of a_i . images[:, s].  A term with
    records acts piece by piece, so no action matrix of the term is built."""
    if not term.records:
        return _stacked_left(term) * images
    size, dim = term.left_algebra.dim, term.dim
    return Matrix.from_blocks(term.field, size * dim, images.cols, [
        ((np.arange(size)[:, None] * dim + idx).ravel(), 0, _stacked_left(piece) * images.submatrix(idx, slice(None)))
        for piece, idx in term.records])


def _action_is_quasi_iso(terms: dict[int, Bimodule], diffs: dict[int, Matrix]) -> bool:
    if not terms:
        return False
    tables, m, action = _model(terms, diffs)
    if not len(m.vert):
        return False  # X is contractible, and A is not
    field, size = m.d.field, next(iter(terms.values())).left_algebra.dim

    # Hom_A(X', X') at the generators: coordinate (s, r) is coordinate r of
    # the value at generator s, where the a_k at r ends at the vertex of s
    s, r = np.nonzero(m.vert[:, None] == tables.end[m.coef][None, :])
    degree = m.level[m.slot[r]] - m.level[s]
    dims = {k: np.flatnonzero(degree == k) for k in set(degree.tolist())}
    hom = _hom_differential(m, s, r, tables) if len(dims) > 1 else None
    maps = {k: _part(hom, dims[k + 1], dims[k]) for k in dims if k + 1 in dims}

    # a |-> p L_a i in Hom^0, at the generators, degree by degree: the Hom^0
    # coordinates at have their generator in degree n
    phi = []
    for n in sorted(set(m.level.tolist())):
        ms, gens = np.flatnonzero(m.level[m.slot] == n), np.flatnonzero(m.level == n)
        at = np.flatnonzero((degree == 0) & (m.level[s] == n))
        phi.append((at, 0, action(n).reshape(len(ms) * len(gens), size).submatrix(
            (r[at] - ms[0]) * len(gens) + s[at] - gens[0], slice(None))))

    # the cone of A -> Hom_A(X', X') is acyclic; A sits in its degree -1
    maps[-1] = Matrix.from_blocks(field, len(s), size, phi).submatrix(dims[0], slice(None)).hstack(
        maps.get(-1, Matrix.zeros(field, len(dims[0]), 0)))
    ranks = {k: f.rank() for k, f in maps.items()}
    return all(len(dims.get(k, ())) + (size if k == -1 else 0) == ranks.get(k, 0) + ranks.get(k - 1, 0)
               for k in set(dims) | {-1})


def _cancelled(x: _Free, tables: _FreeTables) -> tuple[_Free, Matrix, Matrix]:
    """The minimal model X' of x, with the inclusion i: X' -> x and the
    projection p: x -> X'.

    The e_v coefficients of the entries between slots at one vertex (the
    others are 0) say which components are invertible: degree by degree,
    the slots at independent columns and rows of these meet in an
    invertible component, and all of them are cancelled in one step, with
    i as trailing rows and p as trailing columns."""
    dim, field = len(x.coef), x.d.field
    eye = Matrix.identity(field, dim)
    if x.d.is_zero():
        return x, eye, eye
    units = _part(x.d, *[np.flatnonzero(tables.unit[x.coef])] * 2)
    source, target = np.zeros(len(x.vert), dtype=bool), np.zeros(len(x.vert), dtype=bool)
    for n in sorted(set(x.level.tolist())):
        cols, rows = np.flatnonzero((x.level == n) & ~target), np.flatnonzero(x.level == n + 1)
        u = _part(units, rows, cols)
        source[cols[list(u.rref()[1])]] = True
        target[rows[list(u.transpose().rref()[1])]] = True
    if not source.any():
        return x, eye, eye
    cols, rows = source[x.slot], target[x.slot]
    keep = ~(cols | rows)
    m = {0: Matrix.from_blocks(field, 2 * dim, 2 * dim, [(0, 0, x.d), (0, dim, eye), (dim, 0, eye)])}
    eliminate(m, 0, cols, rows)
    at_rows, at_cols = np.flatnonzero(keep[~rows]), np.flatnonzero(keep[~cols])
    kept = np.flatnonzero(~(source | target))
    return (_Free(x.vert[kept], x.level[kept], np.searchsorted(kept, x.slot[keep]), x.coef[keep],
                  _part(m[0], at_rows, at_cols)),
            _part(m[0], (~rows).sum() + np.arange(dim), at_cols),
            _part(m[0], at_rows, (~cols).sum() + np.arange(dim)))


def _hom_differential(m: _Free, s: np.ndarray, r: np.ndarray, tables: _FreeTables) -> Matrix:
    """D f = d f - (-1)^|f| f d on Hom_A(m, m), at the coordinates (s, r):
    coordinate r of the value at generator s.  d f is d on each value, so
    it keeps the generator and raises the value's degree by one.  f d at
    generator s is sum_s' f(g_s') c_s's for the entries c_s's of d over A,
    read off its columns at the generators, so it keeps the value's slot,
    and coordinate k of a_j c is row k of L_j times c.  Only these entries
    are formed; the sign of f d is -(-1)^|value| (-1)^|s'|."""
    field, size, count, side = m.d.field, len(tables.start), len(m.vert), len(s)
    dim, q = len(m.coef), m.slot[r]
    i, j = np.nonzero((s[:, None] == s[None, :]) & (m.level[q][:, None] == m.level[q][None, :] + 1))
    gens = np.flatnonzero(tables.unit[m.coef])
    c = _by_entry(Matrix.from_blocks(field, count * size, count, [
        (m.slot * size + m.coef, 0, m.d.submatrix(slice(None), gens))]))
    entry = c.nonzero_mask().any(axis=0).reshape(count, count)
    i2, j2 = np.nonzero((q[:, None] == q[None, :]) & entry[s[:, None], s[None, :]])
    negative = (m.level[q[i2]] + m.level[s[j2]]) % 2 == 0
    return _placed(field, side, [
        (i, j, m.d.reshape(1, dim * dim).submatrix(slice(None), r[i] * dim + r[j])),
        (i2, j2, _products(tables.left, c.hstack(c.scale(-1)), m.coef[r[j2]] * size + m.coef[r[i2]],
                           s[i2] * count + s[j2] + negative * count * count))])


def _by_entry(over: Matrix) -> Matrix:
    """The entries c_tu of an S x S matrix over A, given as over with
    coefficient k of c_tu at over[t A.dim + k, u], as the columns u S + t
    of an A.dim x S^2 matrix."""
    count = over.cols
    size = over.rows // count if count else 0
    return over.reshape(count, size * count).transpose().reshape(size, count * count)


def _products(rows_of: Matrix, c: Matrix, row: np.ndarray, col: np.ndarray) -> Matrix:
    """The 1 x len(row) matrix of the entries (rows_of c)[row[p], col[p]],
    each the sum over k of rows_of[row[p], k] c[k, col[p]]."""
    return rows_of.submatrix(row, slice(None)).transpose().combine_blocks(c.submatrix(slice(None), col))


def _placed(field, side: int, entries) -> Matrix:
    """The side x side matrix with the entries of each 1 x len(i) matrix e
    of entries [(i, j, e), ...] at the positions (i, j), zeros elsewhere."""
    return Matrix.from_blocks(field, 1, side * side, [(0, i * side + j, e) for i, j, e in entries]) \
        .reshape(side, side)
