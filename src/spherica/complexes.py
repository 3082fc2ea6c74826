"""Bounded cochain complexes of bimodules and their calculus.

Sign conventions, fixed once and used by every construction:

* cohomological grading; shift (X[n])^i = X^{i+n} with differential
  multiplied by (-1)^n;
* cone(f: X -> Y)^n = X^{n+1} (+) Y^n with differential
  [[-d_X, 0], [f, d_Y]]; the canonical triangle is
  X -f-> Y -include-> cone(f) -project-> X[1];
* tensor differential d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy.

With these choices (X[n]) (x) Y equals (X (x) Y)[n] on the nose: the
same terms, slots in the same order, and the same differentials, so no
map is needed between them.  X (x) (Y[n]) is (X (x) Y)[n] up to the
sign (-1)^{n |x|} on each slot, and a map into a tensor with a shifted
right factor is written straight into the shifted tensor with that sign
(kernels.condition4_map), so no interchange map is built.  Triangle maps
are only ever produced by the cone constructor, never assembled by hand,
and only on first read.

Maps between direct sums, tensor totalizations included, are assembled
from blocks placed by offset (Matrix.from_blocks); a tensor complex's
layout gives the offset of every slot.  A term of a cone or a tensor is
the direct sum of the terms that exist in its degree, so no zero
bimodule stands in for a missing one.  The inclusions and projections of
the summands of a cone are slices of one identity per term; a direct sum
of complexes builds none, as the engine reads only the sum.

Differentials and chain-map components are plain matrices, one per
degree; the constructors check their shapes.

Quasi-isomorphism is the engine's equality notion: all kernel terms are
projective on both sides, so quasi-isomorphic kernels induce isomorphic
functors on the derived categories.  is_quasi_iso decides it on homology,
one rank per degree with cohomology, with no cone built.

Witnesses are sampled in one place: first_witness tries each basis
element, their sum when there are several, then random combinations
drawn by random_combination.
"""

from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from .algebras import Algebra, scalar_algebra  # noqa: F401  callers read complexes.scalar_algebra
from .bimodules import (
    Bimodule,
    BimoduleError,
    TensorData,
    check_map,
    coordinate_blocks,
    direct_sum,
    hom_space,
    regular_bimodule,
    summand,
    tensor_over_middle,
)
from .linalg import Matrix, kept

WITNESS_ATTEMPTS = 120  # random chain maps find_quasi_iso draws after the basis and its sum


class ComplexError(Exception):
    """Raised for malformed complexes or chain maps."""


class Complex:
    """A bounded cochain complex of (A,B)-bimodules.

    diffs[n] is the matrix of the differential from terms[n] to terms[n + 1].
    Zero terms and zero differentials are dropped on construction, and the
    constructor checks the shape of every differential it keeps; check()
    verifies the algebras and d^2 = 0, and bimodules.check_map the
    equivariance of a differential.
    """

    def __init__(self, left_algebra: Algebra, right_algebra: Algebra,
                 terms: dict[int, Bimodule], diffs: dict[int, Matrix]):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = left_algebra.field
        self.terms = {n: t for n, t in terms.items() if t.dim > 0}
        self.diffs = {}
        for n, d in diffs.items():
            if n not in self.terms or (n + 1) not in self.terms:
                continue
            if d.rows != self.terms[n + 1].dim or d.cols != self.terms[n].dim:
                raise ComplexError(f"differential {n} has shape {d.rows}x{d.cols}, expected "
                                   f"{self.terms[n + 1].dim}x{self.terms[n].dim}")
            if not d.is_zero():
                self.diffs[n] = d

    def check(self):
        """Raise ComplexError unless every term lives over the complex's
        algebras and d^2 = 0."""
        for n, t in self.terms.items():
            if t.left_algebra is not self.left_algebra or \
               t.right_algebra is not self.right_algebra:
                if t.left_algebra.mult != self.left_algebra.mult or \
                   t.right_algebra.mult != self.right_algebra.mult:
                    raise ComplexError(f"term {n} lives over different algebras")
        for n in self.diffs:
            if (n + 1) in self.diffs:
                comp = self.diffs[n + 1] * self.diffs[n]
                if not comp.is_zero():
                    raise ComplexError(f"d^2 != 0 at degree {n}")

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def term(self, n: int) -> Bimodule:
        return self.terms[n]

    def dim(self, n: int) -> int:
        t = self.terms.get(n)
        return t.dim if t else 0

    def diff_matrix(self, n: int) -> Matrix:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return Matrix.zeros(self.field, self.dim(n + 1), self.dim(n))

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * t.dim for n, t in self.terms.items())

    def total_dim(self) -> int:
        return sum(t.dim for t in self.terms.values())

    def __repr__(self):
        parts = ", ".join(f"{n}:{self.terms[n].dim}" for n in self.degrees())
        return f"Complex({parts or 'zero'})"


def unit_complex(a: Algebra) -> Complex:
    """The diagonal kernel's complex, built once per algebra and kept on it,
    so its one term, the diagonal, splits and builds its dual once."""
    return kept(a._tables, "unit complex", lambda: Complex(a, a, {0: regular_bimodule(a)}, {}))


class ChainMap:
    """A degree-zero map of complexes commuting with the differentials.

    The constructor checks the component shapes and drops zero components;
    check() verifies commutation with d and equivariance.
    """

    def __init__(self, source: Complex, target: Complex,
                 components: dict[int, Matrix]):
        self.source = source
        self.target = target
        self.field = source.field
        self.components = {}
        for n, mat in components.items():
            if mat.rows != target.dim(n) or mat.cols != source.dim(n):
                raise ComplexError(f"component {n} has shape {mat.rows}x{mat.cols}, "
                                   f"expected {target.dim(n)}x{source.dim(n)}")
            if mat.rows and mat.cols and not mat.is_zero():
                self.components[n] = mat

    def check(self):
        """Raise ComplexError unless the map commutes with the differentials,
        and BimoduleError unless every component is equivariant."""
        degrees = set(self.source.terms) | set(self.target.terms)
        for n in degrees:
            left = self.target.diff_matrix(n) * self.comp(n)
            right = self.comp(n + 1) * self.source.diff_matrix(n)
            if left != right:
                raise ComplexError(f"chain map does not commute with d at degree {n}")
        # equivariance of each component
        for n, mat in self.components.items():
            check_map(self.source.term(n), self.target.term(n), mat)

    def comp(self, n: int) -> Matrix:
        mat = self.components.get(n)
        if mat is not None:
            return mat
        return Matrix.zeros(self.field, self.target.dim(n), self.source.dim(n))

    def __add__(self, other: "ChainMap") -> "ChainMap":
        comps = {}
        for n in set(self.components) | set(other.components):
            comps[n] = self.comp(n) + other.comp(n)
        return ChainMap(self.source, self.target, comps)

    def scale(self, c) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {n: m.scale(c) for n, m in self.components.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def shift(x: Complex, n: int) -> Complex:
    """(X[n])^i = X^{i+n}, differential multiplied by (-1)^n."""
    terms = {i - n: t for i, t in x.terms.items()}
    sign = x.field.elem((-1) ** n)
    diffs = {i - n: d.scale(sign) for i, d in x.diffs.items()}
    return Complex(x.left_algebra, x.right_algebra, terms, diffs)


class ConeData:
    """A cone with its two canonical triangle maps.

    For f: X -> Y the triangle is X -> Y -include_target-> cone
    -project_source-> X[1]; include then project is zero.  Each map is
    built on first read, as slices of one identity per term: a twist whose
    triangle is never read builds neither.
    """

    def __init__(self, f: ChainMap, cone: Complex):
        self.f = f
        self.cone = cone

    @cached_property
    def include_target(self) -> ChainMap:
        x, eye = self.f.source, Matrix.identity
        return ChainMap(self.f.target, self.cone, {n: eye(x.field, t.dim).submatrix(
            slice(None), slice(x.dim(n + 1), None)) for n, t in self.cone.terms.items()})

    @cached_property
    def project_source(self) -> ChainMap:
        x, eye = self.f.source, Matrix.identity
        return ChainMap(self.cone, shift(x, 1), {n: eye(x.field, t.dim).submatrix(
            slice(0, x.dim(n + 1)), slice(None)) for n, t in self.cone.terms.items()})


def cone(f: ChainMap) -> ConeData:
    """The cone of f: X -> Y with its two triangle maps, which are built on
    first read.  The blocks -d_X, f and d_Y of each differential are placed
    by offset."""
    x, y = f.source, f.target
    field = x.field
    terms = {n: direct_sum([t for t in (x.terms.get(n + 1), y.terms.get(n)) if t is not None])
             for n in sorted({n - 1 for n in x.terms} | set(y.terms))}
    diffs = {}
    for n in terms:
        if (n + 1) not in terms:
            continue
        # d(x, y) = (-dx, fx + dy)
        top, left = x.dim(n + 2), x.dim(n + 1)
        blocks = []
        if (n + 1) in x.diffs:
            blocks.append((0, 0, x.diffs[n + 1].scale(-1)))
        if (n + 1) in f.components:
            blocks.append((top, 0, f.components[n + 1]))
        if n in y.diffs:
            blocks.append((top, left, y.diffs[n]))
        diffs[n] = Matrix.from_blocks(field, terms[n + 1].dim, terms[n].dim, blocks)
    return ConeData(f, Complex(x.left_algebra, x.right_algebra, terms, diffs))


def direct_sum_complexes(xs: list[Complex]) -> Complex:
    """The direct sum of the complexes, the summands' coordinates in order
    in every term."""
    if not xs:
        raise ComplexError("empty direct sum of complexes")
    field = xs[0].field
    degrees = sorted(set().union(*(x.terms for x in xs)))
    terms = {n: direct_sum([x.terms[n] for x in xs if n in x.terms]) for n in degrees}
    diffs = {n: Matrix.block_diag(field, [x.diff_matrix(n) for x in xs])
             for n in terms if (n + 1) in terms}
    return Complex(xs[0].left_algebra, xs[0].right_algebra, terms, diffs)


# ---------------------------------------------------------------------------
# tensor product of complexes
# ---------------------------------------------------------------------------


class TensorComplex:
    """Total complex of the tensor bicomplex.

    layout[n] maps each slot (i, j) with i + j = n, in increasing i, to
    (td, offset): the tensor x^i (x) y^j as TensorData and the first
    coordinate of that slot in the total term of degree n.  Maps between
    total complexes are assembled slot by slot, each block placed at its
    offsets.
    """

    def __init__(self, x: Complex, y: Complex):
        if x.right_algebra.mult != y.left_algebra.mult:
            raise BimoduleError("tensor_cx: middle algebras differ")
        self.x = x
        self.y = y
        field = x.field
        self.layout: dict[int, dict[tuple[int, int], tuple[TensorData, int]]] = {}
        for n in sorted({i + j for i in x.terms for j in y.terms}):
            slots, offset = {}, 0
            for i in x.degrees():
                if n - i in y.terms:
                    td = tensor_over_middle(x.term(i), y.term(n - i))
                    slots[(i, n - i)] = (td, offset)
                    offset += td.bimodule.dim
            self.layout[n] = slots
        terms = {n: direct_sum([td.bimodule for td, _ in slots.values()])
                 for n, slots in self.layout.items()}
        diffs = {}
        for n, slots in self.layout.items():
            tgt = self.layout.get(n + 1)
            if tgt is None:
                continue
            blocks = []
            for (i, j), (td, off) in slots.items():
                # d_x (x) id : slot (i,j) -> (i+1, j)
                if (i + 1, j) in tgt and i in x.diffs:
                    td2, off2 = tgt[(i + 1, j)]
                    blocks.append((off2, off, td.induced(x.diffs[i], None, td2)))
                # (-1)^i id (x) d_y : slot (i,j) -> (i, j+1)
                if (i, j + 1) in tgt and j in y.diffs:
                    td2, off2 = tgt[(i, j + 1)]
                    block = td.induced(None, y.diffs[j], td2)
                    blocks.append((off2, off, block.scale(-1) if i % 2 else block))
            diffs[n] = Matrix.from_blocks(field, terms[n + 1].dim, terms[n].dim, blocks)
        self.complex = Complex(x.left_algebra, y.right_algebra, terms, diffs)

def tensor_cx(x: Complex, y: Complex) -> TensorComplex:
    return TensorComplex(x, y)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def homology_dims(x: Complex) -> dict[int, int]:
    """Degree -> dimension of cohomology, by exact rank computations."""
    ranks = {n: d.rank() for n, d in x.diffs.items()}
    out = {}
    for n in x.degrees():
        h = x.dim(n) - ranks.get(n, 0) - ranks.get(n - 1, 0)
        if h:
            out[n] = h
    return out


def block_homology_dims(x: Complex) -> dict[int, np.ndarray]:
    """Degree -> the matrix of dim e_u H^n e_w over the left vertices u and
    the right vertices w, in every degree with nonzero cohomology.  The
    vertex idempotents commute with d, so e_u x e_w is a subcomplex with
    cohomology e_u H e_w, and its differential is d read between the
    terms' double blocks."""
    shape = (len(x.left_algebra.vertex_idempotents), len(x.right_algebra.vertex_idempotents))
    if shape == (1, 1):
        # each vertex idempotent is the unit, so e_u x e_w is x itself
        return {n: np.array([[h]]) for n, h in homology_dims(x).items()}
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


def is_quasi_iso(f: ChainMap) -> bool:
    """Whether f: X -> Y induces an isomorphism on cohomology, decided on
    homology, with no cone built.  X and Y must have the same cohomology
    dimensions.  In each degree n with h = dim H^n(X) > 0, let Z be a basis
    of the cycles of X^n; f maps the boundaries of X into those of Y, so
    rank [d_Y^{n-1} | f^n Z] - rank d_Y^{n-1} is the rank of H^n(f), which
    is bijective exactly when that rank is h."""
    x, y = f.source, f.target
    dims = homology_dims(x)
    if dims != homology_dims(y):
        return False
    for n, h in dims.items():
        if n not in f.components:
            return False
        images = f.components[n] * x.diffs[n].nullspace() if n in x.diffs else f.components[n]
        if n - 1 in y.diffs:
            boundaries = y.diffs[n - 1]
            images, h = boundaries.hstack(images), h + boundaries.rank()
        if images.rank() != h:
            return False
    return True


# ---------------------------------------------------------------------------
# minimal models by Gaussian elimination
# ---------------------------------------------------------------------------


def minimal_model(x: Complex) -> Complex:
    """A complex homotopy equivalent to x, with every invertible component
    of the differential between coordinate blocks cancelled (Bar-Natan,
    "Fast Khovanov homology computations", arXiv:math/0606318).

    Every action matrix of a term is block diagonal on its coordinate
    blocks (bimodules.coordinate_blocks), so each block spans a bimodule
    direct summand, and the component b = d[X', X] between blocks X in
    degree n and X' in degree n+1 is a bimodule map.  When b is invertible,
      ... -> X (+) D --[[b, delta], [gamma, eps]]--> X' (+) E -> ...
    is homotopy equivalent to ... -> D --(eps - gamma b^-1 delta)--> E -> ...,
    with the X rows of d^{n-1} and the X' columns of d^{n+1} dropped.  The
    blocks are tried in the order of their first coordinates; a term with
    records reads them off its pieces, so no action matrix of a tensor is
    built.  The terms of the result are direct summands of x's
    (bimodules.summand), so they are projective on every side x's terms
    are, and they keep the records they hold whole.  No homotopy data is
    kept.  When no block cancels, the result is x itself.
    """
    keep = {n: np.arange(t.dim) for n, t in x.terms.items()}
    blocks = {n: coordinate_blocks(t) for n, t in x.terms.items()}
    d = dict(x.diffs)
    for n in sorted(d):
        while pair := _invertible_pair(d[n], keep[n], keep[n + 1], blocks[n], blocks[n + 1]):
            src, tgt = pair
            cols, rows = np.isin(keep[n], src), np.isin(keep[n + 1], tgt)
            eliminate(d, n, cols, rows)
            keep[n], keep[n + 1] = keep[n][~cols], keep[n + 1][~rows]
            blocks[n] = [blk for blk in blocks[n] if blk is not src]
            blocks[n + 1] = [blk for blk in blocks[n + 1] if blk is not tgt]
    if all(len(keep[n]) == t.dim for n, t in x.terms.items()):
        return x
    terms = {n: t if len(keep[n]) == t.dim else summand(t, keep[n])
             for n, t in x.terms.items()}
    return Complex(x.left_algebra, x.right_algebra, terms, d)


def eliminate(d: dict[int, Matrix], n: int, cols: np.ndarray, rows: np.ndarray) -> None:
    """One step of Gaussian elimination, in place: for the invertible
    component b = d[n][rows, cols] of d[n] = [[b, delta], [gamma, eps]],
    d[n] becomes eps - gamma b^-1 delta, d[n - 1] loses the rows cols and
    d[n + 1] the columns rows.  cols and rows are boolean masks of leading
    columns and rows: a matrix longer than a mask keeps its trailing rows
    or columns, which a caller uses to carry maps along with d."""
    def mask(m: np.ndarray, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=bool)
        out[:len(m)] = m
        return out

    c, r = mask(cols, d[n].cols), mask(rows, d[n].rows)
    top, rest = d[n].submatrix(r, slice(None)), d[n].submatrix(~r, slice(None))
    b, delta = top.submatrix(slice(None), c), top.submatrix(slice(None), ~c)
    d[n] = rest.submatrix(slice(None), ~c) - rest.submatrix(slice(None), c) * (b.inverse() * delta)
    if n - 1 in d:
        d[n - 1] = d[n - 1].submatrix(~mask(cols, d[n - 1].rows), slice(None))
    if n + 1 in d:
        d[n + 1] = d[n + 1].submatrix(slice(None), ~mask(rows, d[n + 1].cols))


def _part(m: Matrix, rows, cols) -> Matrix:
    return m.submatrix(rows, slice(None)).submatrix(slice(None), cols)


def _invertible_pair(d: Matrix, keep_src: np.ndarray, keep_tgt: np.ndarray,
                     src_blocks: list[np.ndarray], tgt_blocks: list[np.ndarray]):
    """The first blocks (X, X') of equal size with d[X', X] invertible, or
    None; d acts on the coordinates keep_src and lands in keep_tgt."""
    for src in src_blocks:
        cols = np.searchsorted(keep_src, src)
        for tgt in tgt_blocks:
            if len(tgt) == len(src):
                part = _part(d, np.searchsorted(keep_tgt, tgt), cols)
                if not part.is_zero() and part.is_invertible():
                    return src, tgt
    return None


# ---------------------------------------------------------------------------
# spaces of chain maps and quasi-isomorphism search
# ---------------------------------------------------------------------------


def chain_map_space(x: Complex, y: Complex) -> list[ChainMap]:
    """Basis of the space of chain maps x -> y (both-sided equivariant)."""
    field = x.field
    degrees = sorted(set(x.terms) & set(y.terms))
    bases = {}
    for n in degrees:
        homs = hom_space(x.term(n), y.term(n))
        if homs:
            bases[n] = homs
    if not bases:
        return []
    offsets = {}
    total = 0
    for n in sorted(bases):
        offsets[n] = total
        total += len(bases[n])

    # one row block per degree n: d_y F_n - F_{n+1} d_x = 0, each basis
    # element's image flattened into its own column
    rows = []
    for n in sorted(set(x.terms) | set(y.terms)):
        rdim = y.dim(n + 1) * x.dim(n)
        if rdim == 0:
            continue
        cols = []
        if n in bases and n in y.diffs:
            cols += [(offsets[n] + a, y.diffs[n] * F)
                     for a, F in enumerate(bases[n])]
        if (n + 1) in bases and n in x.diffs:
            minus_dx = x.diffs[n].scale(-1)
            cols += [(offsets[n + 1] + b, G * minus_dx)
                     for b, G in enumerate(bases[n + 1])]
        cols = [(c, img.reshape(rdim, 1)) for c, img in cols if not img.is_zero()]
        if cols:
            rows.append(Matrix.from_blocks(field, rdim, total, [(0, c, v) for c, v in cols]))

    if rows:
        null = Matrix.stack_rows(field, rows, total).nullspace()
    else:
        null = Matrix.identity(field, total)
    comps = {n: Matrix.combinations(homs, null.submatrix(
        slice(offsets[n], offsets[n] + len(homs)), slice(None))) for n, homs in bases.items()}
    return [ChainMap(x, y, {n: mats[c] for n, mats in comps.items()})
            for c in range(null.cols)]


def random_combination(basis: list, field, rng: random.Random):
    """sum_i c_i basis[i] with one coefficient c_i drawn per element, in
    order: a residue mod p, or over Q an integer in [-9, 9].  None when
    every c_i is 0.  The elements are matrices or maps."""
    f = None
    for b in basis:
        c = rng.randrange(field.p) if field.is_prime_field else rng.randrange(-9, 10)
        if c:
            f = b.scale(c) if f is None else f + b.scale(c)
    return f


def first_witness(basis: list, accept, field, rng: random.Random, attempts: int):
    """The first element that accept() takes among: each basis element, then
    their sum when there are several, then up to `attempts` random
    combinations (all-zero draws are skipped); None when there is none.
    basis must not be empty."""
    candidates = [*basis, sum(basis[1:], basis[0])] if len(basis) > 1 else basis
    for f in candidates:
        if accept(f):
            return f
    for _ in range(attempts):
        f = random_combination(basis, field, rng)
        if f is not None and accept(f):
            return f
    return None


def find_quasi_iso(x: Complex, y: Complex, rng: random.Random) -> ChainMap | None:
    """Search the chain-map space for a quasi-isomorphism x -> y, with up to
    WITNESS_ATTEMPTS random combinations after the basis and its sum.

    Deterministic given the rng state; returns None when the homology
    profiles differ or no candidate in the sampled set works.
    """
    hx = homology_dims(x)
    if hx != homology_dims(y):
        return None
    if not hx:
        # both acyclic: every chain map, including zero, is a quasi-iso
        return ChainMap(x, y, {})
    basis = chain_map_space(x, y)
    if not basis:
        return None
    return first_witness(basis, lambda f: not f.is_zero() and is_quasi_iso(f),
                         x.field, rng, WITNESS_ATTEMPTS)
