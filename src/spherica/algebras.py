"""Finite-dimensional algebras presented by quivers with admissible relations.

Paths compose left to right: in the product ``p*q`` the path ``p`` is
traversed first, so ``e_v * p = p`` exactly when ``p`` starts at ``v``
and ``p * e_w = p`` exactly when ``p`` ends at ``w``.

A presentation with length bound N is the algebra kQ/(I + paths longer
than N), I the ideal of its relations, built by one echelon form: its
rows are the products u*r*v of each relation r with paths u and v, cut
at length N, and its columns the paths of length 2 to N, longest first
(ties broken by arrow declaration order), so each row's pivot is its
leading path.  For this path order the paths that are no pivot form the
one standard basis of the quotient, ordered by length and then
declaration order, and the reduced row of a pivot path is its normal
form.  A path of length N that is no pivot does not reduce to shorter
paths, so the presentation is rejected as infinite-dimensional (or the
bound as too small).  The table is the quotient's by construction,
associative and unital; Algebra.check() verifies a table on request.
The Algebra constructor does not check either.

Algebras are immutable and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Field, Matrix, kept


class AlgebraError(Exception):
    """Raised for invalid presentations or incompatible algebra operations."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class QuiverPresentation:
    """A quiver with admissible relations and a path-length bound.

    relations: list of formal linear combinations, each a list of
    (coefficient, path) pairs where a path is a tuple of arrow names.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[tuple[object, tuple[str, ...]], ...], ...] = ()
    length_bound: int = 1

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex names")
        names = set(self.vertices)
        seen = set()
        for a in self.arrows:
            if a.source not in names or a.target not in names:
                raise AlgebraError(f"arrow {a.name}: unknown endpoint")
            if a.name in seen or a.name in names:
                raise AlgebraError(f"duplicate name {a.name!r}")
            seen.add(a.name)
        if self.length_bound < 1:
            raise AlgebraError("length_bound must be >= 1")


class Algebra:
    """A finite-dimensional associative unital algebra with a path basis.

    Fields follow the construction: ``basis_labels`` name the basis
    elements, ``mult[i][j]`` is the sparse product {k: coeff} of basis
    elements i and j, ``unit`` is the coefficient vector of 1,
    ``vertex_idempotents`` indexes the trivial paths,
    ``radical_basis`` the basis elements of path length >= 1 and
    ``arrow_indices`` those of path length 1.  check() verifies the axioms.
    """

    def __init__(self, field: Field, basis_labels: list[str],
                 mult: list[list[dict[int, object]]], unit: Matrix,
                 vertex_idempotents: list[int], radical_basis: list[int],
                 basis_paths: list[tuple], name: str = ""):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.mult = mult
        self.unit = unit
        self.vertex_idempotents = list(vertex_idempotents)
        self.radical_basis = list(radical_basis)
        self.basis_paths = basis_paths
        self.arrow_indices = [i for i, p in enumerate(basis_paths) if len(p) == 1]
        self.name = name
        self._opposite: Algebra | None = None
        self._tables: dict = {}  # all the engine derives from the algebra, kept

    # --- validation ---------------------------------------------------

    def check(self):
        """Raise AlgebraError unless the unit is a two-sided identity, the
        product is associative and the vertex idempotents are orthogonal
        idempotents summing to the unit."""
        f = self.field
        zero = f.elem(0)
        # unit is a two-sided identity
        for i in range(self.dim):
            if self.multiply_vec(self.unit, Matrix.basis_vector(f, self.dim, i)) != \
               Matrix.basis_vector(f, self.dim, i):
                raise AlgebraError("unit is not a left identity")
            if self.multiply_vec(Matrix.basis_vector(f, self.dim, i), self.unit) != \
               Matrix.basis_vector(f, self.dim, i):
                raise AlgebraError("unit is not a right identity")
        # associativity on every basis triple (sparse, so cheap)
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult[i][j]
                for k in range(self.dim):
                    jk = self.mult[j][k]
                    left: dict[int, object] = {}
                    for m, c in ij.items():
                        for n, d in self.mult[m][k].items():
                            left[n] = left.get(n, zero) + c * d
                    right: dict[int, object] = {}
                    for m, c in jk.items():
                        for n, d in self.mult[i][m].items():
                            right[n] = right.get(n, zero) + c * d
                    lf = {n: f.elem(c) for n, c in left.items() if f.elem(c) != zero}
                    rf = {n: f.elem(c) for n, c in right.items() if f.elem(c) != zero}
                    if lf != rf:
                        raise AlgebraError(
                            f"multiplication not associative on basis triple ({i},{j},{k})")
        # vertex idempotents: orthogonal, sum to the unit
        total = Matrix.zeros(f, self.dim, 1)
        for v in self.vertex_idempotents:
            ev = Matrix.basis_vector(f, self.dim, v)
            total = total + ev
            for w in self.vertex_idempotents:
                ew = Matrix.basis_vector(f, self.dim, w)
                prod = self.multiply_vec(ev, ew)
                expected = ev if v == w else Matrix.zeros(f, self.dim, 1)
                if prod != expected:
                    raise AlgebraError("vertex idempotents are not orthogonal idempotents")
        if total != self.unit:
            raise AlgebraError("vertex idempotents do not sum to the unit")

    # --- multiplication ----------------------------------------------

    def multiply_vec(self, x: Matrix, y: Matrix) -> Matrix:
        """Product of two elements given as dim x 1 coefficient vectors."""
        # Python numbers, so that products of residues cannot overflow
        xs = [r[0] for r in x.entries()]
        ys = [r[0] for r in y.entries()]
        acc = [0] * self.dim
        for i, xi in enumerate(xs):
            if not xi:
                continue
            for j, yj in enumerate(ys):
                if not yj:
                    continue
                for k, c in self.mult[i][j].items():
                    acc[k] += xi * yj * c
        return Matrix.column(self.field, acc)

    def _mult_matrices(self, product) -> list[Matrix]:
        """For each basis element a, the matrix whose column b holds the
        coefficients of product(a, b)."""
        out = []
        for a in range(self.dim):
            rows = [[0] * self.dim for _ in range(self.dim)]
            for b in range(self.dim):
                for k, c in product(a, b).items():
                    rows[k][b] = c
            out.append(Matrix(self.field, rows))
        return out

    def left_mult_matrix(self, i: int) -> Matrix:
        """Matrix of x -> a_i * x on the regular module."""
        return kept(self._tables, "left mults",
                    lambda: self._mult_matrices(lambda a, b: self.mult[a][b]))[i]

    def right_mult_matrix(self, i: int) -> Matrix:
        """Matrix of x -> x * a_i on the regular module."""
        return kept(self._tables, "right mults",
                    lambda: self._mult_matrices(lambda a, b: self.mult[b][a]))[i]

    @property
    def generator_indices(self) -> list[int]:
        """Idempotents plus arrows: a generating set of the algebra."""
        return self.vertex_idempotents + self.arrow_indices

    # --- idempotent subspaces (kept) ---------------------------------

    def left_ideal_basis(self, v: int) -> Matrix:
        """Basis (columns) of A*e_v inside the regular module."""
        return kept(self._tables, ("Ae", v), lambda: self.right_mult_matrix(v).image_basis())

    def right_ideal_basis(self, v: int) -> Matrix:
        """Basis (columns) of e_v*A inside the regular module."""
        return kept(self._tables, ("eA", v), lambda: self.left_mult_matrix(v).image_basis())

    def __repr__(self):
        label = self.name or "Algebra"
        return f"{label}(dim={self.dim}, field={self.field})"


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def algebra_from_quiver(q: QuiverPresentation, field: Field, name: str = "") -> Algebra:
    """Build the path algebra of ``q`` over ``field`` modulo its relations
    and the paths longer than its length bound."""
    bound = q.length_bound
    arrow_index = {a.name: i for i, a in enumerate(q.arrows)}
    src = [q.vertices.index(a.source) for a in q.arrows]
    tgt = [q.vertices.index(a.target) for a in q.arrows]

    def label(path: tuple[int, ...]) -> str:
        return "*".join(q.arrows[a].name for a in path)

    # the paths of length 1..bound, ordered by length and then
    # lexicographically, and for each vertex the paths (the trivial one
    # first) that start or end there
    paths: list[tuple[int, ...]] = []
    layer = [(a,) for a in range(len(q.arrows))]
    while layer and len(layer[0]) <= bound:
        paths.extend(layer)
        layer = [p + (a,) for p in layer for a in range(len(q.arrows)) if tgt[p[-1]] == src[a]]
    starting = [[()] + [p for p in paths if src[p[0]] == v] for v in range(len(q.vertices))]
    ending = [[()] + [p for p in paths if tgt[p[-1]] == v] for v in range(len(q.vertices))]

    # one row u*r*v per relation r and paths u, v, cut at length bound; the
    # columns are the paths of length >= 2, longest first, so each row's
    # pivot is its leading path
    columns = [p for p in reversed(paths) if len(p) >= 2]
    column = {p: j for j, p in enumerate(columns)}
    rows = []
    for rel in q.relations:
        terms: dict[tuple[int, ...], object] = {}
        endpoints = None
        for coeff, path_names in rel:
            try:
                path = tuple(arrow_index[n] for n in path_names)
            except KeyError as e:
                raise AlgebraError(f"relation uses unknown arrow {e.args[0]!r}")
            if any(tgt[a] != src[b] for a, b in zip(path, path[1:])):
                raise AlgebraError(f"relation path {'*'.join(path_names)} is not composable")
            if len(path) < 2:
                raise AlgebraError("relations must be admissible (paths of length >= 2)")
            if endpoints not in (None, (src[path[0]], tgt[path[-1]])):
                raise AlgebraError("relation mixes paths with different endpoints")
            endpoints = (src[path[0]], tgt[path[-1]])
            terms[path] = terms.get(path, 0) + field.elem(coeff)
        if endpoints is None:
            continue
        room = bound - min(map(len, terms))
        for u in ending[endpoints[0]]:
            for v in starting[endpoints[1]]:
                if len(u) + len(v) <= room:
                    row = [0] * len(columns)
                    for path, c in terms.items():
                        if len(u) + len(path) + len(v) <= bound:
                            row[column[u + path + v]] = c
                    rows.append(row)
    reduced, pivots = Matrix.from_rows(field, rows, len(columns)).rref()
    leading = {columns[j]: row for j, row in zip(pivots, reduced.entries())}

    standard = [p for p in paths if p not in leading]
    for p in standard:
        if len(p) == bound:
            raise AlgebraError(
                "infinite-dimensional or bound too small: the relations do not reduce "
                f"the path {label(p)} of length {bound}")
    n_vertices = len(q.vertices)
    index = {p: n_vertices + i for i, p in enumerate(standard)}

    def normal_form(path: tuple[int, ...]) -> dict[int, object]:
        if path in index:
            return {index[path]: field.elem(1)}
        if len(path) > bound:
            return {}
        return {index[columns[j]]: field.elem(-c) for j, c in enumerate(leading[path])
                if c and columns[j] != path}

    ends = [(v, v) for v in range(n_vertices)] + [(src[p[0]], tgt[p[-1]]) for p in standard]
    basis_paths = [()] * n_vertices + standard
    n = len(basis_paths)
    mult: list[list[dict[int, object]]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if ends[i][1] == ends[j][0]:
                concat = basis_paths[i] + basis_paths[j]
                mult[i][j] = normal_form(concat) if concat else {i: field.elem(1)}

    labels = [f"e_{v}" for v in q.vertices] + [label(p) for p in standard]
    idempotents = list(range(n_vertices))
    unit = Matrix.column(field, [int(k < n_vertices) for k in range(n)])
    return Algebra(field, labels, mult, unit, idempotents, list(range(n_vertices, n)),
                   basis_paths, name=name)


class _Opposite(Algebra):
    """opposite(a), reading a's multiplication matrices and ideal bases, sides swapped."""

    def left_mult_matrix(self, i: int) -> Matrix:
        return self._opposite.right_mult_matrix(i)

    def right_mult_matrix(self, i: int) -> Matrix:
        return self._opposite.left_mult_matrix(i)

    def left_ideal_basis(self, v: int) -> Matrix:
        return self._opposite.right_ideal_basis(v)

    def right_ideal_basis(self, v: int) -> Matrix:
        return self._opposite.left_ideal_basis(v)


def opposite(a: Algebra) -> Algebra:
    """The opposite algebra: multiplication reversed, everything else shared.

    Built once per algebra and kept on it, so opposite(opposite(a)) is a.
    Not checked: the reversed table of an algebra is again an algebra.
    """
    if a._opposite is None:
        mult = [[dict(a.mult[j][i]) for j in range(a.dim)] for i in range(a.dim)]
        op = _Opposite(a.field, a.basis_labels, mult, a.unit,
                       a.vertex_idempotents, a.radical_basis, a.basis_paths,
                       name=f"{a.name}^op" if a.name else "op")
        op._opposite = a
        a._opposite = op
    return a._opposite


# small canonical presentations used across the engine and tests ---------

def trivial_algebra(field: Field) -> Algebra:
    """The ground field as a one-vertex quiver algebra."""
    q = QuiverPresentation(vertices=("pt",), arrows=(), relations=(), length_bound=1)
    return algebra_from_quiver(q, field, name="k")


_scalar_algebras: dict[Field, Algebra] = {}


def scalar_algebra(field: Field) -> Algebra:
    """The ground field as an algebra, shared per field."""
    return kept(_scalar_algebras, field, lambda: trivial_algebra(field))
