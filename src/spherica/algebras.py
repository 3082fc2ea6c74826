"""Finite-dimensional algebras presented by quivers with admissible relations.

Paths compose left to right: in the product ``p*q`` the path ``p`` is
traversed first, so ``e_v * p = p`` exactly when ``p`` starts at ``v``
and ``p * e_w = p`` exactly when ``p`` ends at ``w``.

A presentation is turned into an algebra by length-lexicographic
rewriting: each relation is oriented so its largest path (longest,
ties broken by arrow declaration order) rewrites to the remaining
terms.  The basis is the set of irreducible paths shorter than the
declared length bound; if an irreducible path reaches the bound the
presentation is rejected as infinite-dimensional (or the bound as too
small).  algebra_from_quiver checks the resulting table (Algebra.check):
associativity exhaustively, which also catches non-confluent
presentations, the unit and the vertex idempotents.  The Algebra
constructor does not check, so the opposites the engine derives from
checked algebras are not checked again.

Algebras are immutable and freely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Field, Matrix


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
        self._left_mats: list[Matrix] | None = None
        self._right_mats: list[Matrix] | None = None
        self._subspace_cache: dict = {}
        self._opposite: Algebra | None = None
        self._unit_complex = None   # complexes.unit_complex(self), once built
        self._dual_tables: dict = {}  # the tables bimodules.right_dual reads, once built

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
                            f"multiplication not associative on basis triple ({i},{j},{k}); "
                            "the presentation is likely not confluent")
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
        if self._left_mats is None:
            self._left_mats = self._mult_matrices(lambda a, b: self.mult[a][b])
        return self._left_mats[i]

    def right_mult_matrix(self, i: int) -> Matrix:
        """Matrix of x -> x * a_i on the regular module."""
        if self._right_mats is None:
            self._right_mats = self._mult_matrices(lambda a, b: self.mult[b][a])
        return self._right_mats[i]

    @property
    def generator_indices(self) -> list[int]:
        """Idempotents plus arrows: a generating set of the algebra."""
        return self.vertex_idempotents + self.arrow_indices

    # --- idempotent subspaces (cached) --------------------------------

    def left_ideal_basis(self, v: int) -> Matrix:
        """Basis (columns) of A*e_v inside the regular module."""
        key = ("Ae", v)
        if key not in self._subspace_cache:
            self._subspace_cache[key] = self.right_mult_matrix(v).image_basis()
        return self._subspace_cache[key]

    def right_ideal_basis(self, v: int) -> Matrix:
        """Basis (columns) of e_v*A inside the regular module."""
        key = ("eA", v)
        if key not in self._subspace_cache:
            self._subspace_cache[key] = self.left_mult_matrix(v).image_basis()
        return self._subspace_cache[key]

    def __repr__(self):
        label = self.name or "Algebra"
        return f"{label}(dim={self.dim}, field={self.field})"


# ---------------------------------------------------------------------------
# path rewriting
# ---------------------------------------------------------------------------


def _path_key(path: tuple[int, ...]) -> tuple:
    return (len(path), path)


class _Rewriter:
    """Length-lexicographic rewriting for paths in a quiver."""

    def __init__(self, field: Field, rules: dict[tuple[int, ...], list[tuple[object, tuple[int, ...]]]]):
        self.field = field
        self.rules = rules
        self.leads = sorted(rules, key=_path_key)

    def find_redex(self, path: tuple[int, ...]):
        best = None
        for lead in self.leads:
            ln = len(lead)
            if ln > len(path):
                continue
            for start in range(len(path) - ln + 1):
                if path[start:start + ln] == lead:
                    if best is None or start < best[0]:
                        best = (start, lead)
                    break
        return best

    def normal_form(self, combo: dict[tuple[int, ...], object], bound: int):
        """Rewrite a linear combination of paths to irreducible form."""
        f = self.field
        zero = f.elem(0)
        work = {p: c for p, c in combo.items() if c != zero}
        while True:
            target = None
            for p in sorted(work, key=_path_key, reverse=True):
                redex = self.find_redex(p)
                if redex is not None:
                    target = (p, redex)
                    break
            if target is None:
                break
            p, (start, lead) = target
            c = work.pop(p)
            for coeff, rhs in self.rules[lead]:
                q = p[:start] + rhs + p[start + len(lead):]
                work[q] = f.elem(work.get(q, zero) + c * coeff)
                if work[q] == zero:
                    del work[q]
        for p in work:
            if len(p) >= bound:
                raise AlgebraError(
                    "infinite-dimensional or bound too small: irreducible path "
                    f"of length {len(p)} survives rewriting")
        return work


def algebra_from_quiver(q: QuiverPresentation, field: Field, name: str = "") -> Algebra:
    """Build the path algebra of ``q`` modulo its relations over ``field``."""
    arrow_index = {a.name: i for i, a in enumerate(q.arrows)}
    src = [q.vertices.index(a.source) for a in q.arrows]
    tgt = [q.vertices.index(a.target) for a in q.arrows]

    def composable(path: tuple[int, ...]) -> bool:
        return all(tgt[path[i]] == src[path[i + 1]] for i in range(len(path) - 1))

    # relations -> rewrite rules
    rules: dict[tuple[int, ...], list[tuple[object, tuple[int, ...]]]] = {}
    pending = []
    for rel in q.relations:
        terms = []
        endpoints = None
        for coeff, path_names in rel:
            try:
                path = tuple(arrow_index[n] for n in path_names)
            except KeyError as e:
                raise AlgebraError(f"relation uses unknown arrow {e.args[0]!r}")
            if not composable(path):
                raise AlgebraError(f"relation path {'*'.join(path_names)} is not composable")
            if len(path) < 2:
                raise AlgebraError("relations must be admissible (paths of length >= 2)")
            ends = (src[path[0]], tgt[path[-1]])
            if endpoints is None:
                endpoints = ends
            elif endpoints != ends:
                raise AlgebraError("relation mixes paths with different endpoints")
            c = field.elem(coeff)
            if c != field.elem(0):
                terms.append((c, path))
        if terms:
            pending.append(terms)

    rewriter = _Rewriter(field, rules)
    for terms in sorted(pending, key=lambda t: _path_key(max(p for _, p in t))):
        combo = {}
        for c, p in terms:
            combo[p] = combo.get(p, field.elem(0)) + c
        combo = rewriter.normal_form(combo, q.length_bound + 1)
        if not combo:
            continue
        lead = max(combo, key=_path_key)
        c_lead = combo.pop(lead)
        inv = field.inv(c_lead)
        rhs = [(field.elem(-1) * inv * c, p) for p, c in sorted(combo.items(), key=lambda kv: _path_key(kv[0]))]
        rules[lead] = rhs
        rewriter = _Rewriter(field, rules)

    # enumerate irreducible paths breadth-first by length
    basis: list[tuple] = [("e", v) for v in range(len(q.vertices))]
    current = [(a,) for a in range(len(q.arrows))]
    length = 1
    while current:
        irreducible = [p for p in current if rewriter.find_redex(p) is None]
        if irreducible and length >= q.length_bound:
            raise AlgebraError(
                "infinite-dimensional or bound too small: irreducible path of "
                f"length {length} exists")
        basis.extend(irreducible)
        nxt = []
        for p in irreducible:
            for a in range(len(q.arrows)):
                if tgt[p[-1]] == src[a]:
                    nxt.append(p + (a,))
        current = nxt
        length += 1
        if length > q.length_bound:
            break
    if current and any(rewriter.find_redex(p) is None for p in current):
        raise AlgebraError("infinite-dimensional or bound too small")

    index = {p: i for i, p in enumerate(basis)}
    n = len(basis)

    def path_src(p) -> int:
        return p[1] if p[0] == "e" else src[p[0]]

    def path_tgt(p) -> int:
        return p[1] if p[0] == "e" else tgt[p[-1]]

    def real_path(p):
        return () if p[0] == "e" else p

    labels = []
    for p in basis:
        if p[0] == "e":
            labels.append(f"e_{q.vertices[p[1]]}")
        else:
            labels.append("*".join(q.arrows[a].name for a in p))

    zero = field.elem(0)
    mult: list[list[dict[int, object]]] = [[{} for _ in range(n)] for _ in range(n)]
    for i, p in enumerate(basis):
        for j, r in enumerate(basis):
            if path_tgt(p) != path_src(r):
                continue
            concat = real_path(p) + real_path(r)
            if concat == ():
                mult[i][j] = {i: field.elem(1)}
                continue
            nf = rewriter.normal_form({concat: field.elem(1)}, q.length_bound)
            out = {}
            for path, c in nf.items():
                if c != zero:
                    key = path if path else None
                    if key is None:
                        raise AlgebraError("rewriting produced a trivial path")
                    out[index[path]] = c
            mult[i][j] = out

    idempotents = [index[("e", v)] for v in range(len(q.vertices))]
    unit = Matrix.column(field, [int(k in idempotents) for k in range(n)])
    radical = [i for i, p in enumerate(basis) if p[0] != "e"]

    alg = Algebra(field, labels, mult, unit, idempotents, radical,
                  [real_path(p) for p in basis], name=name)
    alg.check()
    return alg


def opposite(a: Algebra) -> Algebra:
    """The opposite algebra: multiplication reversed, everything else shared.

    Built once per algebra and cached on it, so opposite(opposite(a)) is a.
    Not checked: the reversed table of an algebra is again an algebra.
    """
    if a._opposite is None:
        mult = [[dict(a.mult[j][i]) for j in range(a.dim)] for i in range(a.dim)]
        op = Algebra(a.field, a.basis_labels, mult, a.unit,
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
    if field not in _scalar_algebras:
        _scalar_algebras[field] = trivial_algebra(field)
    return _scalar_algebras[field]
