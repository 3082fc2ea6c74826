"""Exact dense linear algebra over prime fields F_p and the rationals.

Every number in the engine lives here: a matrix is an integer numpy array
arr over a positive integer den, and all arithmetic is exact.  Only this
module reads or writes those arrays; the rest of the engine builds and
reads matrices through Matrix operations such as from_blocks (blocks
placed in zeros), combinations (linear combinations of equal-shape
matrices), reshape, entries and nonzero_entries.  combine_blocks forms
column-by-column combinations of row blocks, and combine_slots does so
for several coefficient blocks in one batched product, projecting each
result: one call gives every slot of a tensor's coordinates.

Row reduction uses deterministic pivoting (first nonzero column, then
first nonzero row), so every basis produced downstream is reproducible
bit for bit.  Over Q a pivot step updates only the rows hit by the
pivot: those with a nonzero entry in its column.  Over F_p each row is
reduced against sparse pivot rows, {column: residue} dicts kept reduced
against each other, with no numpy call per pivot; F_p matrices of at most
SMALL_RREF entries are reduced on dense Python int rows, which is faster
there.  The reduced form is unique, so both give the same R and pivots.

Over F_p, arr holds int64 residues and den is 1.  Prime fields go up to
p = 2^31 - 1 (MAX_PRIME), so a product of two residues fits in int64.  A
product A (m x k) times B (k x n) over F_p is computed in one of two
exact ways, chosen by its size alone:

* float64 BLAS when k (p-1)^2 < 2^53, so every partial sum is an
  integer that a double holds exactly, and m k n >= BLAS_MIN_MACS, a
  measured size below which converting costs about what BLAS saves;
* int64 otherwise, reducing mod p once at the end, or after each run of
  the inner dimension whose partial sums stay below 2^63 when
  k (p-1)^2 would not.  Batched combinations run the same way.

Over Q the matrix is arr / den in lowest terms (a zero matrix has den 1),
with arr int64 exactly when every |numerator| < 2^63 and Python ints
otherwise, so equal matrices have equal arr and den.  Sums, products,
Kronecker products and scalings run on numerators over the product or
lcm of the denominators, in int64 when a bound on every result (such as
k max|A| max|B| for a product, each matrix's max computed once) stays
below 2^63; blocks and stacks bring their parts to the lcm of their
denominators.  Row reduction runs on integer rows kept primitive and
returns them over the lcm of the pivots: the reduced form elimination on
Fractions gives.  Fractions appear only where numbers come in
(Field.elem, the Matrix constructor) and go out (entries).

Matrices are immutable after construction and safe to share between
threads; all operations return fresh objects.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_PRIME = 2 ** 31 - 1
BLAS_MIN_MACS = 32 ** 3
SMALL_RREF = 128  # F_p matrices with at most this many entries are row-reduced on Python ints
_FLOAT_EXACT = 2 ** 53
_INT64_MAX = 2 ** 63 - 1
_UNBUILT = object()


def kept(cache: dict, key, build):
    """cache[key], made by build() on the first read and kept, None too: the
    one way the engine keeps what it derives from its immutable objects."""
    out = cache.get(key, _UNBUILT)
    if out is _UNBUILT:
        out = cache[key] = build()
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """An exact coefficient field: F_p for a prime p, or Q."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and p > MAX_PRIME:
            raise ValueError(f"prime fields go up to 2^31 - 1 = {MAX_PRIME}, not {p}")
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def __eq__(self, other):
        return self is other or (isinstance(other, Field) and self.p == other.p)

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"F{self.p}" if self.p is not None else "Q"

    # scalar helpers -------------------------------------------------

    def elem(self, x) -> object:
        """Coerce an int, Fraction or 'a/b' string into a field element."""
        if self.p is not None:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError(f"{x} has no image in F_{self.p}")
                return (x.numerator * pow(x.denominator, self.p - 2, self.p)) % self.p
            if isinstance(x, str):
                return self.elem(Fraction(x))
            return int(x) % self.p
        if isinstance(x, np.integer):
            x = int(x)  # a Fraction of numpy integers would wrap around silently
        return Fraction(x)

    def inv(self, x):
        if self.p is not None:
            x = int(x) % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(x, -1, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / x


@lru_cache(maxsize=None)
def _int64_run(p: int) -> int:
    """How many products of residues mod p can be summed onto a residue
    while the sum stays below 2^63."""
    return max(1, (_INT64_MAX - (p - 1)) // max(1, (p - 1) ** 2))


def _top(arr: np.ndarray) -> int:
    """The largest |entry| of an integer array, 0 when it is empty."""
    return int(np.maximum.reduce(np.abs(arr), axis=None, initial=0))


def _exact(factor: int, *mats: "Matrix") -> tuple[np.ndarray, ...]:
    """Over Q, the numerator arrays of mats as Python ints when factor times
    the product of their largest |numerators| (the bound on what the caller
    forms from them) reaches 2^63, and as they are otherwise.  Over F_p they
    are returned as they are: residues below 2^31 never overflow."""
    if mats[0].field.p is None and \
            factor * math.prod([max(m._largest(), 1) for m in mats]) > _INT64_MAX:
        return tuple(m.arr.astype(object) for m in mats)
    return tuple(m.arr for m in mats)


def _common(field: Field, mats: list["Matrix"]) -> tuple[list[np.ndarray], int]:
    """The numerator arrays of mats over their least common denominator."""
    if field.p is not None:
        return [m.arr for m in mats], 1
    den = math.lcm(*[m.den for m in mats])
    return [m._over(den) for m in mats], den


def _primitive_rows(rows: np.ndarray) -> np.ndarray:
    """Each row divided by the gcd of its entries (zero rows stay zero)."""
    return rows // np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]


def _rref_small(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """_rref_mod_p on dense Python int rows, for matrices small enough that
    sparse rows do not pay; the reduced form is unique, so R and the pivots
    agree."""
    rows, cols = arr.shape
    R = arr.tolist()
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        for i in range(r, rows):
            if R[i][c]:
                break
        else:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], -1, p)
        row = R[r] = [x * inv % p for x in R[r]]
        for k in range(rows):
            if k != r and (f := R[k][c]):
                R[k] = [(x - f * y) % p for x, y in zip(R[k], row)]
        pivots.append(c)
    return np.array(R, dtype=np.int64).reshape(rows, cols), pivots


def _rref_mod_p(arr: np.ndarray, field: Field) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivots of a matrix of residues mod p.

    Each input row in turn is reduced against the pivot rows found so far,
    kept as sparse {column: residue} rows with a 1 at their pivot and zeros
    at each other's pivots; a row left nonzero is scaled to a new pivot
    row at its first column, which is cleared from the others.  The rows
    span the row space and are reduced, so they are its unique RREF."""
    p = field.p

    def subtract(target: dict[int, int], f: int, row: dict[int, int]) -> None:
        for k, x in row.items():
            if y := (target.get(k, 0) - f * x) % p:
                target[k] = y
            else:
                del target[k]

    lines: dict[int, dict[int, int]] = {}  # the nonzero rows, in order
    at = arr.nonzero()
    for r, c, x in zip(*(a.tolist() for a in at), arr[at].tolist()):
        lines.setdefault(r, {})[c] = x
    found: dict[int, dict[int, int]] = {}  # pivot column -> its row
    for row in lines.values():
        for c in [c for c in row if c in found]:
            subtract(row, row[c], found[c])
        if row:
            c = min(row)
            inv = field.inv(row[c])
            row = {k: x * inv % p for k, x in row.items()}
            for other in found.values():
                if c in other:
                    subtract(other, other[c], row)
            found[c] = row
    pivots = sorted(found)
    R = np.zeros(arr.shape, dtype=np.int64)
    for r, c in enumerate(pivots):
        R[r, list(found[c])] = list(found[c].values())
    return R, pivots


def _rref_rational(nums: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form, as numerators over a denominator, and
    pivots of the rational matrix with numerators nums.

    Elimination runs on integer rows: a row r is cleared at pivot (p, c)
    as R[p, c] R[r] - R[r, c] R[p], then divided by its content unless the
    pivot is a unit, in int64 while every entry is bounded by sqrt(2^62),
    on Python ints after that.  Pivoting is the same first-nonzero-column,
    first-nonzero-row rule as over F_p.  Row i is then R[i] / R[i, c_i],
    returned over the lcm of the pivot entries.
    """
    rows, cols = nums.shape
    R = _primitive_rows(nums)
    top = _top(R)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        col = R[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if len(hit):
            if R.dtype != object and 2 * top * top > _INT64_MAX:
                R = R.astype(object)
            pivot = R[r, c]
            new = pivot * R[hit] - col[hit, None] * R[r]
            if abs(pivot) != 1:
                new = _primitive_rows(new)
            R[hit] = new
            top = max(top, _top(new))
        pivots.append(c)
        r += 1
    lead = [int(R[i, c]) for i, c in enumerate(pivots)]
    den = math.lcm(*lead)
    scales = [den // x for x in lead]
    if R.dtype != object and top * max(map(abs, scales), default=0) > _INT64_MAX:
        R = R.astype(object)
    R[:r] *= np.array(scales, dtype=R.dtype).reshape(r, 1)
    return R, den, pivots


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for arrays of residues (see the module docstring)."""
    m, k = a.shape
    n = b.shape[1]
    if k * (p - 1) ** 2 < _FLOAT_EXACT and m * k * n >= BLAS_MIN_MACS:
        return np.dot(a.astype(np.float64), b.astype(np.float64)).astype(np.int64) % p
    run = _int64_run(p)
    if k <= run:
        return np.dot(a, b) % p
    out = np.zeros((m, n), dtype=np.int64)
    for s in range(0, k, run):
        out += np.dot(a[:, s:s + run], b[s:s + run])
        out %= p
    return out


class Matrix:
    """An immutable exact matrix over a Field, stored densely row-major as
    integers arr over a denominator den (see the module docstring)."""

    __slots__ = ("field", "rows", "cols", "arr", "den", "_rref", "_max")

    def __init__(self, field: Field, arr):
        """The matrix of arr, a 2-D array or nested list of ints, Fractions
        or 'a/b' strings.  An array of signed integers or bools is read as
        it is; any other entry goes through field.elem, so over F_p a
        Fraction is its numerator times the inverse of its denominator,
        and one whose denominator p divides raises ZeroDivisionError."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        den = 1
        if arr.dtype.kind in "ib":
            arr = arr.astype(np.int64)
        else:
            vals = [field.elem(x) for x in arr.ravel().tolist()]
            if field.p is None:
                den = math.lcm(*[x.denominator for x in vals])
                vals = [x.numerator * (den // x.denominator) for x in vals]
            arr = np.array(vals, dtype=object).reshape(arr.shape)
        out = Matrix._normal(field, arr, den)
        self.field, self.arr, self.den, self._rref, self._max = field, out.arr, out.den, None, None
        self.rows, self.cols = out.rows, out.cols

    @classmethod
    def _wrap(cls, field: Field, arr: np.ndarray, den: int = 1) -> "Matrix":
        """The matrix arr / den, already in normal form, without copying."""
        out = object.__new__(cls)
        arr.setflags(write=False)
        out.field = field
        out.arr = arr
        out.den = den
        out.rows, out.cols = arr.shape
        out._rref = out._max = None
        return out

    @classmethod
    def _lowest(cls, field: Field, nums: np.ndarray, den: int) -> "Matrix":
        """nums / den in lowest terms, as int64 when every |numerator| < 2^63;
        residues over 1 are wrapped as they are."""
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(nums, axis=None)))
            if g > _INT64_MAX:
                nums = nums.astype(object)  # only zeros are int64 multiples of g
            if g != 1:
                nums, den = nums // g, den // g
        if nums.dtype == object and _top(nums) <= _INT64_MAX:
            nums = nums.astype(np.int64)
        return cls._wrap(field, nums, den)

    @classmethod
    def _normal(cls, field: Field, nums: np.ndarray, den: int = 1) -> "Matrix":
        """nums / den in normal form: reduced mod p, or over Q in lowest terms."""
        return cls._lowest(field, nums if field.p is None else nums % field.p, den)

    def _largest(self) -> int:
        """The largest |numerator|, computed once per matrix."""
        if self._max is None:
            self._max = _top(self.arr)
        return self._max

    def _over(self, den: int, factor: int = 1) -> np.ndarray:
        """The numerators of self over den, a multiple of self.den, as Python
        ints when factor times their largest |value| reaches 2^63."""
        scale = den // self.den
        if (scale == factor == 1) or not self._largest():  # zeros stay int64 whatever den is
            return self.arr
        a, = _exact(factor * scale, self)
        return a * scale if scale != 1 else a

    # construction ---------------------------------------------------

    @staticmethod
    def from_blocks(field: Field, rows: int, cols: int, blocks) -> "Matrix":
        """The rows x cols matrix with each m of blocks [(r, c, m), ...]
        placed with its top left corner at (r, c) and zeros elsewhere; the
        blocks must not overlap.  r (or c) may also be an index array: row
        i of m then goes to row r[i] (column likewise)."""
        den = 1 if field.p is not None else math.lcm(*[m.den for _, _, m in blocks])
        out = np.zeros((rows, cols), dtype=np.int64)
        for r, c, m in blocks:
            if m.rows and m.cols:
                a = m.arr if m.den == den else m._over(den)
                if a.dtype == object and out.dtype != object:
                    out = out.astype(object)
                rs = r if isinstance(r, np.ndarray) else slice(r, r + m.rows)
                if isinstance(c, np.ndarray):
                    out[rs if isinstance(rs, slice) else rs[:, None], c] = a
                else:
                    out[rs, c:c + m.cols] = a
        return Matrix._wrap(field, out, den)

    @staticmethod
    def combinations(mats: list["Matrix"], coeffs: "Matrix") -> list["Matrix"]:
        """sum_k coeffs[k, j] mats[k] for each column j of coeffs; mats is a
        nonempty list of matrices of one shape.  One product of the
        transposed coefficients by the flattened mats, whose row j is
        combination j."""
        first = mats[0]
        arrays, den = _common(first.field, mats)
        sums = coeffs.transpose() * Matrix._wrap(first.field, np.stack([a.ravel() for a in arrays]), den)
        return [sums.submatrix(slice(j, j + 1), slice(None)).reshape(first.rows, first.cols)
                for j in range(coeffs.cols)]

    @staticmethod
    def from_rows(field: Field, rows: list, cols: int | None = None) -> "Matrix":
        if not rows:
            return Matrix.zeros(field, 0, cols or 0)
        return Matrix(field, [[field.elem(x) for x in r] for r in rows])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._wrap(field, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix._wrap(field, np.eye(n, dtype=np.int64))

    @staticmethod
    def unit_columns(field: Field, rows: int, at) -> "Matrix":
        """The rows x len(at) matrix whose column q is the unit vector at row at[q]."""
        out = np.zeros((rows, len(at)), dtype=np.int64)
        out[np.asarray(at, dtype=int), np.arange(len(at))] = 1
        return Matrix._wrap(field, out)

    @staticmethod
    def gathered(field: Field, mats: list["Matrix"], rows: np.ndarray, cols: np.ndarray) -> "Matrix":
        """The matrix whose row i holds the entries of mats[i] at
        (rows[k], cols[k]), k in order."""
        if not mats:
            return Matrix.zeros(field, 0, len(rows))
        arrays, den = _common(field, mats)
        return Matrix._lowest(field, np.stack([a[rows, cols] for a in arrays]), den)

    def scattered(self, rows: np.ndarray, cols: np.ndarray, height: int, width: int) -> list["Matrix"]:
        """For each row of self, the height x width matrix with its entry k
        at (rows[k], cols[k]) and zeros elsewhere: gathered's inverse."""
        out = []
        for line in self.arr:
            a = np.zeros((height, width), dtype=self.arr.dtype)
            a[rows, cols] = line
            out.append(Matrix._lowest(self.field, a, self.den))
        return out

    @staticmethod
    def column(field: Field, entries) -> "Matrix":
        return Matrix.from_rows(field, [[x] for x in entries], 1)

    @staticmethod
    def basis_vector(field: Field, n: int, i: int) -> "Matrix":
        return Matrix.identity(field, n).column_vec(i)

    # elementary ops -------------------------------------------------

    def __eq__(self, other):
        """Equal entries: in normal form that is equal arr and den."""
        return (isinstance(other, Matrix) and self.field == other.field and self.den == other.den
                and self.arr.shape == other.arr.shape and bool(np.all(self.arr == other.arr)))

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._termwise(np.add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._termwise(np.subtract, other)

    def _termwise(self, op, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.arr.shape != other.arr.shape:
            raise ValueError("shape or field mismatch")
        if self.field.p is not None:
            return Matrix._wrap(self.field, op(self.arr, other.arr) % self.field.p)
        den = math.lcm(self.den, other.den)
        return Matrix._normal(self.field, op(self._over(den, 2), other._over(den, 2)), den)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        p = self.field.p
        if p is not None:
            return Matrix._wrap(self.field, _dot_mod(self.arr, other.arr, p))
        a, b = _exact(self.cols, self, other)
        return Matrix._normal(self.field, np.dot(a, b), self.den * other.den)

    def scale(self, c) -> "Matrix":
        n, d = self.field.elem(c).as_integer_ratio()
        a, = _exact(abs(n), self)
        return Matrix._normal(self.field, a * n, self.den * d)

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.field, self.arr.T, self.den)

    def kron(self, other: "Matrix") -> "Matrix":
        """The Kronecker product, as one broadcast product of the entries."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        a, b = _exact(1, self, other)
        out = (a[:, None, :, None] * b[None, :, None, :]).reshape(
            self.rows * other.rows, self.cols * other.cols)
        return Matrix._normal(self.field, out, self.den * other.den)

    def combine_blocks(self, coeffs: "Matrix") -> "Matrix":
        """Column by column linear combination of equal row blocks.

        self stacks coeffs.rows blocks of equal height h; column j of the
        h x coeffs.cols result is sum_i coeffs[i, j] * (block i)[:, j].
        """
        sums, den = self._combined(coeffs, 1)
        return Matrix._lowest(self.field, sums[:, 0].T, den)

    def combine_slots(self, coeffs: "Matrix", projs: list["Matrix"]) -> "Matrix":
        """Row block t is projs[t] * self.combine_blocks(row block t of coeffs),
        for coeffs stacking len(projs) blocks: all blocks combined in one
        batched product, then one product per distinct projection object."""
        field = self.field
        sums, den = self._combined(coeffs, len(projs))
        cols, _, h = sums.shape
        groups: dict[int, tuple[Matrix, list[int]]] = {}
        for t, proj in enumerate(projs):
            groups.setdefault(id(proj), (proj, []))[1].append(t)
        # row j * len(ts) + k of a group's product is slot ts[k] at column j
        parts = [Matrix._wrap(field, (sums if len(ts) == len(projs) else sums[:, ts]).reshape(-1, h),
                              den) * proj.transpose() for proj, ts in groups.values()]
        arrays, den = _common(field, parts)
        slots = {}
        for a, (proj, ts) in zip(arrays, groups.values()):
            slots.update(zip(ts, a.reshape(cols, len(ts), proj.rows).transpose(1, 2, 0)))
        return Matrix._lowest(field, np.concatenate([slots[t] for t in range(len(projs))]), den)

    def _combined(self, coeffs: "Matrix", slots: int) -> tuple[np.ndarray, int]:
        """combine_blocks by each of the slots row blocks of coeffs, as an array
        (cols, slots, h) of numerators over a denominator: [j, t] is column j
        by block t.  Over F_p the sums run as _dot_mod's products do."""
        cols = coeffs.cols
        r = coeffs.rows // slots if slots else 0
        if self.field != coeffs.field or self.cols != cols or r == 0 or \
                coeffs.rows != r * slots or self.rows % r:
            raise ValueError("shape or field mismatch in combine_blocks")
        p = self.field.p
        b, w = _exact(r, self, coeffs)
        b = b.reshape(r, self.rows // r, cols).transpose(2, 0, 1)
        w = w.reshape(slots, r, cols).transpose(2, 0, 1)
        if p is None:
            return np.matmul(w, b), self.den * coeffs.den
        if r * (p - 1) ** 2 < _FLOAT_EXACT and b.size * slots >= BLAS_MIN_MACS:
            out = np.matmul(w.astype(np.float64), b.astype(np.float64))
            return np.fmod(out, p, out=out).astype(np.int64), 1
        run = _int64_run(p)
        parts = (np.matmul(w[:, :, s:s + run], b[:, s:s + run]) % p for s in range(0, r, run))
        return sum(parts) % p, 1

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix.stack_columns(self.field, [self, other], self.rows)

    @staticmethod
    def stack_columns(field: Field, mats: list["Matrix"], rows: int) -> "Matrix":
        """Concatenate matrices side by side (empty list allowed)."""
        mats = [m for m in mats if m.cols > 0]
        if not mats:
            return Matrix.zeros(field, rows, 0)
        arrays, den = _common(field, mats)
        return Matrix._wrap(field, np.concatenate(arrays, axis=1), den)

    @staticmethod
    def stack_rows(field: Field, mats: list["Matrix"], cols: int) -> "Matrix":
        """Concatenate matrices top to bottom (empty list allowed)."""
        mats = [m for m in mats if m.rows > 0]
        if not mats:
            return Matrix.zeros(field, 0, cols)
        arrays, den = _common(field, mats)
        return Matrix._wrap(field, np.concatenate(arrays), den)

    @staticmethod
    def block_diag(field: Field, mats: list["Matrix"]) -> "Matrix":
        blocks, r, c = [], 0, 0
        for m in mats:
            blocks.append((r, c, m))
            r, c = r + m.rows, c + m.cols
        return Matrix.from_blocks(field, r, c, blocks)

    def pad_rows(self, offset: int, rows: int) -> "Matrix":
        """self placed at row offset in a zero matrix with the given rows."""
        return Matrix.from_blocks(self.field, rows, self.cols, [(offset, 0, self)])

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The entries read row by row into a rows x cols matrix."""
        return Matrix._wrap(self.field, self.arr.reshape(rows, cols), self.den)

    def submatrix(self, row_slice, col_slice) -> "Matrix":
        return Matrix._lowest(self.field, self.arr[row_slice, col_slice], self.den)

    def column_vec(self, j: int) -> "Matrix":
        return Matrix._lowest(self.field, self.arr[:, j:j + 1], self.den)

    def nonzero_mask(self) -> np.ndarray:
        """A boolean array, True where an entry is nonzero."""
        return self.arr != 0

    def entries(self) -> list[list]:
        """The entries as rows of Python numbers: ints mod p, or Fractions."""
        rows = self.arr.tolist()
        if self.field.p is not None:
            return rows
        return [[Fraction(n, self.den) for n in row] for row in rows]

    def nonzero_entries(self) -> tuple[np.ndarray, np.ndarray, "Matrix"]:
        """The nonzero entries in row-major order: their rows e and columns
        c, and the matrix with one row per entry, holding entry k in column
        c[k] of row k and zeros elsewhere."""
        e, c = np.nonzero(self.nonzero_mask())
        out = np.zeros((len(e), self.cols), dtype=self.arr.dtype)
        out[np.arange(len(e)), c] = self.arr[e, c]
        return e, c, Matrix._wrap(self.field, out, self.den)

    def is_zero(self) -> bool:
        return not self.arr.any()

    # elimination ----------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with deterministic pivoting."""
        if self._rref is not None:
            return self._rref
        field = self.field
        if field.is_prime_field:
            small = self.rows * self.cols <= SMALL_RREF
            R, pivots = _rref_small(self.arr, field.p) if small else _rref_mod_p(self.arr, field)
            out = Matrix._wrap(field, R)
        else:
            R, den, pivots = _rref_rational(self.arr)
            out = Matrix._normal(field, R, den)
        result = (out, tuple(pivots))
        self._rref = result
        out._rref = result
        return result

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Columns form the canonical basis of the right kernel."""
        R, pivots = self.rref()
        free = sorted(set(range(self.cols)) - set(pivots))
        out = np.zeros((self.cols, len(free)), dtype=R.arr.dtype)
        out[free, range(len(free))] = R.den
        out[list(pivots)] = -R.arr[:len(pivots)][:, free]
        return Matrix._normal(self.field, out, R.den)

    def image_basis(self) -> "Matrix":
        """Original columns at the pivot positions: a basis of the column space."""
        _, pivots = self.rref()
        return Matrix._lowest(self.field, self.arr[:, list(pivots)], self.den)

    def solve(self, b: "Matrix") -> "Matrix | None":
        """Solve self @ x = b exactly (b may have several columns).

        Returns None when inconsistent; free variables are set to zero
        under the reduced echelon pivoting order.
        """
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, expected {self.rows}")
        R, pivots = self.hstack(b).rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        out = np.zeros((self.cols, b.cols), dtype=R.arr.dtype)
        out[list(pivots)] = R.arr[:len(pivots), self.cols:]
        return Matrix._lowest(self.field, out, R.den)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices are invertible")
        x = self.solve(Matrix.identity(self.field, self.rows))
        if x is None:
            raise ValueError("matrix is singular")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

