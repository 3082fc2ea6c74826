"""Exact dense linear algebra over prime fields F_p and the rationals.

Every number in the engine lives here: matrices are numpy arrays of
int64 residues (prime fields) or Fraction objects (rationals), and all
arithmetic is exact.  Only this module reads or writes those arrays; the
rest of the engine builds and reads matrices through Matrix operations:
from_blocks places blocks in a zero matrix, combinations forms linear
combinations of equal-shape matrices, reshape regroups the entries row
by row, entries reads the entries out as Python numbers, nonzero_mask
says which are nonzero and nonzero_entries reads those out, one per row.
Row reduction uses deterministic pivoting (first nonzero column, then
first nonzero row), so every basis produced downstream is reproducible
bit for bit.  A pivot step, over F_p as over Q, updates only the rows
hit by the pivot: those with a nonzero entry in its column.

Prime fields go up to p = 2^31 - 1 (MAX_PRIME), so a product of two
residues fits in int64.  A product A (m x k) times B (k x n) over F_p
is computed in one of two exact ways, chosen by its size alone:

* float64 BLAS when k (p-1)^2 < 2^53, so every partial sum is an
  integer that a double holds exactly, and m k n >= BLAS_MIN_MACS, a
  measured size below which converting costs about what BLAS saves;
* int64 otherwise, reducing mod p once at the end, or after each run of
  the inner dimension whose partial sums stay below 2^63 when
  k (p-1)^2 would not.

Over Q a matrix stores Fraction objects, and caches, the first time it
is multiplied or reduced, its integer form: the numerators over the lcm
of the denominators, with the largest absolute numerator.  A product
A (m x k) times B (k x n) multiplies the numerators, in int64 when
k max|A| max|B| < 2^63 and on Python ints otherwise, over the product
of the two denominators; Fractions are built only for the distinct
entries of the result.  Row reduction over Q runs on integer rows,
kept primitive (divided by the gcd of their entries), and divides each
pivot row by its pivot at the end; scaling a row does not change the
reduced form, so it is the one elimination on Fractions gives.

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
_FLOAT_EXACT = 2 ** 53
_INT64_MAX = 2 ** 63 - 1


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
        return isinstance(other, Field) and self.p == other.p

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
            return pow(x, self.p - 2, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / x

    # array helpers --------------------------------------------------

    def _normalize(self, arr: np.ndarray) -> np.ndarray:
        if self.p is not None:
            return np.asarray(arr, dtype=np.int64) % self.p
        out = np.empty(arr.shape, dtype=object)
        flat_out = out.ravel()
        for i, v in enumerate(arr.ravel().tolist()):
            flat_out[i] = v if isinstance(v, Fraction) else self.elem(v)
        return out

    def _zeros(self, rows: int, cols: int) -> np.ndarray:
        if self.p is not None:
            return np.zeros((rows, cols), dtype=np.int64)
        out = np.empty((rows, cols), dtype=object)
        out[...] = Fraction(0)
        return out


@lru_cache(maxsize=None)
def _int64_run(p: int) -> int:
    """How many products of residues mod p can be summed onto a residue
    while the sum stays below 2^63."""
    return max(1, (_INT64_MAX - (p - 1)) // max(1, (p - 1) ** 2))


def _fractions(nums: list[int], den: int) -> np.ndarray:
    """The 1-D Fraction array nums / den.  One Fraction is built per
    distinct numerator and shared by its entries (Fractions are immutable)."""
    table = {n: Fraction(n, den) for n in set(nums)}
    return np.fromiter(map(table.__getitem__, nums), dtype=object, count=len(nums))


def _fits_int64(terms: int, top_a: int, top_b: int) -> bool:
    """Whether a sum of `terms` products of integers bounded by top_a and
    top_b in absolute value stays below 2^63."""
    return terms * top_a * top_b <= _INT64_MAX


def _primitive_rows(rows: np.ndarray) -> np.ndarray:
    """Each row divided by the gcd of its entries (zero rows stay zero)."""
    return rows // np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]


def _rref_mod_p(arr: np.ndarray, field: Field) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivots of a matrix of residues mod p.

    A pivot step updates only the rows with a nonzero entry in the pivot
    column, and only from that column on: the pivot row is zero left of it.
    """
    R = np.array(arr, copy=True)
    rows, cols = R.shape
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
        row = R[r, c:] * field.inv(R[r, c]) % field.p
        R[r, c:] = row
        R[r, c] = 0  # so that the pivot row is not among the rows it clears
        hit = R[:, c].nonzero()[0]
        R[r, c] = 1
        if len(hit):
            sub = R[hit, c:]
            R[hit, c:] = (sub - sub[:, :1] * row) % field.p
        pivots.append(c)
        r += 1
    return R, pivots


def _rref_rational(nums: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form, as Fractions, and pivots of the rational
    matrix with integer numerators nums over a common denominator.

    Elimination runs on integer rows: a row r is cleared at pivot (p, c)
    as R[p, c] R[r] - R[r, c] R[p], then divided by its content unless the
    pivot is a unit, in int64 while every entry is bounded by sqrt(2^62),
    on Python ints after that.  Pivoting is the same first-nonzero-column,
    first-nonzero-row rule as over F_p.
    """
    rows, cols = nums.shape
    out = np.empty((rows, cols), dtype=object)
    out[...] = Fraction(0)
    if nums.size == 0:
        return out, []
    R = _primitive_rows(nums)
    top = int(np.abs(R).max())
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
            if R.dtype != object and not _fits_int64(2, top, top):
                R = R.astype(object)
            pivot = R[r, c]
            new = pivot * R[hit] - col[hit, None] * R[r]
            if abs(pivot) != 1:
                new = _primitive_rows(new)
            R[hit] = new
            top = max(top, int(np.abs(new).max()))
        pivots.append(c)
        r += 1
    for i, c in enumerate(pivots):
        out[i] = _fractions(R[i].tolist(), int(R[i, c]))
    return out, pivots


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
    """An immutable exact matrix over a Field, stored densely row-major."""

    __slots__ = ("field", "rows", "cols", "arr", "_rref", "_ints")

    def __init__(self, field: Field, arr):
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        self.field = field
        self.arr = field._normalize(arr)
        self.arr.flags.writeable = False
        self.rows, self.cols = self.arr.shape
        self._rref = None
        self._ints = None

    @classmethod
    def _wrap(cls, field: Field, arr: np.ndarray) -> "Matrix":
        """A matrix around an array already in normal form (reduced
        residues, or Fractions over Q), without copying it."""
        out = object.__new__(cls)
        arr.flags.writeable = False
        out.field = field
        out.arr = arr
        out.rows, out.cols = arr.shape
        out._rref = None
        out._ints = None
        return out

    @classmethod
    def _from_integers(cls, field: Field, nums: np.ndarray, den: int) -> "Matrix":
        """The Q matrix nums / den, its integer form cached in lowest terms."""
        vals = nums.ravel().tolist()
        g = math.gcd(den, *vals)
        top = max(max(vals, default=0), -min(vals, default=0)) // g
        out = cls._wrap(field, _fractions(vals, den).reshape(nums.shape))
        if g != 1:
            nums = nums // g
        nums = nums.astype(np.int64 if top <= _INT64_MAX else object, copy=False)
        nums.flags.writeable = False
        out._ints = (nums, den // g, top)
        return out

    def _integers(self) -> tuple[np.ndarray, int, int]:
        """Over Q: (nums, den, top) with self = nums / den, den the lcm of
        the denominators and top the largest |numerator|.  nums is int64
        when top < 2^63 and holds Python ints otherwise.  Computed once."""
        if self._ints is None:
            ratios = [x.as_integer_ratio() for x in self.arr.ravel().tolist()]
            den = math.lcm(*[d for _, d in ratios])
            nums = [n * (den // d) for n, d in ratios]
            top = max(max(nums, default=0), -min(nums, default=0))
            arr = np.array(nums, dtype=np.int64 if top <= _INT64_MAX else object)
            arr = arr.reshape(self.arr.shape)
            arr.flags.writeable = False
            self._ints = (arr, den, top)
        return self._ints

    # construction ---------------------------------------------------

    @staticmethod
    def from_blocks(field: Field, rows: int, cols: int, blocks) -> "Matrix":
        """The rows x cols matrix with each m of blocks [(r, c, m), ...]
        placed with its top left corner at (r, c) and zeros elsewhere; the
        blocks must not overlap."""
        out = field._zeros(rows, cols)
        for r, c, m in blocks:
            if m.rows and m.cols:
                out[r:r + m.rows, c:c + m.cols] = m.arr
        return Matrix._wrap(field, out)

    @staticmethod
    def combinations(mats: list["Matrix"], coeffs: "Matrix") -> list["Matrix"]:
        """sum_k coeffs[k, j] mats[k] for each column j of coeffs, as one
        product; mats is a nonempty list of matrices of one shape."""
        first = mats[0]
        flat = Matrix._wrap(first.field, np.stack([m.arr.ravel() for m in mats], axis=1))
        out = flat * coeffs
        return [out.column_vec(j).reshape(first.rows, first.cols) for j in range(out.cols)]

    @staticmethod
    def from_rows(field: Field, rows: list, cols: int | None = None) -> "Matrix":
        if not rows:
            return Matrix.zeros(field, 0, cols or 0)
        return Matrix(field, [[field.elem(x) for x in r] for r in rows])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._wrap(field, field._zeros(rows, cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = field._zeros(n, n)
        np.fill_diagonal(m, field.elem(1))
        return Matrix._wrap(field, m)

    @staticmethod
    def column(field: Field, entries) -> "Matrix":
        return Matrix.from_rows(field, [[x] for x in entries], 1)

    @staticmethod
    def basis_vector(field: Field, n: int, i: int) -> "Matrix":
        return Matrix.identity(field, n).column_vec(i)

    # elementary ops -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.arr.shape == other.arr.shape
            and bool(np.all(self.arr == other.arr))
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.arr.tobytes()
                     if self.field.is_prime_field else tuple(self.arr.ravel())))

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.field, self.arr + other.arr)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.field, self.arr - other.arr)

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
        (a, da, ta), (b, db, tb) = self._integers(), other._integers()
        if ta == 0 or tb == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        if not _fits_int64(self.cols, ta, tb):
            a, b = a.astype(object), b.astype(object)
        return Matrix._from_integers(self.field, np.dot(a, b), da * db)

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, self.arr * self.field.elem(c))

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.field, self.arr.T)

    def kron(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if 0 in (self.rows, self.cols, other.rows, other.cols):
            return Matrix.zeros(self.field, self.rows * other.rows, self.cols * other.cols)
        return Matrix(self.field, np.kron(self.arr, other.arr))

    def combine_blocks(self, coeffs: "Matrix") -> "Matrix":
        """Column by column linear combination of equal row blocks.

        self stacks coeffs.rows blocks of equal height h; column j of the
        h x coeffs.cols result is sum_i coeffs[i, j] * (block i)[:, j].
        """
        r, cols = coeffs.rows, coeffs.cols
        if self.field != coeffs.field or self.cols != cols or r == 0 or self.rows % r:
            raise ValueError("shape or field mismatch in combine_blocks")
        p = self.field.p
        if p is None:
            (b, db, tb), (w, dw, tw) = self._integers(), coeffs._integers()
            if not _fits_int64(r, tb, tw):
                b, w = b.astype(object), w.astype(object)
            sums = (b.reshape(r, self.rows // r, cols) * w[:, None, :]).sum(axis=0)
            return Matrix._from_integers(self.field, sums, db * dw)
        blocks = self.arr.reshape(r, self.rows // r, cols)
        weights = coeffs.arr[:, None, :]
        run = _int64_run(p)
        out = np.zeros(blocks.shape[1:], dtype=np.int64)
        for s in range(0, r, run):
            out += (blocks[s:s + run] * weights[s:s + run]).sum(axis=0)
            out %= p
        return Matrix._wrap(self.field, out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix._wrap(self.field, np.hstack([self.arr, other.arr]))

    @staticmethod
    def stack_columns(field: Field, mats: list["Matrix"], rows: int) -> "Matrix":
        """Concatenate matrices side by side (empty list allowed)."""
        mats = [m for m in mats if m.cols > 0]
        if not mats:
            return Matrix.zeros(field, rows, 0)
        return Matrix._wrap(field, np.hstack([m.arr for m in mats]))

    @staticmethod
    def stack_rows(field: Field, mats: list["Matrix"], cols: int) -> "Matrix":
        """Concatenate matrices top to bottom (empty list allowed)."""
        mats = [m for m in mats if m.rows > 0]
        if not mats:
            return Matrix.zeros(field, 0, cols)
        return Matrix._wrap(field, np.vstack([m.arr for m in mats]))

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
        return Matrix._wrap(self.field, self.arr.reshape(rows, cols))

    def submatrix(self, row_slice, col_slice) -> "Matrix":
        return Matrix._wrap(self.field, self.arr[row_slice, col_slice])

    def column_vec(self, j: int) -> "Matrix":
        return Matrix._wrap(self.field, self.arr[:, j:j + 1])

    def nonzero_mask(self) -> np.ndarray:
        """A boolean array, True where an entry is nonzero."""
        return self.arr != self.field.elem(0)

    def entries(self) -> list[list]:
        """The entries as rows of Python numbers: ints mod p, or Fractions."""
        return self.arr.tolist()

    def nonzero_entries(self) -> tuple[np.ndarray, np.ndarray, "Matrix"]:
        """The nonzero entries in row-major order: their rows e and columns
        c, and the matrix with one row per entry, holding entry k in column
        c[k] of row k and zeros elsewhere."""
        e, c = np.nonzero(self.nonzero_mask())
        out = self.field._zeros(len(e), self.cols)
        out[np.arange(len(e)), c] = self.arr[e, c]
        return e, c, Matrix._wrap(self.field, out)

    def is_zero(self) -> bool:
        return not self.arr.any()

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.field, self.rows)

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field or self.arr.shape != other.arr.shape:
            raise ValueError("shape or field mismatch")

    # elimination ----------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with deterministic pivoting."""
        if self._rref is not None:
            return self._rref
        field = self.field
        if field.is_prime_field:
            R, pivots = _rref_mod_p(self.arr, field)
        else:
            R, pivots = _rref_rational(self._integers()[0])
        out = Matrix._wrap(field, R)
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
        out = self.field._zeros(self.cols, len(free))
        out[free, range(len(free))] = self.field.elem(1)
        out[list(pivots)] = -R.arr[:len(pivots)][:, free]
        return Matrix(self.field, out)

    def image_basis(self) -> "Matrix":
        """Original columns at the pivot positions: a basis of the column space."""
        _, pivots = self.rref()
        return Matrix(self.field, self.arr[:, list(pivots)]) if pivots else \
            Matrix.zeros(self.field, self.rows, 0)

    def solve(self, b: "Matrix") -> "Matrix | None":
        """Solve self @ x = b exactly (b may have several columns).

        Returns None when inconsistent; free variables are set to zero
        under the reduced echelon pivoting order.
        """
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, expected {self.rows}")
        aug = self.hstack(b)
        R, pivots = aug.rref()
        field = self.field
        for p in pivots:
            if p >= self.cols:
                return None
        out = field._zeros(self.cols, b.cols)
        out[list(pivots)] = R.arr[:len(pivots), self.cols:]
        return Matrix(field, out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices are invertible")
        x = self.solve(Matrix.identity(self.field, self.rows))
        if x is None:
            raise ValueError("matrix is singular")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

