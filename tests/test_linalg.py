"""Exact linear algebra: frozen examples and field-axiom level properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherica.linalg import (
    BLAS_MIN_MACS,
    MAX_PRIME,
    SMALL_RREF,
    Field,
    Matrix,
    _exact,
    _rref_mod_p,
    _rref_small,
)

from helpers import (
    dense_rref_mod_p,
    entries_array,
    fraction_combine_blocks,
    fraction_nullspace,
    fraction_product,
    fraction_rref,
    fraction_solve,
    is_identity_matrix,
)

F101 = Field.prime(101)
F2 = Field.prime(2)
F7 = Field.prime(7)
Q = Field.rationals()


def test_field_validation():
    with pytest.raises(ValueError):
        Field.prime(6)
    assert Field.prime(2) == Field.prime(2)
    assert Field.rationals() != Field.prime(2)


def test_field_rejects_primes_above_the_limit():
    assert Field.prime(MAX_PRIME).p == 2 ** 31 - 1
    for p in (4294967291, 3037000493, 2 ** 61 - 1):
        with pytest.raises(ValueError, match="2\\^31 - 1"):
            Field.prime(p)


def test_products_at_the_largest_prime():
    field = Field.prime(MAX_PRIME)
    top = MAX_PRIME - 1
    assert (Matrix(field, [[top]]) * Matrix(field, [[top]])).arr.tolist() == [[1]]
    row = Matrix(field, [[top, top, top]])
    assert (row * row.transpose()).arr.tolist() == [[3]]
    assert (row.transpose() * row) == Matrix(field, [[1] * 3] * 3)


def test_reduce_identity_f7():
    m = Matrix.identity(F7, 3)
    assert m.rank() == 3
    assert m.nullspace().cols == 0
    assert m.image_basis().cols == 3


def test_reduce_zero_matrix():
    m = Matrix.zeros(F7, 2, 4)
    assert m.rank() == 0
    assert m.nullspace().cols == 4
    assert m.image_basis().cols == 0


def test_reduce_rank_one_f2():
    # [[1,1],[1,1]] over F_2: hand row reduction gives rank 1, kernel (1,1).
    m = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert m.rank() == 1
    assert m.nullspace() == Matrix.column(F2, [1, 1])
    assert (m * m.nullspace()).is_zero()


def test_solve_identity():
    m = Matrix.identity(F7, 2)
    b = Matrix.column(F7, [2, 3])
    assert m.solve(b) == b


def test_solve_inconsistent():
    m = Matrix.zeros(F2, 2, 2)
    b = Matrix.column(F2, [1, 0])
    assert m.solve(b) is None


def test_solve_free_variable_zeroed():
    # [[1,1],[0,0]] x = (1,0) over F_2: pivot at column 0, free column 1 -> x = (1,0).
    m = Matrix.from_rows(F2, [[1, 1], [0, 0]])
    b = Matrix.column(F2, [1, 0])
    assert m.solve(b) == Matrix.column(F2, [1, 0])


def test_solve_dimension_mismatch():
    m = Matrix.identity(F2, 2)
    with pytest.raises(ValueError):
        m.solve(Matrix.column(F2, [1, 0, 0]))


def test_rationals_exact():
    m = Matrix.from_rows(Q, [["1/2", "1/3"], ["1/4", "1/5"]])
    inv = m.inverse()
    assert is_identity_matrix(m * inv)


def test_inverse_singular():
    m = Matrix.from_rows(F7, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        m.inverse()


def _random_matrix(field, rows, cols, rng):
    if field.is_prime_field:
        return Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(cols)]
                                        for _ in range(rows)]) if rows and cols else \
            Matrix.zeros(field, rows, cols)
    return Matrix.from_rows(field, [[rng.randrange(-5, 6) for _ in range(cols)]
                                    for _ in range(rows)]) if rows and cols else \
        Matrix.zeros(field, rows, cols)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101]),
    rows=st.integers(0, 5),
    cols=st.integers(0, 5),
    seed=st.integers(0, 10**6),
)
def test_rank_equals_rank_of_transpose(p, rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(Field.prime(p), rows, cols, rng)
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101]),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
def test_solve_of_consistent_system(p, rows, cols, seed):
    rng = random.Random(seed)
    field = Field.prime(p)
    m = _random_matrix(field, rows, cols, rng)
    x = _random_matrix(field, cols, 1, rng)
    b = m * x
    x2 = m.solve(b)
    assert x2 is not None
    assert m * x2 == b


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 101]),
    rows=st.integers(0, 5),
    cols=st.integers(0, 5),
    seed=st.integers(0, 10**6),
)
def test_reduce_postconditions(p, rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(Field.prime(p), rows, cols, rng)
    rank, ker, img = m.rank(), m.nullspace(), m.image_basis()
    assert rank + ker.cols == cols
    assert (m * ker).is_zero()
    # re-reducing the image basis keeps the rank (idempotence in effect)
    assert img.rank() == img.cols == rank


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101, MAX_PRIME]),
    long=st.integers(0, 40),
    short=st.integers(0, 40),
    form=st.sampled_from(["tall", "wide", "square"]),
    fill=st.sampled_from(["dense", "sparse", "zero"]),
    seed=st.integers(0, 10**6),
)
def test_elimination_mod_p_equals_dense_elimination(p, long, short, form, fill, seed):
    """Updating only the rows a pivot hits gives the reduced matrix and
    pivots of updating every row, bit for bit; at p = 2^31 - 1 the
    products of residues come close to the int64 bound."""
    long, short = max(long, short), min(long, short)
    shape = {"tall": (long, short), "wide": (short, long), "square": (long, long)}[form]
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, p, shape)
    if fill == "sparse":
        arr *= rng.random(shape) < 0.02
    elif fill == "zero":
        arr[...] = 0
    m = Matrix(Field.prime(p), arr)
    R, pivots = m.rref()
    want, want_pivots = dense_rref_mod_p(m.arr, m.field)
    assert R.arr.dtype == want.dtype
    assert np.array_equal(R.arr, want)
    assert pivots == tuple(want_pivots)



@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101, MAX_PRIME]),
    rows=st.integers(0, 12),
    cols=st.integers(0, 12),
    fill=st.sampled_from(["dense", "sparse", "zero"]),
    seed=st.integers(0, 10**6),
)
def test_small_elimination_equals_the_numpy_elimination(p, rows, cols, fill, seed):
    """Matrices of at most SMALL_RREF entries are row-reduced on Python ints.
    The reduced form is unique, so R and the pivots are those of the numpy
    elimination, bit for bit; shapes run from 0 x 0 to 12 x 12, past the
    threshold, so Matrix.rref takes both paths."""
    assert 11 * 12 > SMALL_RREF
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, p, (rows, cols))
    if fill == "sparse":
        arr *= rng.random((rows, cols)) < 0.2
    elif fill == "zero":
        arr[...] = 0
    field = Field.prime(p)
    R, pivots = _rref_small(arr, p)
    want, want_pivots = _rref_mod_p(arr, field)
    assert R.dtype == want.dtype and R.shape == want.shape
    assert np.array_equal(R, want)
    assert pivots == want_pivots
    got = Matrix(field, arr).rref()
    assert np.array_equal(got[0].arr, want) and got[1] == tuple(want_pivots)

@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=st.sampled_from([2, 101, MAX_PRIME]),
    long=st.integers(0, 30),
    short=st.integers(0, 12),
    form=st.sampled_from(["tall", "wide"]),
    fill=st.sampled_from(["dense", "sparse", "zero"]),
    empty=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 10**6),
)
def test_sparse_elimination_equals_the_small_elimination(p, long, short, form, fill, empty, seed):
    """_rref_mod_p reduces each row against sparse pivot rows; the reduced
    form is unique, so R and the pivots are _rref_small's bit for bit, on
    tall and wide shapes with zero rows and columns, either side of
    SMALL_RREF."""
    shape = (long, short) if form == "tall" else (short, long)
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, p, shape)
    if fill == "sparse":
        arr *= rng.random(shape) < 0.15
    elif fill == "zero":
        arr[...] = 0
    arr[rng.random(shape[0]) < empty] = 0
    arr[:, rng.random(shape[1]) < empty] = 0
    field = Field.prime(p)
    R, pivots = _rref_mod_p(arr, field)
    want, want_pivots = _rref_small(arr, p)
    assert R.dtype == want.dtype and R.shape == want.shape
    assert np.array_equal(R, want)
    assert pivots == want_pivots


def test_rank_transpose_rationals():
    m = Matrix.from_rows(Q, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == m.transpose().rank() == 2


def test_kron_and_block_diag():
    a = Matrix.from_rows(F7, [[1, 2], [3, 4]])
    b = Matrix.identity(F7, 2)
    k = a.kron(b)
    assert k.rows == k.cols == 4
    d = Matrix.block_diag(F7, [a, b])
    assert d.rank() == a.rank() + 2


# Primes that put the bounds of Matrix products inside the tested inner
# dimensions: float64 BLAS is exact for k (p-1)^2 < 2^53, which holds up
# to k = 20 for 21000037; int64 sums of products are reduced every 19
# terms mod 680000003 and every 2 terms mod 2^31 - 1.
PRODUCT_PRIMES = [2, 101, 21000037, 680000003, MAX_PRIME]


def _exact_product(a: Matrix, b: Matrix, p: int) -> list[list[int]]:
    rows, cols = a.arr.tolist(), b.arr.T.tolist()
    return [[sum(x * y for x, y in zip(r, c)) % p for c in cols] for r in rows]


def _residues(field, rows, cols, rng) -> Matrix:
    """Random residues, half of them p - 1, the worst case for the bounds."""
    p = field.p
    return Matrix(field, [[p - 1 if rng.random() < 0.5 else rng.randrange(p)
                           for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(PRODUCT_PRIMES),
    m=st.integers(1, 48),
    k=st.integers(1, 40),
    n=st.integers(1, 48),
    seed=st.integers(0, 10**6),
)
def test_product_equals_exact_integer_product(p, m, k, n, seed):
    rng = random.Random(seed)
    field = Field.prime(p)
    a, b = _residues(field, m, k, rng), _residues(field, k, n, rng)
    assert (a * b).arr.tolist() == _exact_product(a, b, p)


@pytest.mark.parametrize("p", PRODUCT_PRIMES)
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 3, 3), (31, 32, 32), (32, 32, 32),
                                   (64, 20, 64), (64, 21, 64), (40, 40, 40)])
def test_product_on_both_sides_of_the_blas_cutover(p, shape):
    # the first shapes stay below the size cutover, the others reach it
    assert 31 * 32 * 32 < BLAS_MIN_MACS <= 32 * 32 * 32
    m, k, n = shape
    rng = random.Random(p * 1000 + k)
    field = Field.prime(p)
    a, b = _residues(field, m, k, rng), _residues(field, k, n, rng)
    assert (a * b).arr.tolist() == _exact_product(a, b, p)
    top = Matrix(field, [[p - 1] * k] * m)
    assert (top * top.transpose()).arr.tolist() == [[k % p] * m] * m


@pytest.mark.parametrize("p", PRODUCT_PRIMES)
def test_combine_blocks_and_column_kron_are_exact(p):
    rng = random.Random(p)
    field = Field.prime(p)
    blocks, coeffs = _residues(field, 25 * 3, 4, rng), _residues(field, 25, 4, rng)
    b, c = blocks.arr.tolist(), coeffs.arr.tolist()
    want = [[sum(c[i][j] * b[3 * i + h][j] for i in range(25)) % p for j in range(4)]
            for h in range(3)]
    assert blocks.combine_blocks(coeffs).arr.tolist() == want
    # the Kronecker product of two columns, as the quotient tensor model in
    # the test helpers forms its pure tensors, at residues near p
    x, y = _residues(field, 3, 4, rng), _residues(field, 2, 4, rng)
    for j in range(4):
        xj, yj = x.arr[:, j].tolist(), y.arr[:, j].tolist()
        assert x.column_vec(j).kron(y.column_vec(j)).arr.ravel().tolist() == \
            [xi * yk % p for xi in xj for yk in yj]


# Over Q, products and row reduction run on integer numerators over one
# common denominator (int64 below 2^63, Python ints above).  They must give
# exactly what the same operations give on Fraction objects.

INT64_MAX = 2 ** 63 - 1
DENOMINATORS = [1, 1, 1, 2, 3, 4, 6, 7, 12, 2 ** 20 + 7]


@st.composite
def rational_matrices(draw, rows, cols):
    """Rational matrices with mixed denominators, negative entries, and
    numerators up to 2^40, with whole rows and columns of zeros."""
    if rows * cols == 0:
        return Matrix.zeros(Q, rows, cols)
    top = 2 ** draw(st.integers(0, 40))
    entries = draw(st.lists(
        st.tuples(st.integers(-top, top), st.sampled_from(DENOMINATORS)),
        min_size=rows * cols, max_size=rows * cols))
    arr = np.array([Fraction(n, d) for n, d in entries], dtype=object).reshape(rows, cols)
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):
        arr[i, :] = Fraction(0)
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        arr[:, j] = Fraction(0)
    return Matrix(Q, arr)


def _assert_rational_ops_match_oracle(m: Matrix, rng: random.Random):
    R, pivots = m.rref()
    assert (R, pivots) == fraction_rref(m)
    assert m.rank() == len(pivots)
    assert m.nullspace() == fraction_nullspace(m)
    assert m.image_basis() == Matrix(Q, entries_array(m)[:, list(pivots)])
    b = Matrix(Q, np.array([Fraction(rng.randrange(-9, 10), rng.choice(DENOMINATORS))
                            for _ in range(2 * m.rows)], dtype=object).reshape(m.rows, 2))
    x = Matrix(Q, np.array([rng.randrange(-3, 4) for _ in range(m.cols)]).reshape(m.cols, 1))
    for rhs in (b, m * x):
        assert m.solve(rhs) == fraction_solve(m, rhs)
    if m.rows == m.cols:
        want = fraction_solve(m, Matrix.identity(Q, m.rows))
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            assert m.inverse() == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(0, 6), k=st.integers(0, 64), n=st.integers(0, 6))
def test_rational_product_equals_fraction_product(data, m, k, n):
    a = data.draw(rational_matrices(m, k))
    b = data.draw(rational_matrices(k, n))
    assert a * b == fraction_product(a, b)
    assert (a * b) * b.transpose() == fraction_product(fraction_product(a, b), b.transpose())


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(1, 64), h=st.integers(0, 4), cols=st.integers(0, 5))
def test_rational_combine_blocks_equals_fraction_sum(data, r, h, cols):
    blocks = data.draw(rational_matrices(r * h, cols))
    coeffs = data.draw(rational_matrices(r, cols))
    assert blocks.combine_blocks(coeffs) == fraction_combine_blocks(blocks, coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(0, 7), cols=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_rational_elimination_equals_fraction_elimination(data, rows, cols, seed):
    _assert_rational_ops_match_oracle(data.draw(rational_matrices(rows, cols)),
                                      random.Random(seed))


def _at_the_cutover(k: int) -> list[int]:
    """Entries t around the largest with k t^2 < 2^63, and 2^31, where
    k t^2 = 2^63 for k = 2."""
    t = math.isqrt(INT64_MAX // k)
    return [t - 1, t, t + 1, t + 2 ** 20, 2 ** 31]


@pytest.mark.parametrize("k", [1, 2, 3, 64])
def test_rational_product_on_both_sides_of_the_int64_cutover(k):
    for t in _at_the_cutover(k):
        for den in (1, 3):
            a = Matrix(Q, [[Fraction(t, den)] * k, [Fraction(-t, den)] * k])
            b = Matrix(Q, [[Fraction(t)], [Fraction(t - 1)]] * (k // 2) + [[Fraction(t)]] * (k % 2))
            assert a * b == fraction_product(a, b)
            square = a * a.transpose()
            assert square == fraction_product(a, a.transpose())
            assert square.entries()[0][0] == Fraction(k * t * t, den * den)
            blocks = Matrix(Q, [[Fraction(t, den)]] * k)
            weights = Matrix(Q, [[Fraction(t)]] * k)
            assert blocks.combine_blocks(weights) == Matrix(Q, [[Fraction(k * t * t, den)]])


@pytest.mark.parametrize("t", sorted(set(_at_the_cutover(2) + _at_the_cutover(1))))
def test_rational_elimination_on_both_sides_of_the_int64_cutover(t):
    # clearing column 0 makes t^2 + (t - 1)^2, near 2 t^2, in row 1
    rng = random.Random(t)
    for den in (1, 5):
        m = Matrix(Q, [[Fraction(t, den), Fraction(t - 1, den), Fraction(1, den)],
                       [Fraction(-(t - 1)), Fraction(t), Fraction(0)]])
        _assert_rational_ops_match_oracle(m, rng)
        _assert_rational_ops_match_oracle(m.transpose(), rng)


def test_rational_elimination_fixed_cases():
    rng = random.Random(0)
    cases = [
        [["1/2", "1/3", "-1/6"], ["1/4", "1/6", "-1/12"], ["0", "0", "0"]],
        [["0", "-3/7", "0", "5/12"], ["0", "2/3", "0", "-1/9"], ["0", "0", "0", "7"]],
        [["2/3", "4/5"], ["-1/3", "6/7"], ["1", "1/2"]],
        [["1/2", "1/3"], ["1/4", "1/5"]],
        [[0, 0], [0, 0]],
    ]
    for rows in cases:
        _assert_rational_ops_match_oracle(Matrix.from_rows(Q, rows), rng)


def test_rational_matrix_from_an_int64_array_is_exact():
    big = Matrix(Q, np.array([[2 ** 62, -(2 ** 62)]], dtype=np.int64))
    assert all(type(x.numerator) is int for row in big.entries() for x in row)
    assert (big * big.transpose()).entries()[0][0] == Fraction(2 ** 125)
    assert Q.elem(np.int64(2 ** 62)) * 4 == 2 ** 64


def test_prime_field_matrix_from_a_fraction_inverts_its_denominator():
    assert Matrix(F7, [[Fraction(1, 2)]]).entries() == [[4]]
    assert Matrix(F7, [[Fraction(1, 2)]]) == Matrix.from_rows(F7, [[Fraction(1, 2)]])


def test_prime_field_matrix_rejects_a_fraction_over_p():
    with pytest.raises(ZeroDivisionError):
        Matrix(F7, [[Fraction(1, 7)]])


def test_prime_field_matrix_from_an_integer_beyond_int64():
    assert Matrix(F7, [[10 ** 20, -(10 ** 20)]]).entries() == [[10 ** 20 % 7, -(10 ** 20) % 7]]


def test_prime_field_matrix_from_a_fraction_string():
    assert Matrix(F7, [["1/2", "3"]]).entries() == [[4, 3]]


def _near_the_cutover(t: int) -> tuple[Matrix, Matrix]:
    """Two 2 x 2 rational matrices that mix small fractions with +-t."""
    a = Matrix(Q, [[Fraction(1, 3), Fraction(t)], [Fraction(-t), Fraction(2)]])
    b = Matrix(Q, [[Fraction(t), Fraction(-1, 7)], [Fraction(t, 5), Fraction(-t)]])
    return a, b


@pytest.mark.parametrize("t", sorted(set(_at_the_cutover(1) + _at_the_cutover(2)
                                         + [2 ** 62, 2 ** 63 - 1, 2 ** 63])))
def test_rational_termwise_ops_on_both_sides_of_the_int64_cutover(t):
    """Sums, scalings, Kronecker products, blocks, stacks and combinations
    run on numerators over a common denominator; near 2^62 and 2^63 they
    must still give what the same operations give on Fraction objects."""
    a, b = _near_the_cutover(t)
    x, y = entries_array(a), entries_array(b)
    results = {"a + b": (a + b, x + y), "a - b": (a - b, x - y), "b - a": (b - a, y - x),
               "a + a": (a + a, x + x), "kron": (a.kron(b), np.kron(x, y)),
               "stack_rows": (Matrix.stack_rows(Q, [a, b], 2), np.vstack([x, y])),
               "stack_columns": (Matrix.stack_columns(Q, [a, b], 2), np.hstack([x, y])),
               "hstack": (a.hstack(b), np.hstack([x, y]))}
    for c in (3, -2, Fraction(1, 3), Fraction(-t, 7), t, 0):
        results[f"scale {c}"] = (a.scale(c), x * Fraction(c))
    whole = Matrix(Q, [[t, -t, 1]])  # denominator 1: a sum can leave int64 by itself
    z = entries_array(whole)
    results["whole + whole"] = (whole + whole, z + z)
    results["whole - (-whole)"] = (whole - whole.scale(-1), z + z)
    blocks = np.zeros((4, 5), dtype=object)
    blocks[:2, :2], blocks[2:, 3:] = x, y
    results["from_blocks"] = (Matrix.from_blocks(Q, 4, 5, [(0, 0, a), (2, 3, b)]), blocks)
    coeffs = Matrix(Q, [[Fraction(1, 3), Fraction(t), Fraction(0)],
                        [Fraction(-t), Fraction(t, 2), Fraction(1)]])
    w = entries_array(coeffs)
    for j, m in enumerate(Matrix.combinations([a, b], coeffs)):
        results[f"combination {j}"] = (m, w[0, j] * x + w[1, j] * y)
    for name, (got, want) in results.items():
        assert got.entries() == want.tolist(), name
        assert got == Matrix(Q, want), name
        _assert_normal_form(got)


# The operations through which the rest of the engine builds and reads
# matrices, against plain Python numbers: residues mod p, or Fractions
# with numerators above 2^63 so that products over Q leave int64.

SHAPE_FIELDS = [F2, F101, Field.prime(MAX_PRIME), Q]


def _python_entries(field, rows, cols, rng) -> list[list]:
    """Entries as Python numbers, about a third of them zero."""
    def entry():
        if rng.random() < 0.35:
            return field.elem(0)
        if field.is_prime_field:
            return rng.randrange(field.p)
        return Fraction(rng.randrange(-2 ** 70, 2 ** 70), rng.choice(DENOMINATORS))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _matrix(field, entries, cols) -> Matrix:
    return Matrix.from_rows(field, entries, cols)


def _cuts(total, rng) -> list[int]:
    """Sorted cut points 0 = c_0 <= ... <= c_k = total, repeats allowed, so
    that some bands are empty."""
    return sorted([0, total] + [rng.randint(0, total) for _ in range(rng.randint(0, 3))])


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(SHAPE_FIELDS), rows=st.integers(0, 9), cols=st.integers(0, 9),
       seed=st.integers(0, 10**6))
def test_from_blocks_places_blocks_in_zeros(field, rows, cols, seed):
    rng = random.Random(seed)
    row_cuts, col_cuts = _cuts(rows, rng), _cuts(cols, rng)
    want = [[field.elem(0)] * cols for _ in range(rows)]
    blocks = []
    for r0, r1 in zip(row_cuts, row_cuts[1:]):
        for c0, c1 in zip(col_cuts, col_cuts[1:]):
            if rng.random() < 0.6:
                vals = _python_entries(field, r1 - r0, c1 - c0, rng)
                blocks.append((r0, c0, _matrix(field, vals, c1 - c0)))
                for i, row in enumerate(vals):
                    want[r0 + i][c0:c1] = row
    got = Matrix.from_blocks(field, rows, cols, blocks)
    assert (got.rows, got.cols) == (rows, cols)
    assert got.entries() == want
    assert got == _matrix(field, want, cols)


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(SHAPE_FIELDS), rows=st.integers(0, 6), cols=st.integers(0, 6),
       seed=st.integers(0, 10**6))
def test_reshape_regroups_and_entries_read_out(field, rows, cols, seed):
    rng = random.Random(seed)
    vals = _python_entries(field, rows, cols, rng)
    m = _matrix(field, vals, cols)
    assert m.entries() == vals
    assert all(type(x) is (int if field.is_prime_field else Fraction)
               for row in m.entries() for x in row)
    assert m.nonzero_mask().tolist() == [[x != 0 for x in row] for row in vals]
    assert m.nonzero_mask().dtype == bool
    e, c, spread = m.nonzero_entries()
    pairs = [(i, j) for i in range(rows) for j in range(cols) if vals[i][j] != 0]
    assert list(zip(e.tolist(), c.tolist())) == pairs
    assert spread.entries() == [[vals[i][j] if col == j else field.elem(0) for col in range(cols)]
                                for i, j in pairs]
    assert (spread.rows, spread.cols) == (len(pairs), cols)
    flat = [x for row in vals for x in row]
    divisors = [d for d in range(1, rows * cols + 1) if (rows * cols) % d == 0] or [0]
    for r in divisors:
        width = rows * cols // r if r else rng.randint(0, 3)
        got = m.reshape(r, width)
        assert (got.rows, got.cols) == (r, width)
        assert got.entries() == [flat[i * width:(i + 1) * width] for i in range(r)]
    assert m.reshape(rows * cols, 1).reshape(rows, cols) == m
    assert m.transpose().reshape(cols * rows, 1).entries() == \
        [[vals[i][j]] for j in range(cols) for i in range(rows)]


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(SHAPE_FIELDS), k=st.integers(1, 5), rows=st.integers(0, 5),
       cols=st.integers(0, 5), n=st.integers(0, 4), seed=st.integers(0, 10**6))
def test_combinations_equal_sums_of_scaled_matrices(field, k, rows, cols, n, seed):
    rng = random.Random(seed)
    mats = [_python_entries(field, rows, cols, rng) for _ in range(k)]
    coeffs = _python_entries(field, k, n, rng)
    got = Matrix.combinations([_matrix(field, v, cols) for v in mats], _matrix(field, coeffs, n))
    assert len(got) == n
    for j, m in enumerate(got):
        want = [[field.elem(sum(coeffs[t][j] * mats[t][r][c] for t in range(k)))
                 for c in range(cols)] for r in range(rows)]
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries() == want


# Every matrix is in one normal form, so that equal matrices have equal
# arrays: over F_p int64 residues over 1; over Q numerators in lowest terms
# over a positive denominator, int64 exactly when all are below 2^63.

def _assert_normal_form(m: Matrix):
    nums = m.arr.ravel().tolist()
    assert m.arr.shape == (m.rows, m.cols)
    assert m.arr.dtype in (np.dtype(np.int64), np.dtype(object))
    if m.field.is_prime_field:
        assert m.den == 1 and m.arr.dtype == np.int64
        assert all(0 <= n < m.field.p for n in nums)
        return
    assert m.den > 0 and math.gcd(m.den, *nums) == 1
    if not any(nums):
        assert m.den == 1
    assert (m.arr.dtype == np.int64) == all(abs(n) < 2 ** 63 for n in nums)
    assert all(type(n) is int for n in nums)


def _mixed_entries(field, rows, cols, rng) -> list[list]:
    """Zeros, small entries and, over Q, fractions, values near 2^62 and
    2^63 and denominators above 2^63, so that results land on both sides
    of int64."""
    if field.is_prime_field:
        return [[rng.choice([0, 0, 1, rng.randrange(field.p)]) for _ in range(cols)]
                for _ in range(rows)]
    pool = [0, 0, 0, 1, -1, 5, Fraction(1, 3), Fraction(-2, 7), 2 ** 62, -(2 ** 62), 2 ** 63 - 1,
            -(2 ** 63), Fraction(2 ** 70 + 1, 6), Fraction(1, 2 ** 64 + 13)]
    return [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(SHAPE_FIELDS), rows=st.integers(0, 4), cols=st.integers(0, 4),
       seed=st.integers(0, 10**6))
def test_every_operation_returns_the_normal_form(field, rows, cols, seed):
    rng = random.Random(seed)
    a, b = (_matrix(field, _mixed_entries(field, rows, cols, rng), cols) for _ in range(2))
    square = _matrix(field, _mixed_entries(field, cols, cols, rng), cols)
    small = _matrix(field, _mixed_entries(field, 2, 3, rng), 3)
    weights = _matrix(field, _mixed_entries(field, 2, cols, rng), cols)
    x = _matrix(field, _mixed_entries(field, cols, 1, rng), 1)
    scalar = rng.choice([0, 1, -1, 3, "1/3", "-5/2"] if not field.is_prime_field else [0, 1, 3])
    results = [a, b, a + b, a - b, a * square, a.scale(scalar), a.transpose(), a.kron(small),
               a.reshape(cols, rows), Matrix.zeros(field, rows, cols),
               Matrix.identity(field, rows), Matrix.block_diag(field, [a, small]),
               Matrix.from_blocks(field, rows + 2, cols + 3, [(0, 0, a), (rows, cols, small)]),
               Matrix.stack_rows(field, [a, b], cols), Matrix.stack_columns(field, [a, b], rows),
               a.hstack(b), a.pad_rows(1, rows + 2), a.nonzero_entries()[2],
               Matrix.stack_rows(field, [a, b], cols).combine_blocks(weights),
               *Matrix.combinations([a, b], small),
               a.rref()[0], a.nullspace(), a.image_basis(), a.solve(a * x)]
    if rows and cols:
        results += [a.submatrix(slice(0, 1), slice(None)), a.submatrix([rows - 1], slice(0, 1)),
                    a.column_vec(cols - 1)]
    if square.is_invertible():
        results.append(square.inverse())
    for m in results:
        _assert_normal_form(m)
        assert m == _matrix(field, m.entries(), m.cols)


def test_equal_matrices_compare_equal_whatever_built_them():
    row = Matrix.from_rows(Q, [["1/2", "1/3"]])
    assert row.column_vec(0) == row.submatrix(slice(None), [0]) == Matrix.from_rows(Q, [["1/2"]])
    assert row.column_vec(1).scale(3) == Matrix.identity(Q, 1)
    assert row.scale(6).column_vec(1) == Matrix.from_rows(Q, [[2]])
    big = Matrix.from_rows(Q, [[2 ** 64, "1/3"]])
    assert big.arr.dtype == object
    assert big.column_vec(1) == Matrix.from_rows(Q, [["1/3"]])
    assert big.column_vec(1).arr.dtype == np.int64
    assert (big - big).den == 1 and (big - big).is_zero()
    tiny = Matrix.from_rows(Q, [[Fraction(1, 2 ** 64 + 13)]])
    joined = Matrix.stack_columns(Q, [Matrix.zeros(Q, 1, 1), tiny], 1)
    assert joined.arr.dtype == np.int64 and joined.den == 2 ** 64 + 13


@pytest.mark.parametrize("field", SHAPE_FIELDS, ids=["F2", "F101", "F2147483647", "Q"])
@pytest.mark.parametrize("left, right", [((4, 4), (5, 5)), ((2, 3), (3, 1)), ((0, 3), (2, 2)),
                                         ((3, 2), (2, 0)), ((0, 0), (1, 1))])
def test_kron_equals_numpy_kron(field, left, right):
    """Matrix.kron, one broadcast product of the entries, is np.kron of the
    numerators over the product of the denominators, entry for entry and
    in dtype: int64 over F_p, and over Q Python ints where numerators pass
    2^63; empty shapes give the empty product of the right shape."""
    rng = random.Random(sum(left) * 10 + sum(right))
    a, b = (_matrix(field, _python_entries(field, r, c, rng), c) for r, c in (left, right))
    x, y = _exact(1, a, b)
    want = Matrix._normal(field, np.kron(x, y), a.den * b.den)
    got = a.kron(b)
    assert got == want and got.arr.dtype == want.arr.dtype
    assert (got.rows, got.cols) == (left[0] * right[0], left[1] * right[1])
    if field.p is None and a.rows * b.rows * a.cols * b.cols:
        assert got.arr.dtype == object


@pytest.mark.parametrize("field", SHAPE_FIELDS, ids=["F2", "F101", "F2147483647", "Q"])
def test_combinations_equal_sums_of_scaled_matrices(field):
    """Matrix.combinations gives sum_k coeffs[k, j] mats[k] for every column
    j of coeffs, the sum of the scaled matrices in normal form."""
    rng = random.Random(7)
    mats = [_matrix(field, _python_entries(field, 2, 3, rng), 3) for _ in range(4)]
    coeffs = _matrix(field, _python_entries(field, 4, 3 * 5, rng), 3 * 5)
    rows = coeffs.entries()
    sums = [sum((m.scale(rows[k][j]) for k, m in enumerate(mats)), Matrix.zeros(field, 2, 3))
            for j in range(3 * 5)]
    assert Matrix.combinations(mats, coeffs) == sums


@pytest.mark.parametrize("field", SHAPE_FIELDS, ids=["F2", "F101", "F2147483647", "Q"])
@pytest.mark.parametrize("r, h, cols, slots", [(2, 3, 4, 3), (6, 8, 60, 12)],
                         ids=["small", "past-the-blas-cutover"])
def test_combine_slots_equals_a_python_loop(field, r, h, cols, slots):
    """Row block t of combine_slots is projs[t] times sum_i coeffs[t r + i, j]
    (block i)[:, j], column by column, computed here on Python numbers; the
    slots share projection objects, one of no rows.  Over F_p the sums run
    on float64 BLAS past BLAS_MIN_MACS multiply-adds when r (p-1)^2 < 2^53,
    in int64 stretches at p = 2^31 - 1; over Q on numerators past 2^63."""
    rng = random.Random(r * cols)
    acted, coeffs = (_matrix(field, _python_entries(field, n, cols, rng), cols)
                     for n in (r * h, slots * r))
    shared = [_matrix(field, _python_entries(field, d, h, rng), h) for d in (3, 5)]
    projs = [([Matrix.zeros(field, 0, h)] + shared)[t % 3] for t in range(slots)]
    a, c = acted.entries(), coeffs.entries()
    want = [proj * _matrix(field, [[sum(c[t * r + i][j] * a[i * h + k][j] for i in range(r))
                                    for j in range(cols)] for k in range(h)], cols)
            for t, proj in enumerate(projs)]
    assert acted.combine_slots(coeffs, projs) == Matrix.stack_rows(field, want, cols)
    assert (r * h * cols * slots >= BLAS_MIN_MACS) == (cols > 4)
