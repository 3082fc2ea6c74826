"""Quiver algebra construction, opposites, and centers (the test helper)."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import pytest

from spherica.algebras import (
    Algebra,
    AlgebraError,
    Arrow,
    QuiverPresentation,
    algebra_from_quiver,
    opposite,
    trivial_algebra,
)
from spherica.linalg import Field, Matrix
from spherica.session import BUILTIN_TEXTS, parse_session

F = Field.prime(101)


from helpers import (
    a2_path_algebra,
    center_basis,
    dual_numbers,
    k_times_k,
    kronecker,
    loop_with_exit,
    x_cubed,
    zigzag_a2,
)


def test_point_algebra():
    k = trivial_algebra(F)
    assert k.dim == 1
    assert k.vertex_idempotents == [0]
    assert k.radical_basis == []


def test_dual_numbers_basis():
    d = dual_numbers()
    assert d.dim == 2
    assert sorted(d.basis_labels) == ["e_v", "x"]
    # x * x = 0
    x = Matrix.basis_vector(F, 2, d.radical_basis[0])
    assert d.multiply_vec(x, x).is_zero()


def test_zigzag_basis():
    z = zigzag_a2()
    assert z.dim == 6
    assert set(z.basis_labels) == {"e_1", "e_2", "a", "b", "a*b", "b*a"}
    assert len(z.radical_basis) == 4


def test_zigzag_length3_products_vanish():
    z = zigzag_a2()
    lab = {l: i for i, l in enumerate(z.basis_labels)}
    a = Matrix.basis_vector(F, 6, lab["a"])
    ba = Matrix.basis_vector(F, 6, lab["b*a"])
    assert z.multiply_vec(a, ba).is_zero()  # a*b*a = 0
    ab = Matrix.basis_vector(F, 6, lab["a*b"])
    assert z.multiply_vec(ab, a) == a.scale(0)  # (a*b)*a = 0


def test_infinite_dimensional_rejected():
    q = QuiverPresentation(
        vertices=("v",),
        arrows=(Arrow("x", "v", "v"),),
        relations=(),
        length_bound=4,
    )
    with pytest.raises(AlgebraError, match="bound too small"):
        algebra_from_quiver(q, F)


def test_nonadmissible_relation_rejected():
    q = QuiverPresentation(
        vertices=("v",),
        arrows=(Arrow("x", "v", "v"),),
        relations=(((1, ("x",)),),),
        length_bound=2,
    )
    with pytest.raises(AlgebraError, match="admissible"):
        algebra_from_quiver(q, F)


def test_noncomposable_relation_rejected():
    q = QuiverPresentation(
        vertices=("1", "2"),
        arrows=(Arrow("a", "1", "2"),),
        relations=(((1, ("a", "a")),),),
        length_bound=3,
    )
    with pytest.raises(AlgebraError, match="composable"):
        algebra_from_quiver(q, F)


def test_associativity_exhaustive_small():
    for alg in (trivial_algebra(F), dual_numbers(), zigzag_a2(), a2_path_algebra()):
        f = alg.field
        for i in range(alg.dim):
            ei = Matrix.basis_vector(f, alg.dim, i)
            for j in range(alg.dim):
                ej = Matrix.basis_vector(f, alg.dim, j)
                ij = alg.multiply_vec(ei, ej)
                for k in range(alg.dim):
                    ek = Matrix.basis_vector(f, alg.dim, k)
                    left = alg.multiply_vec(ij, ek)
                    right = alg.multiply_vec(ei, alg.multiply_vec(ej, ek))
                    assert left == right


def test_opposite_trivial_and_commutative():
    k = trivial_algebra(F)
    assert opposite(k).mult == k.mult
    d = dual_numbers()
    assert opposite(d).mult == d.mult  # commutative algebra


def test_opposite_zigzag_reverses():
    z = zigzag_a2()
    zop = opposite(z)
    assert zop.dim == 6
    lab = {l: i for i, l in enumerate(z.basis_labels)}
    ia, ib, iab = lab["a"], lab["b"], lab["a*b"]
    # in Z: a*b = ab ; in Z^op the product of a and b is b*a composed the other way
    assert z.mult[ia][ib].get(iab) is not None
    assert zop.mult[ib][ia].get(iab) is not None


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_opposites_of_checked_algebras_pass_check(field):
    for build in (trivial_algebra, dual_numbers, x_cubed, zigzag_a2, a2_path_algebra, k_times_k):
        opposite(build(field)).check()


@pytest.mark.parametrize("name", sorted(BUILTIN_TEXTS))
def test_opposites_read_their_algebras_tables(name):
    """opposite(a) reads a's multiplication matrices and ideal bases, sides
    swapped, and they are the ones its own table gives."""
    for q in _session_presentations(BUILTIN_TEXTS[name]).values():
        a = algebra_from_quiver(q, F)
        op = opposite(a)
        left = Algebra._mult_matrices(op, lambda x, y: op.mult[x][y])
        right = Algebra._mult_matrices(op, lambda x, y: op.mult[y][x])
        for i in range(a.dim):
            assert op.left_mult_matrix(i) is a.right_mult_matrix(i) == left[i]
            assert op.right_mult_matrix(i) is a.left_mult_matrix(i) == right[i]
        for e in a.vertex_idempotents:
            assert op.left_ideal_basis(e) is a.right_ideal_basis(e)
            assert op.right_ideal_basis(e) is a.left_ideal_basis(e)
            assert op.left_ideal_basis(e) == right[e].image_basis()
            assert op.right_ideal_basis(e) == left[e].image_basis()


# --- hand-built tables that check() rejects ---------------------------------


def _table(mult: dict[tuple[int, int], dict[int, int]], unit: list[int],
           idempotents: list[int], paths: list[tuple]) -> Algebra:
    """The algebra over F with basis b_0, b_1, ... and the products b_i b_j
    = mult[(i, j)] (0 when absent); the constructor does not check it."""
    n = len(paths)
    table = [[{k: F.elem(c) for k, c in mult.get((i, j), {}).items()} for j in range(n)]
             for i in range(n)]
    return Algebra(F, [f"b{i}" for i in range(n)], table, Matrix.column(F, unit),
                   idempotents, [i for i, p in enumerate(paths) if p], paths)


def _with_unit(n: int, products: dict[tuple[int, int], dict[int, int]]) -> dict:
    """products, with b_0 acting as the identity on both sides."""
    return {**{(0, j): {j: 1} for j in range(n)}, **{(j, 0): {j: 1} for j in range(n)},
            **products}


def test_check_rejects_a_unit_that_is_not_an_identity():
    with pytest.raises(AlgebraError, match="unit is not a left identity"):
        _table({(0, 0): {0: 1}}, [2], [0], [()]).check()


def test_check_rejects_a_product_that_is_not_associative():
    # x y = x and y y = 0, so (x y) y = x but x (y y) = 0
    a = _table(_with_unit(3, {(1, 2): {1: 1}}), [1, 0, 0], [0], [(), (0,), (1,)])
    with pytest.raises(AlgebraError, match=r"not associative on basis triple \(1,2,2\)"):
        a.check()


def test_check_rejects_idempotents_that_are_not_orthogonal():
    # k[p]/(p^2 - p) with both 1 and p declared vertex idempotents: 1 p = p != 0
    a = _table(_with_unit(2, {(1, 1): {1: 1}}), [1, 0], [0, 1], [(), ()])
    with pytest.raises(AlgebraError, match="vertex idempotents are not orthogonal idempotents"):
        a.check()


def test_center_of_point_and_dual_numbers():
    assert len(center_basis(trivial_algebra(F))) == 1
    assert len(center_basis(dual_numbers())) == 2  # whole algebra (commutative)


def test_center_of_zigzag():
    # Hand computation: z = u*(e1+e2) + s*ab + t*ba is the full center (dim 3);
    # the unit and ab+ba in particular are central.
    z = zigzag_a2()
    basis = center_basis(z)
    assert len(basis) == 3
    lab = {l: i for i, l in enumerate(z.basis_labels)}
    for c in basis:
        for i in range(z.dim):
            e = Matrix.basis_vector(F, z.dim, i)
            assert z.multiply_vec(c, e) == z.multiply_vec(e, c)
    # the unit is in the span: solve for coordinates
    span = basis[0]
    for c in basis[1:]:
        span = span.hstack(c)
    assert span.solve(z.unit) is not None
    ab_plus_ba = Matrix.basis_vector(F, 6, lab["a*b"]) + Matrix.basis_vector(F, 6, lab["b*a"])
    assert span.solve(ab_plus_ba) is not None


def test_center_elements_commute_pairwise():
    z = zigzag_a2()
    basis = center_basis(z)
    for c1 in basis:
        for c2 in basis:
            assert z.multiply_vec(c1, c2) == z.multiply_vec(c2, c1)


def test_rational_field_algebra():
    zq = zigzag_a2(Field.rationals())
    assert zq.dim == 6


def test_radical_is_nilpotent():
    # the span of the positive-length basis paths is a nilpotent ideal; in
    # k[x]/(x^3 - x^2) the path x^2 is idempotent, but bound 3 makes x^3 and
    # with it x^2 vanish
    x3_is_x2 = QuiverPresentation(
        vertices=("v",),
        arrows=(Arrow("x", "v", "v"),),
        relations=(((1, ("x", "x", "x")), (-1, ("x", "x"))),),
        length_bound=3,
    )
    for alg in (dual_numbers(), x_cubed(), zigzag_a2(), a2_path_algebra(),
                algebra_from_quiver(x3_is_x2, F)):
        layer = [Matrix.basis_vector(alg.field, alg.dim, i) for i in alg.radical_basis]
        power = 1
        while layer and power <= alg.dim + 1:
            nxt = []
            for x in layer:
                for r in alg.radical_basis:
                    y = alg.multiply_vec(x, Matrix.basis_vector(alg.field, alg.dim, r))
                    if not y.is_zero():
                        nxt.append(y)
            layer = nxt
            power += 1
        assert not layer, f"radical of {alg.name} not nilpotent within dim+1 steps"


# --- the tables of every presentation the repo ships, pinned by digest -------

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FIELDS = {"F2": Field.prime(2), "F3": Field.prime(3), "F101": F,
                 "F2147483647": Field.prime(2147483647), "Q": Field.rationals()}


def _session_presentations(text: str) -> dict[str, QuiverPresentation]:
    return {name: decl.presentation for name, decl in parse_session(text).algebras.items()}


def _shipped_algebras() -> dict[str, object]:
    """name -> a builder of the algebra over a given field, for every
    presentation of the builtin sessions, the examples, tests/helpers.py
    and the benchmark's random-kernel targets."""
    builders = {}
    sessions = {f"builtin {n}": t for n, t in BUILTIN_TEXTS.items()}
    sessions.update({f"example {p.stem}": p.read_text()
                     for p in sorted((ROOT / "examples").glob("*.sph"))})
    for source, text in sessions.items():
        for name, q in _session_presentations(text).items():
            builders[f"{source} {name}"] = \
                lambda field, q=q, name=name: algebra_from_quiver(q, field, name=name)
    for make in (trivial_algebra, dual_numbers, x_cubed, zigzag_a2, a2_path_algebra,
                 k_times_k, kronecker, loop_with_exit):
        builders[f"helpers {make.__name__}"] = make
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, make in workloads.TARGETS.items():
        builders[f"bench {name}"] = \
            lambda field, make=make, name=name: algebra_from_quiver(make(), field, name=name)
    return builders


def _table_digest(alg: Algebra) -> str:
    table = [sorted((k, str(c)) for k, c in row.items()) for rows in alg.mult for row in rows]
    return hashlib.sha256(repr((alg.basis_labels, table)).encode()).hexdigest()[:16]


# every table holds only the coefficient 1, so the digests are the same over
# each field
ALGEBRA_DIGESTS = {
    "builtin identity k": "06ef76cc7c935398",
    "builtin dual_numbers k": "06ef76cc7c935398",
    "builtin dual_numbers D": "3fba2463c8754610",
    "builtin kxk k": "06ef76cc7c935398",
    "builtin kxk KK": "d0485d285b40c4c6",
    "builtin x_cubed k": "06ef76cc7c935398",
    "builtin x_cubed X3": "5e057a78fde1900b",
    "builtin zigzag_a2 k": "06ef76cc7c935398",
    "builtin zigzag_a2 Z": "da7fc603383a6821",
    "builtin zigzag_braid k": "06ef76cc7c935398",
    "builtin zigzag_braid Z": "da7fc603383a6821",
    "builtin morita_2x2 k": "06ef76cc7c935398",
    "builtin morita_2x2 M2": "f1832be85c96beef",
    "example zigzag_a3 k": "06ef76cc7c935398",
    "example zigzag_a3 Z3": "b170d3b26cbc80bd",
    "example zigzag_a4 k": "06ef76cc7c935398",
    "example zigzag_a4 Z4": "28a6d6b30bc557a4",
    "example zigzag_a4_braid6 k": "06ef76cc7c935398",
    "example zigzag_a4_braid6 Z4": "28a6d6b30bc557a4",
    "helpers trivial_algebra": "06ef76cc7c935398",
    "helpers dual_numbers": "3fba2463c8754610",
    "helpers x_cubed": "5e057a78fde1900b",
    "helpers zigzag_a2": "da7fc603383a6821",
    "helpers a2_path_algebra": "f1832be85c96beef",
    "helpers k_times_k": "d0485d285b40c4c6",
    "helpers kronecker": "073b115a11c45381",
    "helpers loop_with_exit": "31cf9306a3c5fd08",
    "bench D": "3fba2463c8754610",
    "bench KK": "d0485d285b40c4c6",
    "bench X3": "5e057a78fde1900b",
    "bench Z": "da7fc603383a6821",
}


@pytest.mark.parametrize("field_name", sorted(DIGEST_FIELDS))
def test_shipped_algebras_match_their_recorded_digests(field_name):
    """Every shipped presentation builds the basis labels and product table
    it built when the digests were recorded, and the table passes check()."""
    got = {}
    for name, build in _shipped_algebras().items():
        alg = build(DIGEST_FIELDS[field_name])
        alg.check()
        got[name] = _table_digest(alg)
    assert got == ALGEBRA_DIGESTS


def test_coefficients_that_cancel_mod_p_sum_to_zero():
    # 1 + 100 = 0 in F101, so the first relation is zero
    q = _session_presentations(
        "algebra D { vertices v; arrows x: v -> v; "
        "relations x*x + 100*x*x = 0; relations x*x = 0; bound 2 }")["D"]
    assert _table_digest(algebra_from_quiver(q, F)) == _table_digest(dual_numbers())


@pytest.mark.parametrize("field_name", ["F2", "F101", "Q"])
@pytest.mark.parametrize("example, algebra", [("zigzag_a3", "Z3"), ("zigzag_a4", "Z4")])
def test_zigzag_length3_zero_relations_are_derived(example, algebra, field_name):
    """The zigzag examples without their length-3 zero relations present
    the same algebras: the other relations imply them."""
    q = _session_presentations((ROOT / "examples" / f"{example}.sph").read_text())[algebra]
    short = dataclasses.replace(q, relations=tuple(
        r for r in q.relations if len(r) > 1 or len(r[0][1]) < 3))
    assert len(q.relations) - len(short.relations) == 2 * (len(q.vertices) - 1)
    field = DIGEST_FIELDS[field_name]
    full, derived = algebra_from_quiver(q, field), algebra_from_quiver(short, field)
    assert (derived.basis_labels, derived.mult) == (full.basis_labels, full.mult)
