"""Bimodules: hom spaces, projectivity, duals with strict dual bases, tensors,
and splittings assembled from part records."""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import random
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from spherica import bimodules, complexes, kernels, spherical
from spherica.algebras import opposite, scalar_algebra, trivial_algebra
from spherica.bimodules import (
    Bimodule,
    BimoduleError,
    _cover,
    _left_inverse,
    _splitting,
    check_map,
    coordinate_blocks,
    direct_sum,
    flip,
    hom_space,
    is_projective,
    left_dual,
    projective_bimodule,
    regular_bimodule,
    right_dual,
    right_multiplicities,
    tensor_over_middle,
)
from spherica.complexes import find_quasi_iso, unit_complex
from spherica.kernels import Kernel, kernel_ops
from spherica.linalg import Field, Matrix
from spherica.session import (
    BUILTIN_TEXTS,
    _elaborate,
    builtin_example,
    builtin_names,
    parse_session,
    run_session,
)
from spherica.spherical import (
    check_adjoint_spherical,
    check_conditions,
    random_kernel,
    verify_two_out_of_four,
)

from helpers import (
    RANDOM_SHAPES,
    QuotientTensor,
    braid_models,
    center_basis,
    columns,
    dual_numbers,
    hom_matrices,
    hom_space_by_block_pairs,
    is_identity_matrix,
    k_times_k,
    kronecker,
    loop_with_exit,
    restrict_to_right,
    splitting_phi,
    tilted_summand,
    x_cubed,
    zero_bimodule,
    zigzag_a2,
    zigzag_a4,
)

F = Field.prime(101)
K = trivial_algebra(F)
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
D = dual_numbers()
Z = zigzag_a2()


def e1Z() -> Bimodule:
    """e_1 Z as a (k, Z)-bimodule, via the standard projective P(pt, 1)."""
    return projective_bimodule(K, 0, Z, 0)


def Ze1() -> Bimodule:
    """Z e_1 as a (Z, k)-bimodule."""
    return projective_bimodule(Z, 0, K, 0)


def B_as_kD() -> Bimodule:
    return projective_bimodule(K, 0, D, 0)


def test_regular_bimodule_actions_commute():
    for alg in (K, D, Z):
        m = regular_bimodule(alg)
        assert m.dim == alg.dim
        m.check()


def test_projective_bimodule_dims():
    assert e1Z().dim == 3           # e_1 Z = {e1, a, ab}
    assert Ze1().dim == 3           # Z e_1 = {e1, b, ab}
    assert B_as_kD().dim == 2


def test_standard_summands_are_shared_while_in_use():
    assert e1Z() is e1Z() and Ze1() is Ze1()
    assert projective_bimodule(K, 0, Z, 1) is not e1Z()
    assert projective_bimodule(K, 0, zigzag_a2(), 0) is not e1Z()
    # every elaboration builds its own algebras, so its own summands
    first, second = (_elaborate(builtin_example("zigzag_braid"), F)[1] for _ in range(2))
    summands = lambda kernels: {id(s) for k in kernels.values()
                                for t in k.complex.terms.values() for s, _ in bimodules._pieces(t)}
    assert summands(first) and not summands(first) & summands(second)


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
@pytest.mark.parametrize("fresh_source", [False, True], ids=["scalar", "fresh"])
def test_standard_summands_do_not_keep_their_algebras_alive(field, fresh_source):
    """Once a target algebra and every kernel over it are dropped, the
    algebra is collected, also when the source is the shared scalar algebra."""
    a = dual_numbers(field) if fresh_source else scalar_algebra(field)
    b = zigzag_a2(field)
    kernels = [random_kernel(a, b, random.Random(seed)) for seed in range(4)]
    check_conditions(kernels[0])
    refs = [weakref.ref(b)] + ([weakref.ref(a)] if fresh_source else [])
    del a, b, kernels
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_direct_sum_roundtrip():
    m = e1Z()
    assert direct_sum([m]) is m
    s = direct_sum([m, m])
    assert s.dim == 6
    assert [(p, list(idx)) for p, idx in s.records] == [(m, [0, 1, 2]), (m, [3, 4, 5])]


def test_hom_space_free_module():
    # Hom_{A-left}(A, M) has dimension dim M (Yoneda for the free module):
    # the left homs are the two-sided homs of the restrictions of the flips
    a = regular_bimodule(D)
    left = restrict_to_right(flip(a))
    assert len(hom_space(left, left)) == 2
    right = restrict_to_right(a)
    assert len(hom_space(right, right)) == 2


def test_hom_space_e1Z_into_Z():
    # Hom_{Z-right}(e_1 Z, Z) = Z e_1, dimension 3
    m = e1Z()
    z = restrict_to_right(regular_bimodule(Z))
    maps = hom_space(m, z)
    assert len(maps) == 3


def test_hom_space_matches_enveloping_module_count():
    # bimodule homs of the regular bimodule = center (cross-check algebra op)
    for alg in (D, Z):
        m = regular_bimodule(alg)
        assert len(hom_space(m, m)) == len(center_basis(alg))
    assert hom_space(zero_bimodule(D, D), regular_bimodule(D)) == []


def test_is_projective_regular_and_simple():
    a = regular_bimodule(D)
    assert is_projective(a, "left")
    assert is_projective(a, "right")
    # the 1-dim simple module over the dual numbers is not projective
    one = Matrix.identity(F, 1)
    zero_act = Matrix.zeros(F, 1, 1)
    simple = Bimodule(K, D, [one], [one, zero_act], 1, label="S")
    assert not is_projective(simple, "right")
    assert is_projective(e1Z(), "right")
    with pytest.raises(BimoduleError, match="side must be 'left' or 'right'"):
        is_projective(simple, "both")


def test_right_dual_of_regular():
    a = regular_bimodule(D)
    dd = right_dual(a)
    assert dd.bimodule.dim == 2
    a2 = regular_bimodule(Z)
    assert right_dual(a2).bimodule.dim == 6


def test_right_dual_of_e1Z_is_Ze1():
    dd = right_dual(e1Z())
    assert dd.bimodule.dim == 3
    assert dd.bimodule.left_algebra is Z
    assert dd.bimodule.right_algebra is K


def test_left_dual_of_e1Z():
    dd = left_dual(e1Z())
    assert dd.bimodule.dim == 3
    assert dd.bimodule.left_algebra is Z


def test_dual_basis_identity_right():
    # sum_t g_t . g_t*(x) = x for every x
    for p in (e1Z(), B_as_kD(), regular_bimodule(Z), regular_bimodule(D)):
        dd = right_dual(p)
        total = Matrix.zeros(F, p.dim, p.dim)
        for g, gstar in zip(columns(dd.gens), columns(dd.cogens)):
            Hmat = Matrix.combinations(hom_matrices(dd), gstar)[0]
            total = total + _act_cols(p, g, Hmat)
        assert is_identity_matrix(total)


def _act_cols(p: Bimodule, g: Matrix, coeffs: Matrix) -> Matrix:
    """Columns j -> g . coeffs[:, j] under the right action."""
    cols = []
    for j in range(coeffs.cols):
        cols.append(Matrix.combinations(p.right_action, coeffs.column_vec(j))[0] * g)
    return Matrix.stack_columns(p.field, cols, p.dim)


def test_dual_basis_identity_left():
    # sum_t h_t*(x) . h_t = x for every x
    for p in (e1Z(), B_as_kD(), regular_bimodule(Z)):
        dd = left_dual(p)
        total = Matrix.zeros(F, p.dim, p.dim)
        for h, hstar in zip(columns(dd.gens), columns(dd.cogens)):
            Hmat = Matrix.combinations(hom_matrices(dd), hstar)[0]
            cols = []
            for j in range(p.dim):
                cols.append(Matrix.combinations(p.left_action, Hmat.column_vec(j))[0] * h)
            total = total + Matrix.stack_columns(F, cols, p.dim)
        assert is_identity_matrix(total)


def test_dual_dims_match_hom_space():
    # a one-sided hom space is the two-sided one of the restrictions to
    # scalars; the left homs are read through flip
    for p in (e1Z(), B_as_kD(), Ze1()):
        right_homs = hom_space(restrict_to_right(p),
                               restrict_to_right(regular_bimodule(p.right_algebra)))
        assert right_dual(p).bimodule.dim == len(right_homs)
        left_homs = hom_space(restrict_to_right(flip(p)),
                              restrict_to_right(flip(regular_bimodule(p.left_algebra))))
        assert left_dual(p).bimodule.dim == len(left_homs)


def test_tensor_unit_laws():
    # A (x)_A M -> M has matching dimension
    m = e1Z()
    t = tensor_over_middle(regular_bimodule(K), m)
    assert t.bimodule.dim == m.dim
    t2 = tensor_over_middle(m, regular_bimodule(Z))
    assert t2.bimodule.dim == m.dim


def test_tensor_e1Z_Ze1():
    # e_1 Z (x)_Z Z e_1 = e_1 Z e_1, dimension 2 (spanned by e1, ab)
    t = tensor_over_middle(e1Z(), Ze1())
    assert t.bimodule.dim == 2


def test_tensor_dim_bound_and_assoc_dims():
    m, n = e1Z(), Ze1()
    t = tensor_over_middle(m, n)
    assert t.bimodule.dim <= m.dim * n.dim
    # associativity of dimensions: (e1Z (x) Ze1) (x) k-stuff
    t2 = tensor_over_middle(t.bimodule, regular_bimodule(K))
    t3 = tensor_over_middle(e1Z(), tensor_over_middle(Ze1(), regular_bimodule(K)).bimodule)
    assert t2.bimodule.dim == t3.bimodule.dim == 2


def test_tensor_coords_and_monomials_consistent():
    t = tensor_over_middle(e1Z(), Ze1())
    xs, ys = t.monomial_matrices()
    for k in range(xs.cols):
        coords = t.coords(xs.column_vec(k), ys.column_vec(k))
        assert coords == Matrix.basis_vector(F, t.bimodule.dim, k)


def _tensor_cases(field) -> dict[str, tuple[Bimodule, Bimodule]]:
    """e_1Z (x) Ze_1, D (x) D, and a zigzag case whose left factor splits
    into several slots."""
    k, d, z = trivial_algebra(field), dual_numbers(field), zigzag_a2(field)
    return {"e1Z-Ze1": (projective_bimodule(k, 0, z, 0), projective_bimodule(z, 0, k, 0)),
            "D-D": (regular_bimodule(d), regular_bimodule(d)),
            "zigzag": (regular_bimodule(z),
                       direct_sum([projective_bimodule(z, 0, z, 1), regular_bimodule(z)]))}


@pytest.mark.parametrize("field", [F, Field.rationals()], ids=["F101", "Q"])
@pytest.mark.parametrize("model", ["split", "quotient"])
def test_batched_coords_equal_column_by_column(field, model):
    """split: the batched coordinate map on a tensor with several slots
    agrees with its one-column case.  quotient: on every case, the tensor
    has the dimension of the quotient model, and the two coordinate maps
    differ by one fixed invertible change of basis.  Both: the coordinate
    map is balanced over the middle algebra."""
    import random

    rng = random.Random(7)

    def rand(rows, cols):
        return Matrix.from_rows(field, [[rng.randrange(-50, 51) for _ in range(cols)]
                                        for _ in range(rows)])

    cases = _tensor_cases(field)
    for m, n in (cases.values() if model == "quotient" else [cases["zigzag"]]):
        t = tensor_over_middle(m, n)
        xs, ys = rand(m.dim, 9), rand(n.dim, 9)
        batched = t.coords(xs, ys)
        if model == "split":
            assert t.sp.generators.cols >= 2
            singles = [t.coords(xs.column_vec(j), ys.column_vec(j)) for j in range(9)]
            assert batched == Matrix.stack_columns(field, singles, t.bimodule.dim)
            mx, my = t.monomial_matrices()
            assert is_identity_matrix(t.coords(mx, my))
        else:
            oracle = QuotientTensor(m, n)
            assert t.bimodule.dim == oracle.dim
            change = oracle.coords(*t.monomial_matrices())
            assert change.is_invertible()
            assert oracle.coords(xs, ys) == change * batched
        for g in m.right_algebra.generator_indices:
            assert t.coords(m.right_action[g] * xs, ys) == t.coords(xs, n.left_action[g] * ys)


def test_tensor_generic_fallback_agrees():
    # a left factor that is not right-projective has no splitting, so no
    # tensor: the simple module k over D, whose projective cover has dim 2
    one = Matrix.identity(F, 1)
    zero_act = Matrix.zeros(F, 1, 1)
    simple = Bimodule(K, D, [one], [one, zero_act], 1, label="S")
    with pytest.raises(BimoduleError, match=r"tensor_over_middle needs a right-projective "
                                            r"left factor \(cover dim 2 != dim 1\)"):
        tensor_over_middle(simple, regular_bimodule(D))
    # the quotient model needs no splitting: k (x)_D D = k
    assert QuotientTensor(simple, regular_bimodule(D)).dim == 1


def test_tensor_middle_mismatch():
    with pytest.raises(BimoduleError):
        tensor_over_middle(e1Z(), e1Z())


def test_induced_map_identity():
    t = tensor_over_middle(e1Z(), Ze1())
    ind = t.induced(Matrix.identity(F, 3), Matrix.identity(F, 3), t)
    assert is_identity_matrix(ind)


def test_zero_bimodule():
    z = zero_bimodule(K, D)
    assert z.dim == 0
    assert is_projective(z, "right")
    t = tensor_over_middle(z, regular_bimodule(D))
    assert t.bimodule.dim == 0


def test_tensor_regular_over_itself():
    # B (x)_B B has the dimension of B (unit law for the regular bimodule)
    t = tensor_over_middle(regular_bimodule(D), regular_bimodule(D))
    assert t.bimodule.dim == 2


def test_right_dual_rejects_non_projective():
    one = Matrix.identity(F, 1)
    zero_act = Matrix.zeros(F, 1, 1)
    simple = Bimodule(K, D, [one], [one, zero_act], 1, label="S")
    with pytest.raises(BimoduleError,
                       match=r"right_dual needs a right-projective bimodule \(cover dim 2 != dim 1\)"):
        right_dual(simple)
    with pytest.raises(BimoduleError,
                       match=r"left_dual needs a left-projective bimodule \(cover dim 2 != dim 1\)"):
        left_dual(Bimodule(D, K, [one, zero_act], [one], 1, label="S'"))


def test_flip_swaps_sides_over_opposite_algebras():
    for alg in (K, D, Z):
        assert opposite(opposite(alg)) is alg
        assert opposite(alg) is opposite(alg)
    for m in (e1Z(), Ze1(), regular_bimodule(Z)):
        f = flip(m)
        assert flip(m) is f
        assert f.left_algebra is opposite(m.right_algebra)
        assert f.right_algebra is opposite(m.left_algebra)
        assert f.left_action == m.right_action and f.right_action == m.left_action
        # m read the other way round is a bimodule again
        m.check()
        f.check()
        back = flip(f)
        assert (back.left_algebra, back.right_algebra) == (m.left_algebra, m.right_algebra)
        assert is_projective(m, "left") == is_projective(f, "right")


# --- records: every reader against the fresh construction on the same actions ---

def _without_record(m: Bimodule) -> Bimodule:
    """m's action matrices in a fresh bimodule with no records."""
    return Bimodule(m.left_algebra, m.right_algebra, m.left_action, m.right_action, m.dim,
                    label=m.label)


def _assert_same_splitting(m: Bimodule, got, want) -> None:
    """Two splittings of m, or of bimodules with m's actions, are the same."""
    assert want is not None and got is not None
    assert got.generators == want.generators
    assert got.vertex_pos == want.vertex_pos
    assert list(got.pivots) == list(want.pivots)
    assert splitting_phi(m, got) == splitting_phi(m, want)
    assert got.coords == want.coords


def _assert_split_model_actions(td) -> None:
    """The actions of a tensor, scattered from its records, are the maps
    that its split model induces from the actions of its factors, matrix
    for matrix: a.(x (x) y) = (a.x) (x) y and (x (x) y).c = x (x) (y.c)."""
    t = td.bimodule
    assert t.left_action == [td.induced(a, None, td) for a in td.m.left_action]
    assert t.right_action == [td.induced(None, c, td) for c in td.n.right_action]


def _recording_tensors(monkeypatch) -> list:
    """A list that collects every TensorData built until monkeypatch.undo()."""
    made, init = [], bimodules.TensorData.__init__

    def recording_init(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(bimodules.TensorData, "__init__", recording_init)
    return made


def _assert_assembled_equals_fresh(m: Bimodule) -> None:
    fresh = _without_record(m)
    for w in range(len(m.right_algebra.vertex_idempotents)):
        assert m.right_block(w) == fresh.right_block(w)
        assert m.right_block_proj(w) == fresh.right_block_proj(w)
    got, want = _splitting(m), _splitting(fresh)
    _assert_same_splitting(m, got, want)
    assert (columns(want.generators), want.vertex_pos) == tuple(_cover(fresh)[:2])


def _assert_readers_equal_fresh(m: Bimodule) -> None:
    """Every reader of m's records gives, matrix for matrix, what the fresh
    construction gives on m's own actions: coordinate blocks in the same
    order, vertex blocks on both sides and their projections, double
    blocks, projectivity, splittings on both sides, multiplicities and the
    right dual."""
    fresh = _without_record(m)
    assert [list(b) for b in coordinate_blocks(m)] == [list(b) for b in coordinate_blocks(fresh)]
    for v in range(len(m.left_algebra.vertex_idempotents)):
        assert m.left_block(v) == fresh.left_block(v)
        assert m.left_block_proj(v) == fresh.left_block_proj(v)
        for w in range(len(m.right_algebra.vertex_idempotents)):
            assert m.double_block(v, w) == fresh.double_block(v, w)
            assert m.double_block_proj(v, w) == fresh.double_block_proj(v, w)
    for w in range(len(m.right_algebra.vertex_idempotents)):
        assert m.right_block(w) == fresh.right_block(w)
        assert m.right_block_proj(w) == fresh.right_block_proj(w)
    for view, fresh_view in ((m, fresh), (flip(m), _without_record(flip(m)))):
        got, want = _splitting(view), _splitting(fresh_view)
        assert (got is None) == (want is None)
        if want is not None:
            _assert_same_splitting(view, got, want)
    got, want = right_multiplicities(m), right_multiplicities(fresh)
    assert (got is None and want is None) or (got == want).all()
    if _splitting(fresh) is not None:
        _assert_same_dual(right_dual(m), right_dual(fresh))


def _built_with_records(monkeypatch, run) -> tuple[list[Bimodule], set[int], list[Bimodule]]:
    """Every bimodule with records that run() builds, flips included, the
    ids of those whose right dual it builds, and one reordered piece per
    root and order that it builds."""
    made, dualised = [], set()
    init, dual = Bimodule.__init__, bimodules._dual_of_sum

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Bimodule, "__init__", recording_init)
    monkeypatch.setattr(bimodules, "_dual_of_sum", lambda p: dualised.add(id(p)) or dual(p))
    run()
    monkeypatch.undo()
    reordered = {(id(m._cache["base"][0]), m._cache["base"][1].tobytes()): m
                 for m in made if "base" in m._cache}
    return [m for m in made if m.records], dualised, list(reordered.values())


def _assert_used_readers_equal_fresh(m: Bimodule, dualised: bool) -> None:
    """What the engine read off m's records, against the fresh construction
    on m's own actions: each of the coordinate blocks, vertex blocks and
    their projections, splitting and multiplicities that it cached, and
    the right dual when it built one."""
    fresh = _without_record(m)
    for key, got in list(m._cache.items()):
        if key == "blocks":
            assert [list(b) for b in got] == [list(b) for b in coordinate_blocks(fresh)]
        elif key[0] in ("r", "d"):
            assert got[0] == fresh._block(key)[0]
        elif key[0] == "proj":
            assert got == fresh._block_proj(key[1:])
        elif key == "split":
            want = _splitting(fresh)
            assert (got is None) == (want is None)
            if want is not None:
                _assert_same_splitting(m, got, want)
        elif key == "mult":
            want = right_multiplicities(fresh)
            assert (got is None and want is None) or (got == want).all()
    if dualised:
        # a sum that is one piece at every coordinate has that piece's dual
        piece = m.records[0][0] if len(m.records) == 1 and len(m.records[0][1]) == m.dim else m
        _assert_same_dual(right_dual(m), right_dual(_without_record(piece)))


def _oracle_cases():
    for field, tag in ((Field.prime(2), "F2"), (F, "F101"), (Field.rationals(), "Q")):
        yield pytest.param(field, ("builtins", None), id=f"{tag}:builtins")
        for shape in sorted(RANDOM_SHAPES):
            yield pytest.param(field, ("random", shape), id=f"{tag}:random:{shape}")
        for name in sorted(p.stem for p in EXAMPLES.glob("*.sph")):
            yield pytest.param(field, ("example", name), id=f"{tag}:example:{name}")


def _run_case(field, case) -> None:
    kind, name = case
    if kind == "builtins":
        for n in builtin_names():
            run_session(builtin_example(n), field=field)
    elif kind == "example":
        run_session(parse_session((EXAMPLES / f"{name}.sph").read_text()), field=field)
    else:
        src, tgt = RANDOM_SHAPES[name]
        for seed in range(4):
            k = random_kernel(src(field), tgt(field), random.Random(seed))
            report = check_conditions(k)
            verify_two_out_of_four(k, report)
            check_adjoint_spherical(k, report)


@pytest.mark.parametrize("field, case", _oracle_cases())
def test_records_read_what_the_fresh_constructions_find(field, case, monkeypatch):
    """Every sum, tensor, pair tensor, cone term, model term and adjoint term
    with records that the builtin sessions, the braid examples and the
    checks of random kernels build, and their flips: the blocks read off
    the records are the union-find classes in the same order, and the
    vertex blocks, splittings, multiplicities and duals read off them are
    the fresh constructions on the same actions, matrix for matrix,
    wherever the engine read them.  Every reordered piece, among them the
    pieces of pair tensors recognised as reordered standard summands,
    reads off its root what the fresh constructions find on its own
    actions.  Those actions are the records' own, so every tensor's are
    checked against its split model too: the pieces' actions are the
    split model's at their coordinates."""
    tensors = _recording_tensors(monkeypatch)
    recorded, dualised, reordered = _built_with_records(monkeypatch, lambda: _run_case(field, case))
    assert recorded and tensors and (reordered or case[0] == "random")
    for m in recorded:
        _assert_used_readers_equal_fresh(m, id(m) in dualised)
    for m in reordered:
        _assert_readers_equal_fresh(m)
    for td in tensors:
        _assert_split_model_actions(td)


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_a_reordered_leaf_whose_root_fails_the_check_is_built_fresh(field, monkeypatch):
    """The diagonal tensored with a standard summand in a basis that is no
    permutation of its own is that leaf reordered.  The leaf fails the
    root check, so the reordered piece takes the fresh path: its splitting
    is eliminated on its own actions, and every reader equals the fresh
    construction.  The same tensor with the standard summand itself reads
    its root."""
    z = zigzag_a4(field)
    fresh = []
    for name in ("_fresh_splitting", "_cover"):
        real = getattr(bimodules, name)
        monkeypatch.setattr(bimodules, name, lambda m, real=real: fresh.append(m) or real(m))
    for v, w in itertools.product(range(4), range(4)):
        leaf, standard = tilted_summand(z, v, z, w), projective_bimodule(z, v, z, w)
        piece = bimodules._pair_tensor(regular_bimodule(z), leaf)
        root, order = piece._cache["base"]
        assert root is leaf and (order != np.arange(leaf.dim)).any()
        assert not bimodules._aligned(leaf) and bimodules._aligned(standard)
        fresh.clear()
        _assert_readers_equal_fresh(piece)
        assert any(m is piece for m in fresh)
        shared = bimodules._pair_tensor(regular_bimodule(z), standard)
        assert shared._cache["base"][0] is standard
        fresh.clear()
        _assert_readers_equal_fresh(shared)
        assert not any(m is shared or m is flip(shared) for m in fresh)


def _recorded_composites(k) -> list[Bimodule]:
    """The kernel's terms and their flips, the terms of its adjoints R and L
    (sums of the kept duals of standard summands), the slot tensors and
    total terms of RF = p (x) R and FR = R (x) p, and the cone terms of the
    twist and cotwist: every composite that carries records."""
    ops = kernel_ops(k)
    out = list(k.complex.terms.values())
    for adj in (ops.right_adjoint(), ops.left_adjoint()):
        out += list(adj.kernel.complex.terms.values())
    for t in (ops.rf(), ops.fr()):
        out += [td.bimodule for slots in t.layout.values() for td, _ in slots.values()]
        out += list(t.complex.terms.values())
    for data in (ops.twist(), ops.cotwist()):
        out += list(data.kernel.complex.terms.values())
    out += [flip(m) for m in out]
    return [m for m in out if m.records]


def _record_cases():
    for field, tag in ((Field.prime(2), "F2"), (F, "F101"), (Field.rationals(), "Q")):
        for name in builtin_names():
            yield pytest.param(field, ("builtin", name), id=f"{tag}:builtin:{name}")
        for shape in sorted(RANDOM_SHAPES):
            yield pytest.param(field, ("random", shape), id=f"{tag}:random:{shape}")


def _case_kernels(field, case) -> list:
    """A builtin session's kernels, or two random kernels of a shape."""
    kind, name = case
    if kind == "builtin":
        return list(_elaborate(builtin_example(name), field)[1].values())
    src, tgt = RANDOM_SHAPES[name]
    return [random_kernel(src(field), tgt(field), random.Random(seed)) for seed in (0, 7)]


@pytest.mark.parametrize("field, case", _record_cases())
def test_assembled_splittings_equal_fresh_ones(field, case, monkeypatch):
    """Sums, their flips, tensors, tensor-complex and cone terms: the
    splitting and vertex blocks read off the pieces are the matrices that
    _cover and _splitting find from scratch on the same actions, and the
    actions of every tensor built on the way are its split model's."""
    tensors = _recording_tensors(monkeypatch)
    composites = [m for k in _case_kernels(field, case) for m in _recorded_composites(k)]
    monkeypatch.undo()
    assert composites and tensors
    for m in composites:
        _assert_assembled_equals_fresh(m)
    for td in tensors:
        _assert_split_model_actions(td)


def _recorded_sums(field, case) -> list[Bimodule]:
    """The case's recorded composites, with a sum and its flip that have a
    summand which is not right-projective."""
    k, d = trivial_algebra(field), dual_numbers(field)
    one = Matrix.identity(field, 1)
    simple = Bimodule(k, d, [one], [one, Matrix.zeros(field, 1, 1)], 1, label="S")
    mixed = direct_sum([projective_bimodule(k, 0, d, 0), simple])
    sums = [m for kern in _case_kernels(field, case) for m in _recorded_composites(kern)]
    return sums + [mixed, flip(mixed)]


@pytest.mark.parametrize("field, case", _record_cases())
def test_sums_read_double_blocks_and_projectivity_from_their_summands(field, case):
    """On kernel, cone and tensor terms and their flips, the double blocks
    read off the pieces are the pivot columns of the sum's own actions
    with their left inverses, and projectivity read off the pieces is
    whether the sum splits from scratch."""
    sums = _recorded_sums(field, case)
    for m in sums:
        for v, li in enumerate(m.left_algebra.vertex_idempotents):
            for w, ri in enumerate(m.right_algebra.vertex_idempotents):
                block = (m.left_action[li] * m.right_action[ri]).image_basis()
                assert m.double_block(v, w) == block
                assert m.double_block_proj(v, w) == _left_inverse(block)
        for side, view in (("right", m), ("left", flip(m))):
            assert is_projective(m, side) == (_splitting(_without_record(view)) is not None)
    assert [is_projective(m, side) for m in sums[-2:] for side in ("right", "left")] == \
        [False, True, True, False]


@pytest.mark.parametrize("field, case", _record_cases())
def test_sums_read_coordinate_blocks_from_their_summands(field, case):
    """minimal_model's coordinate blocks of a sum or tensor, read off the
    pieces, are the classes, in order, that the union-find finds on its
    own action matrices."""
    for m in _recorded_sums(field, case):
        want = coordinate_blocks(_without_record(m))
        assert [list(b) for b in coordinate_blocks(m)] == [list(b) for b in want]
        assert sum(len(b) for b in want) == m.dim


def test_no_cover_runs_on_a_tensor_of_kernel_terms(monkeypatch):
    """Splitting a tensor of two kernel terms, and a sum of such tensors,
    reads the pieces' splittings: _cover runs only on leaf bimodules, and
    the composites never build their actions."""
    k = random_kernel(zigzag_a2(), zigzag_a2(), random.Random(7))
    terms = [direct_sum([t, t]) for t in k.complex.terms.values()]
    assert all(t.records for t in terms)
    covered = []
    real_cover = bimodules._cover

    def counting_cover(m):
        covered.append(m)
        return real_cover(m)

    monkeypatch.setattr(bimodules, "_cover", counting_cover)
    tensors = [tensor_over_middle(x, y).bimodule for x in terms for y in terms]
    total = direct_sum(tensors)
    assert _splitting(total) is not None
    for t in tensors + [total]:
        assert _splitting(t) is not None
        assert not isinstance(t._right_action, list) and not isinstance(t._left_action, list)
        assert all(m is not t for m in covered)
    assert all(m.records is None for m in covered)


# --- pair tensors: standard summands again; a one-piece sum is its piece ---

@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
@pytest.mark.parametrize("make", [zigzag_a4, dual_numbers, x_cubed], ids=["A4", "D", "X3"])
def test_pair_tensors_of_standard_summands_are_standard_summands(field, make):
    """P(v,w) (x)_B P(x,y) is dim e_w B e_x copies of P(v,y), for every
    (v, w, x, y): its records are the shared P(v,y), each at coordinates on
    which the tensor's own actions are P(v,y)'s matrices, and they are the
    union-find classes of those actions.  Sums of them likewise."""
    b = make(field)
    n = range(len(b.vertex_idempotents))
    P = lambda v, w: projective_bimodule(b, v, b, w)
    diagonal = regular_bimodule(b)
    for v, w, x, y in itertools.product(n, n, n, n):
        td = tensor_over_middle(P(v, w), P(x, y))
        _assert_split_model_actions(td)
        t = td.bimodule
        assert [p for p, _ in t.records] == [P(v, y)] * diagonal.double_block(w, x).cols
        fresh = _without_record(t)
        for p, idx in t.records:
            cut = lambda a: a.submatrix(idx, slice(None)).submatrix(slice(None), idx)
            assert [cut(a) for a in fresh.left_action] == p.left_action
            assert [cut(a) for a in fresh.right_action] == p.right_action
        assert sorted(list(idx) for _, idx in t.records) == \
            [list(blk) for blk in coordinate_blocks(fresh)]
    rng = random.Random(0)
    for _ in range(10):
        sums = [direct_sum([P(rng.choice(n), rng.choice(n)) for _ in range(2)]) for _ in range(2)]
        t = tensor_over_middle(*sums).bimodule
        assert all(p.label.startswith("P(") for p, _ in t.records)
        _assert_readers_equal_fresh(t)


def test_a_sum_of_one_whole_piece_is_that_piece():
    """A cut that keeps one piece whole, a pair tensor that is one P(v,y)
    and a reordering by the identity are the piece itself, not a sum of
    it; a tensor of two leaves whose pair tensor is one P(v,y) records
    that shared P(v,y) at every coordinate.  A leaf that is no standard
    summand keeps its right dual too."""
    P = lambda v, w: projective_bimodule(Z, v, Z, w)
    total = direct_sum([P(0, 0), P(0, 1), P(1, 0)])
    start = P(0, 0).dim
    assert bimodules.summand(total, np.arange(start, start + P(0, 1).dim)) is P(0, 1)
    assert regular_bimodule(Z).double_block(0, 1).cols == 1
    assert bimodules._pair_tensor(P(0, 0), P(1, 1)) is P(0, 1)
    t = tensor_over_middle(P(0, 0), P(1, 1)).bimodule
    assert len(t.records) == 1 and t.records[0][0] is P(0, 1)
    assert list(t.records[0][1]) == list(range(t.dim))
    assert bimodules._permuted(P(1, 0), np.arange(P(1, 0).dim), "P(1,0)") is P(1, 0)
    twice = bimodules._product(K, Z, [Matrix.identity(F, 2)],
                               bimodules._standard_left(opposite(Z), 0), "k^2(x)e_1Z")
    assert twice.records is None and right_dual(twice) is right_dual(twice)


def test_an_unread_cut_is_freed_by_reference_counting():
    """The action builders of a sum made from records close over the
    records, not over the sum, so a cut that keeps two pieces of three
    whole is freed as soon as its last reference goes, with no collector."""
    P = lambda v, w: projective_bimodule(Z, v, Z, w)
    total = direct_sum([P(0, 0), P(0, 1), P(1, 0)])
    cut = bimodules.summand(total, np.arange(P(0, 0).dim + P(0, 1).dim))
    assert [p for p, _ in cut.records] == [P(0, 0), P(0, 1)]
    ref = weakref.ref(cut)
    gc.disable()
    try:
        del cut
        assert ref() is None
    finally:
        gc.enable()


# --- what records save: actions of composites, covers, fresh duals ---

def _braid6():
    return parse_session((EXAMPLES / "zigzag_a4_braid6.sph").read_text())


def _forced_in_minimal_models(monkeypatch, run) -> int:
    """The action lists of bimodules with records that minimal_model builds
    while run() runs."""
    inside, forced = [0], [0]
    build, model = Bimodule._built, kernels.minimal_model

    def counting_build(self, *args):
        forced[0] += inside[0] > 0 and bool(self.records)
        return build(self, *args)

    def counting_model(x):
        inside[0] += 1
        try:
            return model(x)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(Bimodule, "_built", counting_build)
    monkeypatch.setattr(kernels, "minimal_model", counting_model)
    run()
    monkeypatch.undo()
    return forced[0]


def test_minimal_models_force_no_tensor_left_action(monkeypatch):
    """minimal_model reads the coordinate blocks of tensors off their
    records: on the length-6 braid session (68 tensor left actions before
    records) and on random kernels of every shape, it builds no action of
    a tensor, a sum or any other bimodule with records."""
    assert _forced_in_minimal_models(monkeypatch, lambda: run_session(_braid6())) == 0

    def random_kernels():
        for src, tgt in RANDOM_SHAPES.values():
            for seed in range(4):
                check_conditions(random_kernel(src(F), tgt(F), random.Random(seed)))

    assert _forced_in_minimal_models(monkeypatch, random_kernels) == 0


def test_a_random_pass_covers_and_dualises_only_leaves(monkeypatch):
    """On a warm pass of the random-kernel benchmark stream (seed 20240809),
    fewer than 120 _cover calls run (128 before tensors, cuts and duals
    kept records), _fresh_dual never runs on a bimodule with records, and
    the right dual of an algebra's diagonal is built at most once per
    algebra: the pass may build none, as the equivalence test takes no
    dual, and reading it afterwards returns the kept one."""
    sys.path.insert(0, str(EXAMPLES.parent / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    stream = workloads.draw_kernels(20240809)

    def one_pass():
        for entry in stream:
            k = Kernel(entry["source"], entry["algebra"], entry["complex"], check=False)
            verify_two_out_of_four(k, check_conditions(k))

    covers, fresh_duals = [], []
    cover, fresh_dual = bimodules._cover, bimodules._fresh_dual
    monkeypatch.setattr(bimodules, "_cover", lambda m: covers.append(m) or cover(m))
    monkeypatch.setattr(bimodules, "_fresh_dual",
                        lambda p: fresh_duals.append(p) or fresh_dual(p))
    one_pass()
    covers.clear()
    one_pass()
    assert len(covers) < 120
    assert all(p.records is None for p in fresh_duals)
    diagonals = [id(p.left_algebra) for p in fresh_duals if p.diagonal]
    assert len(diagonals) == len(set(diagonals))
    for entry in stream:
        reg = unit_complex(entry["algebra"]).term(0)
        assert reg.diagonal and right_dual(reg) is right_dual(reg)


# --- hom spaces: one equation per arrow, against every pair of blocks ---

FIELDS = ((Field.prime(2), "F2"), (F, "F101"), (Field.rationals(), "Q"))


BRAIDS = {"zigzag_braid": (lambda: BUILTIN_TEXTS["zigzag_braid"], ["121", "212"]),
          "zigzag_a4_braid6": (lambda: (EXAMPLES / "zigzag_a4_braid6.sph").read_text(),
                               ["312132", "321232"])}


def _hom_cases():
    for field, tag in FIELDS:
        for name in builtin_names():
            yield pytest.param(field, ("builtin", name), id=f"{tag}:builtin:{name}")
        for shape in sorted(RANDOM_SHAPES):
            yield pytest.param(field, ("random", shape), id=f"{tag}:random:{shape}")
        for name in ("kronecker", "loop"):
            yield pytest.param(field, ("quiver", name), id=f"{tag}:quiver:{name}")
        for name in BRAIDS:
            yield pytest.param(field, ("braid", name), id=f"{tag}:braid:{name}")


def _odd_leaf(leaf: Bimodule) -> list[Bimodule]:
    """A leaf that is no shared root, and its sum with a standard summand."""
    return [leaf, direct_sum([leaf, projective_bimodule(leaf.left_algebra, 0, leaf.right_algebra, 0)])]


def _hom_modules(field, case) -> list[Bimodule]:
    """Bimodules to take homs between: a builtin's kernel terms with the
    terms of RF and FR (tensors and sums of them), or two random kernels'
    terms, and the regular bimodules; for a quiver, its regular bimodule,
    its standard projectives, a sum and tensors of them, one-sided
    projectives, a cut of one and its sum with a standard summand; for a
    braid relation, the terms of the two composites' minimal models, whose
    pieces are reordered standard summands and diagonals, with a tilted
    summand, which fails _aligned, and its sum with a standard summand.
    Each with its flip but for the braid models, whose flips' pieces are
    leaves solved as the other cases' are, and a zero bimodule for each
    pair of algebras."""
    kind, name = case
    mods = []
    if kind == "quiver":
        alg = {"kronecker": kronecker, "loop": loop_with_exit}[name](field)
        k, n = trivial_algebra(field), len(alg.vertex_idempotents)
        ps = [projective_bimodule(alg, v, alg, w) for v in range(n) for w in range(n)]
        one_sided = restrict_to_right(regular_bimodule(alg))
        cut = bimodules.summand(one_sided, coordinate_blocks(one_sided)[0])
        mods = [regular_bimodule(alg), direct_sum(ps[:2]), *ps,
                *[tensor_over_middle(x, y).bimodule for x in ps[:2] for y in ps[1:3]],
                *[projective_bimodule(k, 0, alg, w) for w in range(n)], *_odd_leaf(cut), one_sided]
    elif kind == "random":
        a, b = (make(field) for make in RANDOM_SHAPES[name])
        for seed in (0, 7):
            mods += list(random_kernel(a, b, random.Random(seed)).complex.terms.values())
        mods += [regular_bimodule(a), regular_bimodule(b)]
    elif kind == "braid":
        text, words = BRAIDS[name]
        models = braid_models(field, text(), words)
        z = models[0].source_algebra
        mods = [t for k in models for t in k.complex.terms.values()] + _odd_leaf(tilted_summand(z, 0, z, 1))
    else:
        for p in _elaborate(builtin_example(name), field)[1].values():
            ops = kernel_ops(p)
            mods += list(p.complex.terms.values())
            mods += list(ops.rf().complex.terms.values()) + list(ops.fr().complex.terms.values())
            mods += [regular_bimodule(p.source_algebra), regular_bimodule(p.target_algebra)]
    if kind != "braid":
        mods += [flip(m) for m in mods]
    sides = {(id(m.left_algebra), id(m.right_algebra)): m for m in mods}
    return mods + [zero_bimodule(m.left_algebra, m.right_algebra) for m in sides.values()]


def _assert_yoneda_maps_span_the_equations(pairs) -> int:
    """For every pair of roots of the pieces whose source is a standard
    summand: its Yoneda maps are bimodule maps that span the space the
    equations solve for.  The number of such root pairs."""
    roots = {}
    for m, n in pairs:
        for (p, _), (q, _) in itertools.product(bimodules._pieces(m), bimodules._pieces(n)):
            r, s = bimodules._root(p), bimodules._root(q)
            if r.standard:
                roots[id(r), id(s)] = r, s
    for r, s in roots.values():
        yoneda, solved = bimodules._yoneda(r, s), bimodules._solved(r, s)
        flat = lambda maps: Matrix.stack_columns(r.field, [f.reshape(s.dim * r.dim, 1) for f in maps],
                                                 s.dim * r.dim)
        assert flat(yoneda).rank() == flat(yoneda + solved).rank() == len(solved)
        for f in yoneda:
            check_map(r, s, f)
    return len(roots)


@pytest.mark.parametrize("field, case", _hom_cases())
def test_hom_space_equals_the_solve_over_every_block_pair(field, case):
    """hom_space, read off the homs between the pieces' roots, returns the
    maps that the equations over every pair of a source and a target
    block give, matrix for matrix: on terms, tensors, sums, minimal
    models with reordered pieces, cut and tilted leaves, regular and zero
    bimodules and their flips, over quivers with parallel arrows and with
    loops.  The Yoneda maps of every root pair with a standard summand as
    source span the equations' solutions.  Over the two new quivers every
    map is also checked to be a bimodule map, and the endomorphisms of
    the regular bimodule span the center."""
    mods = _hom_modules(field, case)
    pairs = [(m, n) for m in mods for n in mods
             if (m.left_algebra, m.right_algebra) == (n.left_algebra, n.right_algebra)]
    found = 0
    for m, n in pairs:
        homs = hom_space(m, n)
        assert homs == hom_space_by_block_pairs(m, n)
        found += len(homs)
        if case[0] == "quiver":
            for h in homs:
                check_map(m, n, h)
    assert found > 0
    assert _assert_yoneda_maps_span_the_equations(pairs) > 0
    if case[0] == "quiver":
        reg = mods[0]
        assert len(hom_space(reg, reg)) == len(center_basis(reg.left_algebra))


def _randomness_cases(field):
    """(seed, draw) for what draws from hom_space's bases: random kernels
    over the random shapes and from k, as their terms and differentials,
    and the witness searches between the braid models of zigzag_braid and
    between the squares of its two twists, which are not quasi-isomorphic,
    so the search draws at random."""
    pairs = [(a(field), b(field)) for a, b in RANDOM_SHAPES.values()]
    pairs += [(scalar_algebra(field), b(field)) for b in (dual_numbers, k_times_k, x_cubed, zigzag_a2)]

    def kernel(a, b, rng):
        k = random_kernel(a, b, rng)
        return {n: (t.label, t.dim) for n, t in k.complex.terms.items()}, k.complex.diffs

    def witness(x, y, rng):
        f = find_quasi_iso(x.complex, y.complex, rng)
        return f and f.components

    for a, b in pairs:
        for seed in range(20):
            yield seed, functools.partial(kernel, a, b)
    for words in (["121", "212"], ["11", "22"]):
        yield 1, functools.partial(witness, *braid_models(field, BUILTIN_TEXTS["zigzag_braid"], words))


@pytest.mark.parametrize("field", [f for f, _ in FIELDS], ids=[tag for _, tag in FIELDS])
def test_hom_space_keeps_the_randomness_contract(field, monkeypatch):
    """random_kernel draws its differentials as combinations of hom_space's
    basis, and the witness search its candidates from chain_map_space's:
    every result and the rng state after it are those of a run with
    hom_space replaced by the equations' canonical nullspace basis."""
    cases = list(_randomness_cases(field))

    def run() -> list:
        out = []
        for seed, draw in cases:
            rng = random.Random(seed)
            out.append((draw(rng), rng.getstate()))
        return out

    got = run()
    for module in (spherical, complexes):
        monkeypatch.setattr(module, "hom_space", hom_space_by_block_pairs)
    assert run() == got
    assert got[-2][0] and got[-1][0] is None


# --- duals of sums of standard summands, assembled from the kept ones ---


def _standard_sums(field) -> list[Bimodule]:
    """Sums of standard summands whose vertices are out of order, with a
    repeated summand, over the source algebras k, D and Z."""
    k, d, z = trivial_algebra(field), dual_numbers(field), zigzag_a2(field)
    P = projective_bimodule
    return [direct_sum([P(k, 0, z, 1), P(k, 0, z, 0)]),
            direct_sum([P(d, 0, z, 1), P(d, 0, z, 0), P(d, 0, z, 1)]),
            direct_sum([P(z, 0, z, 1), P(z, 1, z, 0), P(z, 0, z, 0)])]


def _assert_same_dual(got, want) -> None:
    assert got.bimodule.label == want.bimodule.label
    assert got.bimodule.dim == want.bimodule.dim
    assert got.bimodule.left_action == want.bimodule.left_action
    assert got.bimodule.right_action == want.bimodule.right_action
    assert hom_matrices(got) == hom_matrices(want)
    assert columns(got.gens) == columns(want.gens)
    assert columns(got.cogens) == columns(want.cogens)


def _assert_same_slot_parts(m: Bimodule, fresh: Bimodule) -> None:
    for v in range(len(m.left_algebra.vertex_idempotents)):
        assert bimodules._slot_action(m, v) == bimodules._slot_action(fresh, v)


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_duals_of_sums_of_standard_summands_equal_fresh_ones(field):
    """right_dual and left_dual of a sum of standard summands are sums of
    the duals each summand keeps, in the order of the sum's splitting.
    They are, matrix for matrix, the duals built from the sum's own
    splitting: actions, hom matrices, generators and cogenerators; and the
    splittings, vertex blocks and slot actions read off their summands are
    the fresh ones.  The dual of such a dual is assembled the same way."""
    for p in _standard_sums(field):
        fresh = _without_record(p)
        for dual in (right_dual, left_dual):
            got, want = dual(p), dual(fresh)
            assert got.bimodule.records and not want.bimodule.records
            _assert_same_dual(got, want)
            _assert_assembled_equals_fresh(got.bimodule)
            _assert_same_slot_parts(got.bimodule, want.bimodule)
        twice, once = right_dual(right_dual(p).bimodule), right_dual(fresh).bimodule
        assert twice.bimodule.records
        _assert_same_dual(twice, right_dual(_without_record(once)))
        for s, _ in p.records:
            assert right_dual(s) is right_dual(s)
            assert right_dual(flip(s)) is right_dual(flip(s))


def _random_matrix(field, rows: int, cols: int, rng: random.Random) -> Matrix:
    if field.is_prime_field:
        return Matrix(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])
    return Matrix.from_rows(field, [[f"{rng.randrange(-9, 10)}/{rng.choice([1, 2, 3, 7])}"
                                     for _ in range(cols)] for _ in range(rows)], cols)


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.prime(2 ** 31 - 1), Field.rationals()],
                         ids=["F2", "F101", "F2147483647", "Q"])
def test_stacked_tensor_coordinates_equal_a_per_slot_loop(field, monkeypatch):
    """On every tensor that the builtin and example sessions build, the
    coordinates of pure tensors x_j (x) y_j from one stacked product, one
    batched combination and one projection per vertex group are those of
    the loop over slots t: c_t(x_j), combined with the b_i . y_j, projected
    onto e_{v_t} n."""
    tensors = _recording_tensors(monkeypatch)
    for name in builtin_names():
        run_session(builtin_example(name), field=field)
    for path in sorted(EXAMPLES.glob("*.sph")):
        run_session(parse_session(path.read_text()), field=field)
    monkeypatch.undo()
    assert len(tensors) > 100
    rng = random.Random(0)
    for td in tensors:
        xs, ys = (_random_matrix(field, m.dim, 3, rng) for m in (td.m, td.n))
        acted = Matrix.stack_rows(field, td.n.left_action, td.n.dim) * ys
        n = td.m.right_algebra.dim  # the rows of each slot's coordinate map c_t
        want = Matrix.stack_rows(field, [
            td.n.left_block_proj(v) * acted.combine_blocks(c * xs)
            for t, v in enumerate(td.sp.vertex_pos)
            for c in [td.sp.coords.submatrix(slice(t * n, (t + 1) * n), slice(None))]], 3)
        assert td.coords(xs, ys) == want
