"""Theorem layer: conditions, 2-out-of-4, splitting, adjoints, faithfulness."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from spherica.bimodules import (
    check_map,
    direct_sum,
    is_projective,
    projective_bimodule,
    right_multiplicities,
)
from spherica.complexes import (
    Complex,
    direct_sum_complexes,
    find_quasi_iso,
    homology_dims,
    minimal_model,
    scalar_algebra,
    unit_complex,
)
from spherica.kernels import (
    Kernel,
    KernelError,
    compose,
    kernel_ops,
)
from spherica.linalg import Field, Matrix
from spherica import spherical
from spherica.session import _elaborate, builtin_example, builtin_names, parse_session, run_session
from spherica.spherical import (
    check_adjoint_spherical,
    check_appendix,
    check_conditions,
    check_fully_faithful,
    check_splitting,
    check_theorem,
    class_refutations,
    condition_classes,
    is_equivalence_kernel,
    is_spherical,
    quasi_iso_to_identity,
    random_kernel,
    verify_two_out_of_four,
)

from helpers import (
    RANDOM_SHAPES,
    a2_path_algebra,
    adjoint_composites_unminimised,
    conditions_unminimised,
    dual_numbers,
    identity_kernel,
    is_equivalence_unminimised,
    k_times_k,
    kronecker,
    loop_with_exit,
    partly_cancellable_kernel,
    single_term,
    term_dims,
    x_cubed,
    zigzag_a2,
)

F = Field.prime(101)
K = scalar_algebra(F)
D = dual_numbers()
Z = zigzag_a2()
X3 = x_cubed()
KK = k_times_k()
A2 = a2_path_algebra()


def kernel_over(b, vertex=0):
    return Kernel(K, b, single_term(projective_bimodule(K, 0, b, vertex)))


def full_algebra_kernel(b):
    summands = [projective_bimodule(K, 0, b, w)
                for w in range(len(b.vertex_idempotents))]
    return Kernel(K, b, single_term(direct_sum(summands)))


@pytest.fixture(scope="module")
def PD():
    return kernel_over(D)


@pytest.fixture(scope="module")
def PZ():
    return kernel_over(Z)


def test_is_equivalence_identity_and_acyclic():
    assert is_equivalence_kernel(identity_kernel(D))
    acyclic = Kernel(D, D, unit_complex(D).__class__(D, D, {}, {}))
    assert not is_equivalence_kernel(acyclic)
    with pytest.raises(KernelError):
        is_equivalence_kernel(kernel_over(D))   # not an endokernel


def test_cotwist_of_dual_numbers_is_equivalence(PD):
    assert is_equivalence_kernel(kernel_ops(PD).cotwist().kernel)


def test_check_conditions_table(PD, PZ):
    assert check_conditions(identity_kernel(D)).flags() == (False,) * 4
    assert check_conditions(PD).flags() == (True,) * 4
    assert check_conditions(kernel_over(X3)).flags() == (False,) * 4
    assert check_conditions(PZ).flags() == (True,) * 4
    assert check_conditions(full_algebra_kernel(KK)).flags() == (True,) * 4


def test_is_spherical_verdicts(PD):
    assert is_spherical(PD).is_spherical
    assert not is_spherical(identity_kernel(D)).is_spherical
    assert is_spherical(full_algebra_kernel(KK)).is_spherical
    assert not is_spherical(kernel_over(X3)).is_spherical


def test_two_out_of_four_on_examples(PD, PZ):
    for p in (identity_kernel(D), PD, PZ, kernel_over(X3), full_algebra_kernel(KK)):
        assert verify_two_out_of_four(p).passed


def test_check_theorem(PD, PZ):
    assert check_theorem(PD).status == "pass"
    assert check_theorem(PZ).status == "pass"
    assert check_theorem(kernel_over(X3)).status == "not_applicable"
    assert check_theorem(identity_kernel(D)).status == "not_applicable"


def test_check_splitting(PD, PZ):
    assert check_splitting(PD).status == "pass"
    assert check_splitting(PZ).status == "pass"
    assert check_splitting(identity_kernel(D)).status == "not_applicable"


def test_check_adjoint_spherical(PD, PZ):
    assert check_adjoint_spherical(PD).status == "pass"
    assert check_adjoint_spherical(PZ).status == "pass"
    assert check_adjoint_spherical(identity_kernel(D)).status == "not_applicable"


def test_quasi_iso_to_identity(PD):
    assert quasi_iso_to_identity(identity_kernel(Z))
    ops = kernel_ops(PD)
    tw = ops.twist().kernel
    assert not quasi_iso_to_identity(tw)


def test_quasi_iso_to_identity_decides_on_the_one_sided_model(PD, monkeypatch):
    """cotwist(adjoint) o twist over the dual numbers has total dimension
    18; its one-sided minimal model is D itself, one slot e_v D in degree
    0, and the identity test reads that model off the composite as given."""
    import spherica.tilting as tilting_module
    cancelled, models = tilting_module._cancelled, []

    def recording(x, tables):
        out = cancelled(x, tables)
        models.append(out[0])
        return out

    monkeypatch.setattr(tilting_module, "_cancelled", recording)
    c_adj = kernel_ops(kernel_ops(PD).right_adjoint().kernel).cotwist().kernel
    k = compose(c_adj, kernel_ops(PD).twist().kernel)
    assert term_dims(k.complex) == {-1: 4, 0: 10, 1: 4}
    assert quasi_iso_to_identity(k)
    assert [(m.level.tolist(), m.vert.tolist(), len(m.coef)) for m in models] == [([0], [0], D.dim)]


@pytest.mark.parametrize("p", [2, 101])
def test_quasi_iso_to_identity_builds_no_chain_map(p, monkeypatch):
    """The identity test over an algebra with arrows builds no minimal
    model, chain-map space or cone, and searches no witness: the identity
    kernel of zigzag A_2 and the 18-dimensional composite over D are the
    identity, the twist over D is not."""
    import spherica.complexes as complexes_module
    import spherica.kernels as kernels_module
    field = Field.prime(p)
    k, d = scalar_algebra(field), dual_numbers(field)
    pd = Kernel(k, d, single_term(projective_bimodule(k, 0, d, 0)))
    tw = kernel_ops(pd).twist().kernel
    c_adj = kernel_ops(kernel_ops(pd).right_adjoint().kernel).cotwist().kernel
    kernels = [identity_kernel(zigzag_a2(field)), compose(c_adj, tw), tw]

    def refuse(*args, **kwargs):
        raise AssertionError("the identity test built a chain map, cone or two-sided model")

    for module in (complexes_module, kernels_module, spherical):
        for name in ("find_quasi_iso", "chain_map_space", "minimal_model", "cone"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [quasi_iso_to_identity(k) for k in kernels] == [True, True, False]


def test_check_appendix(PD, PZ):
    assert check_appendix(PD).status == "pass"
    assert check_appendix(PZ).status == "pass"
    assert check_appendix(kernel_over(X3)).status == "not_applicable"


def test_fully_faithful_morita():
    p = kernel_over(A2)          # P = e_1 B over the triangular 2x2 algebra
    ops = kernel_ops(p)
    assert ops.rf().complex.dim(0) == 1
    rng = random.Random(5)
    witness = find_quasi_iso(unit_complex(K), ops.rf().complex, rng)
    assert witness is not None
    assert check_fully_faithful(p, witness).status == "pass"


def test_fully_faithful_identity():
    i = identity_kernel(K)
    ops = kernel_ops(i)
    witness = find_quasi_iso(unit_complex(K), ops.rf().complex, random.Random(0))
    assert check_fully_faithful(i, witness).status == "pass"


def test_fully_faithful_dual_numbers_unmet(PD):
    # RF is 2-dimensional: no witness k -> RF can exist
    ops = kernel_ops(PD)
    assert find_quasi_iso(unit_complex(K), ops.rf().complex, random.Random(0)) is None


def _two_out_of_four_on_random_kernels(field):
    rng = random.Random(2024)
    k = scalar_algebra(field)
    algebras = [make(field) for make in (dual_numbers, k_times_k, x_cubed, zigzag_a2)]
    for i in range(12):
        b = algebras[i % len(algebras)]
        kernel = random_kernel(k, b, rng)
        rep = check_conditions(kernel)
        assert verify_two_out_of_four(kernel, rep).passed, \
            f"count {rep.count()} over {b.name}"


def test_random_kernels_two_out_of_four():
    _two_out_of_four_on_random_kernels(F)


def test_random_kernels_two_out_of_four_over_rationals():
    _two_out_of_four_on_random_kernels(Field.rationals())


def test_random_kernel_over_rationals():
    field = Field.rationals()
    k, d = scalar_algebra(field), dual_numbers(field)
    for seed in range(30):
        kernel = random_kernel(k, d, random.Random(seed))
        again = random_kernel(k, d, random.Random(seed))
        assert kernel.complex.field == field
        for n in kernel.complex.degrees():
            assert kernel.complex.diff_matrix(n) == again.complex.diff_matrix(n)


def _adjoint_pairs(field) -> list[tuple]:
    """The RANDOM_SHAPES pairs, and the A_2 path, Kronecker and loop-with-exit
    algebras, none of them self-injective, as source, target and both."""
    pairs = [(src(field), tgt(field)) for src, tgt in RANDOM_SHAPES.values()]
    for make in (a2_path_algebra, kronecker, loop_with_exit):
        n, z = make(field), zigzag_a2(field)
        pairs += [(n, z), (z, n), (n, n)]
    return pairs


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_random_kernels_have_both_adjoints(field):
    """random_kernel keeps its first draw: the Kernel check on it is the
    one-sided projectivity that both duals need, so every kernel it returns
    has both adjoints."""
    for a, b in _adjoint_pairs(field):
        for seed in range(6):
            k = random_kernel(a, b, random.Random(seed))
            for data in (kernel_ops(k).right_adjoint(), kernel_ops(k).left_adjoint()):
                assert data.kernel.source_algebra is b and data.kernel.target_algebra is a
                data.kernel.complex.check()


def test_random_kernel_deterministic():
    k1 = random_kernel(K, D, random.Random(99))
    k2 = random_kernel(K, D, random.Random(99))
    assert {n: k1.complex.dim(n) for n in k1.complex.degrees()} == \
        {n: k2.complex.dim(n) for n in k2.complex.degrees()}
    for n in k1.complex.degrees():
        assert k1.complex.diff_matrix(n) == k2.complex.diff_matrix(n)


# --- minimal models: the equivalence test runs on them ----------------------


def _check_minimal_model(x: Complex) -> Complex:
    """The minimal model of x has x's homology, passes check(), and has
    biprojective terms."""
    m = minimal_model(x)
    assert homology_dims(m) == homology_dims(x)
    m.check()
    for n, d in m.diffs.items():
        check_map(m.terms[n], m.terms[n + 1], d)
    for t in m.terms.values():
        t.check()
        assert is_projective(t, "left") and is_projective(t, "right")
    return m


def _check_twist_models(p: Kernel) -> tuple[int, int]:
    """Check the minimal models of p's twist and cotwist, and the verdicts of
    check_conditions against the unminimised oracle; returns the total
    dimensions of the two twists before and after minimising.

    A model that cancels nothing is the complex itself, term for term and
    matrix for matrix, so the oracle would repeat the same computation; it
    runs where something was cancelled."""
    ops = kernel_ops(p)
    report = check_conditions(p)
    before = after = 0
    for k, verdict in ((ops.twist().kernel, report.cond_T_equiv),
                       (ops.cotwist().kernel, report.cond_C_equiv)):
        x = k.complex
        m = _check_minimal_model(x)
        before += x.total_dim()
        after += m.total_dim()
        if m.total_dim() < x.total_dim():
            assert verdict == is_equivalence_unminimised(k)
        else:
            assert all(m.terms[n] is t for n, t in x.terms.items())
            assert all(m.diff_matrix(n) == x.diff_matrix(n) for n in x.degrees())
    assert verify_two_out_of_four(p, report).passed
    return before, after


@pytest.mark.parametrize("field", [F, Field.rationals()], ids=["F101", "Q"])
@pytest.mark.parametrize("name", builtin_names())
def test_minimal_models_of_builtin_twists(name, field):
    _, kernels = _elaborate(builtin_example(name), field)
    for p in kernels.values():
        _check_twist_models(p)


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
@pytest.mark.parametrize("shape", sorted(RANDOM_SHAPES))
def test_minimal_models_of_random_twists(field, shape):
    src, tgt = RANDOM_SHAPES[shape]
    sizes = [_check_twist_models(random_kernel(src(field), tgt(field), random.Random(seed)))
             for seed in range(5)]
    before, after = map(sum, zip(*sizes))
    assert after < before       # something was cancelled


def test_minimal_model_of_a_contractible_kernels_twist():
    """[P --id--> P] is contractible, so its twist is the identity kernel of
    X3 up to homotopy, and elimination finds exactly that."""
    p = projective_bimodule(K, 0, X3, 0)
    contractible = Kernel(K, X3, Complex(K, X3, {0: p, 1: p},
                                         {0: Matrix.identity(F, p.dim)}))
    tw = kernel_ops(contractible).twist().kernel
    assert term_dims(tw.complex) == {-2: 9, -1: 18, 0: 12}
    assert term_dims(_check_minimal_model(tw.complex)) == {0: 3}
    assert is_equivalence_kernel(tw)


# --- verdicts on the minimal model of the kernel ------------------------------


def _random_sum(field, shape, seeds) -> Kernel:
    """The random kernel of seeds[0], or the direct sum of those of all seeds."""
    src, tgt = RANDOM_SHAPES[shape]
    a, b = src(field), tgt(field)
    parts = [random_kernel(a, b, random.Random(seed)) for seed in seeds]
    if len(parts) == 1:
        return parts[0]
    return Kernel(a, b, direct_sum_complexes([k.complex for k in parts]))


# seed 0 of each shape is contractible, so its model is 0; seed 2 of D-D is
# a single term, so the sum of the two keeps exactly seed 2's part; the sum
# with seed 1 has an unminimised twist of total dimension 130, whose
# equivalence test reduces matrices of rank in the hundreds
@pytest.mark.parametrize("field, shape, seeds, model_dims", [
    (Field.prime(2), "Z-Z", (0,), {}),
    (F, "D-D", (0, 2), {-1: 4}),
    (Field.rationals(), "D-D", (0,), {}),
    (F, "D-D", (0, 1), {-1: 8}),
], ids=["F2:Z-Z", "F101:D-D+D-D", "Q:D-D", "F101:D-D+D-D:twist130"])
def test_check_conditions_on_the_model_agrees_with_the_kernel(field, shape, seeds, model_dims):
    """The flags and homology profiles decided on the minimal model are the
    ones p itself gives, on kernels that are not minimal."""
    p = _random_sum(field, shape, seeds)
    model = kernel_ops(p).model()
    assert model is not p
    assert term_dims(model.complex) == model_dims
    report = check_conditions(p)
    assert (report.flags(), report.homology_profiles) == conditions_unminimised(p)


_CANCELLABLE_SHAPES = {"k-D": (scalar_algebra, dual_numbers), "k-Z": (scalar_algebra, zigzag_a2),
                       "D-D": (dual_numbers, dual_numbers), "D-X3": (dual_numbers, x_cubed)}


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
@pytest.mark.parametrize("shape", sorted(_CANCELLABLE_SHAPES))
def test_partly_cancellable_kernels_reduce_to_their_minimal_part(field, shape):
    """On partly cancellable kernels (helpers.partly_cancellable_kernel),
    seeds 0-2: the minimal model is the minimal part, of smaller total
    dimension, with the kernel's homology, and the four flags and profiles
    decided on it are the minimal part's.  From k to D they are also those
    that the kernel itself gives, unminimised (elsewhere its twist is too
    large for a test)."""
    src, tgt = _CANCELLABLE_SHAPES[shape]
    a, b = src(field), tgt(field)
    for seed in range(3):
        p, minimal = partly_cancellable_kernel(a, b, random.Random(seed))
        model = kernel_ops(p).model()
        assert term_dims(model.complex) == term_dims(minimal.complex)
        assert 0 < model.complex.total_dim() < p.complex.total_dim()
        assert homology_dims(model.complex) == homology_dims(p.complex)
        report, want = check_conditions(p), check_conditions(minimal)
        assert (report.flags(), report.homology_profiles) == (want.flags(), want.homology_profiles)
        if shape == "k-D":
            assert (report.flags(), report.homology_profiles) == conditions_unminimised(p)


def test_a_spherical_session_decides_only_the_conditions_it_reads(monkeypatch):
    """check P and spherical P read one report of P, built once, and the
    adjoint sphericalness check decides the right adjoint's conditions (2)
    and (4), once each, and never (1) or (3): each condition a verdict
    reads is built once, and no other."""
    reports, decided = [], []
    conditions = spherical._conditions
    monkeypatch.setattr(spherical, "_conditions", lambda p: reports.append(p) or conditions(p))
    for name in ("is_equivalence_kernel", "condition3_map", "condition4_map"):
        def recording(k, name=name, f=getattr(spherical, name)):
            decided.append((name, k))
            return f(k)
        monkeypatch.setattr(spherical, name, recording)
    for session in ("dual_numbers", "kxk", "zigzag_a2"):
        reports.clear()
        decided.clear()
        report = run_session(builtin_example(session))
        assert [r.cmd.split()[0] for r in report.results].count("spherical") == 1
        assert all(r.status == "ok" for r in report.results)
        (p,) = reports
        ops = kernel_ops(kernel_ops(p).model())
        q = ops.right_adjoint().kernel
        q_ops = kernel_ops(kernel_ops(q).model())
        assert [(name, id(k)) for name, k in decided] == [
            ("is_equivalence_kernel", id(ops.twist().kernel)),
            ("is_equivalence_kernel", id(ops.cotwist().kernel)),
            ("condition3_map", id(ops.p)),
            ("condition4_map", id(ops.p)),
            ("is_equivalence_kernel", id(q_ops.cotwist().kernel)),
            ("condition4_map", id(q_ops.p)),
        ]


def _fresh_kernels(field) -> list:
    """Makers of fresh kernels, whose workspaces start empty: every builtin
    kernel, and random kernels of seeds 0-3 on every RANDOM_SHAPES pair."""
    makers = []
    for name in builtin_names():
        for key in _elaborate(builtin_example(name), field)[1]:
            makers.append(lambda name=name, key=key: _elaborate(builtin_example(name), field)[1][key])
    for src, tgt in RANDOM_SHAPES.values():
        a, b = src(field), tgt(field)
        for seed in range(4):
            makers.append(lambda a=a, b=b, seed=seed: random_kernel(a, b, random.Random(seed)))
    return makers


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_a_condition_asked_first_is_the_reports_flag(field):
    """_condition(p, i) gives flag i of check_conditions(p) when it is the
    first thing asked of a fresh kernel, for each i, and after the report
    every condition reads its flag."""
    for make in _fresh_kernels(field):
        for i in (1, 2, 3, 4):
            p = make()
            first = spherical._condition(p, i)
            flags = check_conditions(p).flags()
            assert first == flags[i - 1], (p, i)
            assert tuple(spherical._condition(p, j) for j in (1, 2, 3, 4)) == flags


def _spherical_kernels(field) -> list[Kernel]:
    """The builtin kernels that are spherical, and the spherical random
    kernels of seeds 0-11 on every RANDOM_SHAPES pair."""
    kernels = [p for name in builtin_names()
               for p in _elaborate(builtin_example(name), field)[1].values()]
    for src, tgt in RANDOM_SHAPES.values():
        a, b = src(field), tgt(field)
        kernels += [random_kernel(a, b, random.Random(seed)) for seed in range(12)]
    return [p for p in kernels if is_spherical(p).is_spherical]


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_adjoint_twists_invert_the_twists_in_k0(field):
    """On every spherical kernel, M_{C_R} M_T = I and M_{T_R} M_C = I, as the
    adjoint check's exact "fail" requires of a verdict that passes."""
    kernels = _spherical_kernels(field)
    assert len(kernels) >= 8
    for p in kernels:
        m = kernel_ops(p).model()
        classes = condition_classes(m)
        r_classes = condition_classes(kernel_ops(m).right_adjoint().kernel)
        for adj, orig in (("cotwist", "twist"), ("twist", "cotwist")):
            product = r_classes[adj] @ classes[orig]
            assert product.tolist() == np.identity(len(product), dtype=int).tolist(), (p, adj)


def test_a_wrong_class_fails_the_adjoint_check_before_any_composite(monkeypatch):
    """With condition_classes patched to give the adjoint a wrong twist
    class, check_adjoint_spherical says "fail" from the classes alone: it
    never calls compose."""
    for p in (kernel_over(D), kernel_over(Z)):
        report = check_conditions(p)
        assert check_adjoint_spherical(p, report).status == "pass"
        q = kernel_ops(kernel_ops(p).model()).right_adjoint().kernel
        classes, composed = spherical.condition_classes, []

        def wrong(k):
            out = classes(k)
            return {**out, "twist": 2 * out["twist"]} if k is q else out

        monkeypatch.setattr(spherical, "condition_classes", wrong)
        monkeypatch.setattr(spherical, "compose", lambda *args: composed.append(args))
        verdict = check_adjoint_spherical(p, report)
        assert (verdict.status, verdict.detail) == \
            ("fail", "twist(adjoint) o cotwist is not the identity kernel")
        assert composed == []
        monkeypatch.undo()


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_identity_tests_on_model_composites_agree_with_plain_composites(field, monkeypatch):
    """The two composites check_adjoint_spherical tensors from cached
    minimal models get the answer of quasi_iso_to_identity that the
    composites of the triangles themselves get
    (helpers.adjoint_composites_unminimised), with the same homology and
    K_0 class, on every spherical kernel."""
    tested = []
    identity_test = spherical.quasi_iso_to_identity
    monkeypatch.setattr(spherical, "quasi_iso_to_identity",
                        lambda k: tested.append(k) or identity_test(k))
    for p in _spherical_kernels(field):
        tested.clear()
        assert check_adjoint_spherical(p).status == "pass"
        assert len(tested) == 2
        for on_models, plain in zip(tested, adjoint_composites_unminimised(p)):
            assert identity_test(on_models) == identity_test(plain)
            assert homology_dims(on_models.complex) == homology_dims(plain.complex)
            assert kernel_ops(on_models).k0_class().tolist() == \
                kernel_ops(plain).k0_class().tolist()


@pytest.mark.parametrize("name", builtin_names())
def test_a_minimal_kernel_is_its_own_model(name):
    """Every builtin kernel is minimal, so its verdicts share its workspace."""
    _, kernels = _elaborate(builtin_example(name), F)
    for p in kernels.values():
        assert kernel_ops(p).model() is p


def test_reported_twists_are_not_minimised():
    """The twist and cotwist a caller gets back are built on p's own terms,
    not on its model's, though the verdicts are decided on the model."""
    p = _random_sum(F, "D-D", (0,))
    model_ops = kernel_ops(kernel_ops(p).model())
    own = Kernel(p.source_algebra, p.target_algebra, p.complex)
    verdict = is_spherical(p)
    for reported, fresh, on_model in (
            (verdict.twist_kernel, kernel_ops(own).twist(), model_ops.twist()),
            (verdict.cotwist_kernel, kernel_ops(own).cotwist(), model_ops.cotwist())):
        assert term_dims(reported.complex) == term_dims(fresh.kernel.complex)
        assert term_dims(reported.complex) != term_dims(on_model.kernel.complex)
    assert kernel_ops(p).twist().kernel is verdict.twist_kernel


# --- K_0 classes: exact refutations of the four conditions --------------------


def _oracle_pairs(field) -> dict[str, tuple]:
    """The RANDOM_SHAPES pairs, and k to each of D, KK, X3 and Z."""
    pairs = {shape: (src(field), tgt(field)) for shape, (src, tgt) in RANDOM_SHAPES.items()}
    for make in (dual_numbers, k_times_k, x_cubed, zigzag_a2):
        b = make(field)
        pairs[f"k-{b.name}"] = (scalar_algebra(field), b)
    return pairs


# seed 0 of each RANDOM_SHAPES pair is contractible, and its unminimised
# twists are the slowest to decide, so those pairs start at seed 1; over F2
# and Q the class cannot refute some of the kernels whose flags are all false
@pytest.mark.parametrize("field", [Field.prime(2), Field.prime(3), F, Field.rationals()],
                         ids=["F2", "F3", "F101", "Q"])
def test_class_refutations_agree_with_the_full_constructions(field):
    """check_conditions, which skips what the classes refute, gives the flags
    of the four constructions run in full on the unminimised kernel; every
    refuted condition is false there."""
    seen = {"refuted": 0, "unrefuted false": 0, "true": 0}
    for name, (a, b) in _oracle_pairs(field).items():
        for seed in (1, 2) if name in RANDOM_SHAPES else range(4):
            p = random_kernel(a, b, random.Random(seed))
            flags = check_conditions(p).flags()
            assert flags == conditions_unminimised(p)[0], (name, seed)
            for refuted, holds in zip(class_refutations(kernel_ops(p).model()), flags):
                assert not (refuted and holds), (name, seed)
                seen["refuted" if refuted else "true" if holds else "unrefuted false"] += 1
    assert seen["refuted"] and seen["true"]
    if field.is_prime_field and field.p == 2:
        assert seen["unrefuted false"]


@pytest.mark.parametrize("name, twist, cotwist, flags", [
    ("dual_numbers", [[-1]], [[-1]], (True,) * 4),
    ("x_cubed", [[-2]], [[-2]], (False,) * 4),
    ("identity", [[0]], [[0]], (False,) * 4),
    ("kxk", [[0, -1], [-1, 0]], [[-1]], (True,) * 4),
    ("zigzag_a2", [[-1, 0], [-1, 1]], [[-1]], (True,) * 4),
])
def test_builtin_classes(name, twist, cotwist, flags):
    """The rules' classes of the builtin twists and cotwists, which are the
    classes read off the built complexes."""
    _, kernels = _elaborate(builtin_example(name), F)
    (p,) = kernels.values()
    ops = kernel_ops(p)
    classes = condition_classes(p)
    assert classes["twist"].tolist() == twist
    assert classes["cotwist"].tolist() == cotwist
    assert kernel_ops(ops.twist().kernel).k0_class().tolist() == twist
    assert kernel_ops(ops.cotwist().kernel).k0_class().tolist() == cotwist
    assert check_conditions(p).flags() == flags
    assert class_refutations(p) == tuple(not f for f in flags)


@pytest.mark.parametrize("field, shape, seeds", [
    (Field.prime(2), "Z-Z", (0, 1)),
    (F, "D-D", (0, 2)),
    (F, "D-D", (0, 1)),
    (Field.rationals(), "Z-Z", (0, 3)),
], ids=["F2:Z-Z", "F101:D-D:0+2", "F101:D-D:0+1", "Q:Z-Z"])
def test_class_of_a_kernel_is_the_class_of_its_model(field, shape, seeds):
    """On sums of two random kernels, partly cancellable, the class read off
    p's terms is the one read off its minimal model's."""
    p = _random_sum(field, shape, seeds)
    model = kernel_ops(p).model()
    assert term_dims(model.complex) != term_dims(p.complex)
    assert (kernel_ops(p).k0_class() == kernel_ops(model).k0_class()).all()


def test_braid_words_have_equal_classes():
    """T121 and T212 of zigzag_braid are quasi-isomorphic, so their classes
    agree, and each is the product of its letters' classes."""
    _, kernels = _elaborate(builtin_example("zigzag_braid"), F)
    t1, t2 = (kernel_ops(kernels[n]).twist().kernel for n in ("P1", "P2"))
    m1, m2 = (kernel_ops(t).k0_class() for t in (t1, t2))
    t121 = compose(compose(t1, t2), t1)
    t212 = compose(compose(t2, t1), t2)
    assert kernel_ops(t121).k0_class().tolist() == kernel_ops(t212).k0_class().tolist() \
        == (m1 @ m2 @ m1).tolist() == (m2 @ m1 @ m2).tolist()


@pytest.mark.parametrize("field", [Field.prime(2), F, Field.rationals()], ids=["F2", "F101", "Q"])
def test_class_rules_match_the_built_complexes(field):
    """The product, cone and shift rules give the classes read off the terms
    of a built compose(p, q), twist and cotwist."""
    d, x3, z = dual_numbers(field), x_cubed(field), zigzag_a2(field)
    k = scalar_algebra(field)
    for (a, b, c) in ((d, d, x3), (k, z, z), (z, z, z)):
        for seed in range(3):
            p = random_kernel(a, b, random.Random(seed))
            q = random_kernel(b, c, random.Random(seed + 10))
            pq = kernel_ops(compose(p, q)).k0_class()
            assert pq.tolist() == (kernel_ops(p).k0_class() @ kernel_ops(q).k0_class()).tolist()
            ops, classes = kernel_ops(p), condition_classes(p)
            assert kernel_ops(ops.twist().kernel).k0_class().tolist() == classes["twist"].tolist()
            assert kernel_ops(ops.cotwist().kernel).k0_class().tolist() == \
                classes["cotwist"].tolist()


def test_conditions_need_a_right_projective_right_adjoint():
    """Over the A_2 path, Kronecker and loop-with-exit algebras the right
    adjoint of these endokernels is not right-projective: check_conditions,
    and each condition asked first, says so before it builds a tensor, and
    a session reports it."""
    cases = [(a2_path_algebra, (1, 3)), (kronecker, (1, 2, 3)), (loop_with_exit, (1, 2, 3))]
    for make, seeds in cases:
        a = make(F)
        for seed in seeds:
            for i in (1, 2, 3, 4):
                with pytest.raises(KernelError, match=r"biprojective right adjoint.* degree -?\d"):
                    spherical._condition(random_kernel(a, a, random.Random(seed)), i)
            p = random_kernel(a, a, random.Random(seed))
            with pytest.raises(KernelError, match=r"biprojective right adjoint.* degree -?\d"):
                check_conditions(p)
            r = kernel_ops(p).right_adjoint().kernel
            assert [right_multiplicities(t) is None for t in r.complex.terms.values()] == \
                [not is_projective(t, "right") for t in r.complex.terms.values()]
            with pytest.raises(KernelError, match="no K_0 class"):
                kernel_ops(r).k0_class()
    report = run_session(parse_session("""\
field F 101
algebra A2 { vertices 1 2; arrows a: 1 -> 2; bound 2 }
kernel X from A2 to A2 { deg 0: P(1,2) }
check X
spherical X
"""))
    for r in report.results:
        assert r.status == "error"
        assert r.data["detail"] == ("the four conditions need a biprojective right adjoint, "
                                    "but its term at degree 0 is not right-projective")


# sha256 prefixes of 30 random_kernel draws from random.Random(0) per
# field and algebra pair: the term dimensions, the differentials entry by
# entry, and the rng state after the last draw
RANDOM_KERNEL_DIGESTS = {
    "F2": {"D-D": "94721008dd9d392a", "D-X3": "82ea38dc6d61ce5e", "Z-Z": "2aa42dbedcf8b01a",
           "k-D": "8a87e10e410787b9", "k-KK": "7cdc3efc89d02f17", "k-X3": "348f9647c59f67ec",
           "k-Z": "02d28c4fa875b795"},
    "F101": {"D-D": "738ed1384b99231a", "D-X3": "5ff2300f48fbf238", "Z-Z": "a2299b37a444952f",
             "k-D": "f9db435364633f88", "k-KK": "a43cca4d78baceef", "k-X3": "61bb26aa2ac92cda",
             "k-Z": "58d50f816869de57"},
    "Q": {"D-D": "9cbbb1cb94a9c02b", "D-X3": "ff4cf59a02b721c5", "Z-Z": "d17a7af644d055a9",
          "k-D": "64b4158ad0794922", "k-KK": "ed1a9b79c95800c7", "k-X3": "d88f9b76012ed4f4",
          "k-Z": "c874105bd33734cd"},
}


@pytest.mark.parametrize("field_name", sorted(RANDOM_KERNEL_DIGESTS))
def test_random_kernel_streams_match_their_recorded_digests(field_name):
    """random_kernel draws the same kernels, and leaves the rng in the same
    state, as when the digests were recorded, over F2, F101 and Q on every
    random shape and on k -> D, KK, X3 and Z."""
    field = Field.rationals() if field_name == "Q" else Field.prime(int(field_name[1:]))
    pairs = {**RANDOM_SHAPES, "k-D": (scalar_algebra, dual_numbers),
             "k-KK": (scalar_algebra, k_times_k), "k-X3": (scalar_algebra, x_cubed),
             "k-Z": (scalar_algebra, zigzag_a2)}
    got = {}
    for name, (src, tgt) in pairs.items():
        a, b = src(field), tgt(field)
        rng = random.Random(0)
        h = hashlib.sha256()
        for _ in range(30):
            cx = random_kernel(a, b, rng).complex
            h.update(repr(sorted((n, t.dim) for n, t in cx.terms.items())).encode())
            for n in sorted(cx.diffs):
                d = cx.diffs[n]
                h.update(f"d{n}:{d.rows}x{d.cols}:".encode())
                h.update(",".join(str(x) for row in d.entries() for x in row).encode())
        h.update(repr(rng.getstate()).encode())
        got[name] = h.hexdigest()[:16]
    assert got == RANDOM_KERNEL_DIGESTS[field_name]
