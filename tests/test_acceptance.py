"""Acceptance suite: every criterion at its stated tolerance (exact equality).

Each test prints one CRITERION line so a -s run reads as a checklist.
Budgets are wall-clock upper bounds from the specification of the
artifact's behaviour, generous on purpose.
"""

from __future__ import annotations

import random
import time

from spherica.bimodules import direct_sum, projective_bimodule, regular_bimodule
from spherica.complexes import (
    chain_map_space,
    cone,
    find_quasi_iso,
    homology_dims,
    is_quasi_iso,
    scalar_algebra,
    unit_complex,
)
from spherica.kernels import (
    Kernel,
    compose_list,
    kernel_ops,
    splitting_maps,
)
from spherica.linalg import Field
from spherica.session import builtin_example, run_session
from spherica.spherical import (
    check_adjoint_spherical,
    check_appendix,
    check_conditions,
    check_fully_faithful,
    check_splitting,
    check_theorem,
    is_spherical,
    random_kernel,
    verify_two_out_of_four,
)

from helpers import (
    a2_path_algebra,
    basic_identity_maps,
    dual_numbers,
    hom_cx,
    identity_kernel,
    is_acyclic,
    is_identity_map,
    k_times_k,
    restrict_to_right,
    single_term,
    triangular_identity_composites,
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
    total = direct_sum(summands)
    return Kernel(K, b, single_term(total))


def builtin_kernels():
    """The kernels every 'all builtin kernels' criterion quantifies over."""
    return {
        "identity": identity_kernel(K),
        "dual_numbers": kernel_over(D),
        "kxk": full_algebra_kernel(KK),
        "x_cubed": kernel_over(X3),
        "zigzag_e1": kernel_over(Z, 0),
        "zigzag_e2": kernel_over(Z, 1),
        "morita": kernel_over(A2),
    }


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_dual_numbers_suite():
    t0 = time.time()
    p = kernel_over(D)
    rep = check_conditions(p)
    ok = rep.flags() == (True, True, True, True)
    ok &= rep.homology_profiles["cotwist"] == {1: 1}
    ok &= rep.homology_profiles["twist"] == {-1: 2}       # and H^0 = 0
    into_rfl, _, _ = splitting_maps(p)
    ok &= sum(homology_dims(into_rfl.target).values()) == 4
    _report("1 (dual numbers)", ok, time.time() - t0, 1.0,
            f"conditions={rep.flags()} twist={rep.homology_profiles['twist']} "
            f"cotwist={rep.homology_profiles['cotwist']}")


def test_criterion_2_negative_suite():
    t0 = time.time()
    i = identity_kernel(D)
    rep_i = check_conditions(i)
    ok = rep_i.flags() == (False, False, False, False)
    ok &= is_acyclic(kernel_ops(i).twist().kernel.complex)
    ok &= is_acyclic(kernel_ops(i).cotwist().kernel.complex)
    p3 = kernel_over(X3)
    verdict = is_spherical(p3)
    ok &= not verdict.is_spherical
    ok &= verdict.report.homology_profiles["cotwist"] == {1: 2}
    _report("2 (negative suite)", ok, time.time() - t0, 1.0)


def test_criterion_3_zigzag_suite():
    t0 = time.time()
    p = kernel_over(Z)
    rep = check_conditions(p)
    ok = rep.flags() == (True, True, True, True)
    ok &= is_spherical(p, rep).is_spherical
    ok &= check_theorem(p, rep).status == "pass"
    ok &= check_splitting(p, rep).status == "pass"
    ok &= check_adjoint_spherical(p, rep).status == "pass"
    ok &= check_appendix(p, rep).status == "pass"
    _report("3 (zigzag suite)", ok, time.time() - t0, 10.0)


def test_criterion_4_braid_relation():
    t0 = time.time()
    t1 = kernel_ops(kernel_over(Z, 0)).twist().kernel
    t2 = kernel_ops(kernel_over(Z, 1)).twist().kernel
    t121 = compose_list([t1, t2, t1])
    t212 = compose_list([t2, t1, t2])
    ok = homology_dims(t121.complex) == homology_dims(t212.complex)
    witness = find_quasi_iso(t121.complex, t212.complex, random.Random(1))
    ok &= witness is not None and is_quasi_iso(witness)
    _report("4 (braid relation)", ok, time.time() - t0, 60.0,
            f"profiles={homology_dims(t121.complex)}")


def test_criterion_5_two_out_of_four_invariant():
    t0 = time.time()
    counts = {}
    ok = True
    for name, p in builtin_kernels().items():
        if name == "morita":
            continue   # adjoints of its twist leave the biprojective world
        rep = check_conditions(p)
        counts[rep.count()] = counts.get(rep.count(), 0) + 1
        ok &= verify_two_out_of_four(p, rep).passed
    rng = random.Random(20240809)
    pool = [D, KK, X3, Z]
    for i in range(100):
        b = pool[i % len(pool)]
        k = random_kernel(K, b, rng)
        rep = check_conditions(k)
        counts[rep.count()] = counts.get(rep.count(), 0) + 1
        ok &= verify_two_out_of_four(k, rep).passed
    ok &= not any(c in counts for c in (2, 3))
    _report("5 (2-out-of-4, 100 random kernels)", ok, time.time() - t0, 300.0,
            f"counts={counts}")


def test_criterion_6_basic_identities():
    t0 = time.time()
    ok = True
    for name, p in builtin_kernels().items():
        for comp_name, ch in basic_identity_maps(p).items():
            good = is_quasi_iso(ch)
            ok &= good
            if not good:
                print(f"  basic identity {comp_name} fails on {name}")
    _report("6 (basic identities)", ok, time.time() - t0, 30.0)


def test_criterion_7_wee_beauty():
    t0 = time.time()
    ok = True
    # Morita example: the 2-dim column over the triangular 2x2 algebra
    pm = kernel_over(A2)
    ops = kernel_ops(pm)
    witness = find_quasi_iso(unit_complex(K), ops.rf().complex, random.Random(5))
    ok &= witness is not None
    if witness is not None:
        ok &= check_fully_faithful(pm, witness).status == "pass"
    # identity example: the identity witness
    i = identity_kernel(K)
    iops = kernel_ops(i)
    witness_i = find_quasi_iso(unit_complex(K), iops.rf().complex, random.Random(5))
    ok &= witness_i is not None
    if witness_i is not None:
        ok &= check_fully_faithful(i, witness_i).status == "pass"
    # dual numbers: the hypothesis is unmet (dimension obstruction)
    pd = kernel_over(D)
    dops = kernel_ops(pd)
    no_witness = find_quasi_iso(unit_complex(K), dops.rf().complex, random.Random(5))
    ok &= no_witness is None
    _report("7 (wee-beauty)", ok, time.time() - t0, 5.0)


def test_criterion_8_infrastructure():
    t0 = time.time()
    ok = True
    kernels = builtin_kernels()
    # triangular identities strict on every builtin kernel
    for name, p in kernels.items():
        for tname, ch in triangular_identity_composites(p).items():
            good = is_identity_map(ch)
            ok &= good
            if not good:
                print(f"  triangular identity {tname} not strict on {name}")
    # Euler characteristic additivity of cones over sampled chain maps
    pd = kernels["dual_numbers"]
    tw = kernel_ops(pd).twist()
    for f in chain_map_space(tw.kernel.complex, tw.kernel.complex)[:4]:
        cn = cone(f).cone
        good = cn.euler_characteristic() == 0   # same source and target
        ok &= good
    x = tw.kernel.complex
    y = unit_complex(D)
    for f in chain_map_space(x, y)[:4]:
        cn = cone(f).cone
        ok &= cn.euler_characteristic() == y.euler_characteristic() - x.euler_characteristic()
    # homology alternating sum equals Euler characteristic
    for name, p in kernels.items():
        cx = kernel_ops(p).twist().kernel.complex
        chi = cx.euler_characteristic()
        hsum = sum((-1) ** n * d for n, d in homology_dims(cx).items())
        ok &= chi == hsum
    # adjunction dimension equality on all builtin kernels
    from spherica.complexes import shift, tensor_cx

    def module_of(b):
        return restrict_to_right(regular_bimodule(b))

    for name, p in kernels.items():
        a, b = p.source_algebra, p.target_algebra
        r = kernel_ops(p).right_adjoint().kernel
        x = single_term(module_of(a))
        for y in (single_term(module_of(b)), shift(single_term(module_of(b)), 1)):
            fx = tensor_cx(x, p.complex).complex
            ry = tensor_cx(y, r.complex).complex
            lhs = homology_dims(hom_cx(fx, y)).get(0, 0)
            rhs = homology_dims(hom_cx(x, ry)).get(0, 0)
            good = lhs == rhs
            ok &= good
            if not good:
                print(f"  adjunction dims differ on {name}: {lhs} vs {rhs}")
    # report determinism: byte-identical reruns of every builtin session
    for name in ("identity", "dual_numbers", "x_cubed", "morita_2x2"):
        s = builtin_example(name)
        ok &= run_session(s).to_json() == run_session(s).to_json()
    _report("8 (infrastructure)", ok, time.time() - t0, 30.0)
