"""Theorem layer: conditions, 2-out-of-4, splitting, adjoints, faithfulness."""

from __future__ import annotations

import random

import pytest

from spherica.bimodules import direct_sum, projective_bimodule
from spherica.complexes import (
    find_quasi_iso,
    scalar_algebra,
    single_term,
    unit_complex,
)
from spherica.kernels import (
    Kernel,
    KernelError,
    compose,
    identity_kernel,
    kernel_ops,
    right_adjoint_kernel,
)
from spherica.linalg import Field
from spherica.spherical import (
    check_adjoint_spherical,
    check_appendix,
    check_conditions,
    check_fully_faithful,
    check_splitting,
    check_theorem,
    is_equivalence_kernel,
    is_spherical,
    quasi_iso_to_identity,
    random_kernel,
    verify_two_out_of_four,
)

from helpers import a2_path_algebra, dual_numbers, k_times_k, x_cubed, zigzag_a2

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
    total, _, _ = direct_sum(summands)
    return Kernel(K, b, single_term(total))


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
    from spherica.kernels import cotwist_kernel
    assert is_equivalence_kernel(cotwist_kernel(PD).kernel)


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


def test_random_kernels_two_out_of_four():
    rng = random.Random(2024)
    algebras = [D, KK, X3, Z]
    for i in range(12):
        b = algebras[i % len(algebras)]
        k = random_kernel(K, b, rng)
        rep = check_conditions(k)
        assert verify_two_out_of_four(k, rep).passed, \
            f"count {rep.count()} over {b.name}"


def test_random_kernel_over_rationals():
    field = Field.rationals()
    k, d = scalar_algebra(field), dual_numbers(field)
    for seed in range(30):
        kernel = random_kernel(k, d, random.Random(seed))
        again = random_kernel(k, d, random.Random(seed))
        assert kernel.complex.field == field
        for n in kernel.complex.degrees():
            assert kernel.complex.diff_matrix(n) == again.complex.diff_matrix(n)


def test_random_kernel_deterministic():
    k1 = random_kernel(K, D, random.Random(99))
    k2 = random_kernel(K, D, random.Random(99))
    assert {n: k1.complex.dim(n) for n in k1.complex.degrees()} == \
        {n: k2.complex.dim(n) for n in k2.complex.degrees()}
    for n in k1.complex.degrees():
        assert k1.complex.diff_matrix(n) == k2.complex.diff_matrix(n)
