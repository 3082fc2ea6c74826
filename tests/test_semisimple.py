"""Invertibility and identity over algebras with no arrows, from homology.

Over A = k^n the algebra A (x) A^op is semisimple, so a complex of
A-bimodules is quasi-isomorphic to its cohomology, and the dimensions
dim e_u H^m e_w (complexes.block_homology_dims) classify it.
spherical.is_equivalence_kernel and spherical.quasi_iso_to_identity
decide such kernels from these dimensions alone.  Here both answers are
compared with the general tests, which still decide every algebra with
arrows: the one-sided action tests of spherica.tilting, and a chain
witness to the identity kernel found by complexes.find_quasi_iso on the
minimal model, over F2, F101 and Q.
"""

from __future__ import annotations

import random

import pytest

from spherica import spherical
from spherica.bimodules import direct_sum, projective_bimodule
from spherica.complexes import (
    Complex,
    block_homology_dims,
    find_quasi_iso,
    homology_dims,
    scalar_algebra,
    unit_complex,
)
from spherica.kernels import Kernel, kernel_ops
from spherica.linalg import Field, Matrix
from spherica.session import BUILTIN_TEXTS, parse_session, run_session
from spherica.spherical import (
    check_adjoint_spherical,
    check_conditions,
    is_equivalence_kernel,
    quasi_iso_to_identity,
    random_kernel,
)
from spherica.tilting import left_action_is_quasi_iso, right_action_is_quasi_iso

from helpers import dual_numbers, identity_kernel, k_times_k, x_cubed, zigzag_a2

FIELDS = [Field.prime(2), Field.prime(101), Field.rationals()]


def _cases(field) -> dict[str, tuple[Kernel, bool, bool]]:
    """name -> (endokernel, invertible, the identity) over k and KK."""
    k, kk = scalar_algebra(field), k_times_k(field)

    def p(a, u, w):
        return direct_sum([projective_bimodule(a, u, a, w)])

    def kernel(a, terms, diffs=None):
        return Kernel(a, a, Complex(a, a, terms, diffs or {}))

    swap = direct_sum([projective_bimodule(kk, 0, kk, 1), projective_bimodule(kk, 1, kk, 0)])
    not_one_to_one = direct_sum([projective_bimodule(kk, 0, kk, 0), projective_bimodule(kk, 0, kk, 1)])
    diagonal = unit_complex(kk).terms[0]
    return {
        "KK swap": (kernel(kk, {0: swap}), True, False),
        "KK P(u,u) + P(u,w)": (kernel(kk, {0: not_one_to_one}), False, False),
        "KK P(u,u) + P(w,w)[-1]": (kernel(kk, {0: p(kk, 0, 0), 1: p(kk, 1, 1)}), True, False),
        "KK swap[1]": (kernel(kk, {-1: swap}), True, False),
        "k + k[1]": (kernel(k, {0: p(k, 0, 0), -1: p(k, 0, 0)}), False, False),
        "k[1]": (kernel(k, {-1: p(k, 0, 0)}), True, False),
        "k identity": (identity_kernel(k), True, True),
        "KK identity": (identity_kernel(kk), True, True),
        # a permutation matrix in each degree, but 2 I summed over them
        "KK identity + identity[-1]": (kernel(kk, {0: diagonal, 1: diagonal}), False, False),
        "KK acyclic": (kernel(kk, {0: p(kk, 0, 1), 1: p(kk, 0, 1)},
                              {0: Matrix.identity(field, 1)}), False, False),
    }


def _witness(k: Kernel) -> bool:
    """Whether the chain-map search finds a quasi-isomorphism from k's
    minimal model to the identity kernel."""
    x = kernel_ops(k).model().complex
    return find_quasi_iso(x, unit_complex(k.source_algebra), random.Random(0)) is not None


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_named_kernels_match_the_general_tests(field):
    for name, (k, invertible, identity) in _cases(field).items():
        assert not k.source_algebra.radical_basis, name
        left, right = left_action_is_quasi_iso(k.complex), right_action_is_quasi_iso(k.complex)
        assert is_equivalence_kernel(k) == invertible == (left and right), name
        assert quasi_iso_to_identity(k) == identity == _witness(k), name


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_block_dimensions_sum_to_the_homology(field):
    """Summed over the vertex blocks, the dimensions are homology_dims, on
    the named kernels and on kernels with arrows."""
    kernels = [k for k, _, _ in _cases(field).values()]
    k = scalar_algebra(field)
    for make in (dual_numbers, zigzag_a2):
        b = make(field)
        for seed in range(4):
            p = random_kernel(k, b, random.Random(seed))
            kernels += [p, kernel_ops(p).twist().kernel]
    for p in kernels:
        blocks = block_homology_dims(p.complex)
        assert {n: int(h.sum()) for n, h in blocks.items()} == homology_dims(p.complex)
        assert all(h.shape == (len(p.source_algebra.vertex_idempotents),
                               len(p.target_algebra.vertex_idempotents)) for h in blocks.values())


def test_swap_blocks():
    """The swap bimodule over KK has its homology off the diagonal."""
    k, _, _ = _cases(Field.prime(101))["KK swap"]
    assert {n: h.tolist() for n, h in block_homology_dims(k.complex).items()} == {0: [[0, 1], [1, 0]]}


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F101", "Q"])
def test_decided_kernels_match_the_general_tests(field, monkeypatch):
    """Every endokernel over k or KK that the builtin sessions, random
    kernels from k to D, KK, X3 and Z, and P (+) P[-1] for P = P(pt, 0) from
    k to each of them send to is_equivalence_kernel or quasi_iso_to_identity
    gets the general tests' answer: the action tests for invertibility,
    and a witness found by the chain-map search for the identity.  The
    class of P (+) P[-1] is 0, so no K_0 class refutes its twist or
    cotwist, and some of these are not invertible."""
    equivalences, identities = [], []
    decide, identity = spherical.is_equivalence_kernel, spherical.quasi_iso_to_identity
    monkeypatch.setattr(spherical, "is_equivalence_kernel",
                        lambda k: equivalences.append(k) or decide(k))
    monkeypatch.setattr(spherical, "quasi_iso_to_identity",
                        lambda k: identities.append(k) or identity(k))
    for text in BUILTIN_TEXTS.values():
        run_session(parse_session(text), field=field)
    k = scalar_algebra(field)
    for make in (dual_numbers, k_times_k, x_cubed, zigzag_a2):
        b = make(field)
        for seed in range(6):
            p = random_kernel(k, b, random.Random(seed))
            if check_conditions(p).cond_C_equiv:
                check_adjoint_spherical(p)
        p = projective_bimodule(k, 0, b, 0)
        check_conditions(Kernel(k, b, Complex(k, b, {0: p, 1: p}, {})))
    monkeypatch.undo()
    equivalences = [k for k in equivalences if not k.source_algebra.radical_basis]
    identities = [k for k in identities if not k.source_algebra.radical_basis]
    invertible = [is_equivalence_kernel(k) for k in equivalences]
    assert invertible == [left_action_is_quasi_iso(k.complex) and right_action_is_quasi_iso(k.complex)
                          for k in equivalences]
    assert any(invertible) and not all(invertible)
    witnessed = [k for k in identities if _witness(k)]
    assert witnessed and all(quasi_iso_to_identity(k) for k in witnessed)

