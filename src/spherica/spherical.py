"""The theorem layer: equivalence tests, the four conditions, and the verdicts.

A kernel is declared an equivalence when the unit and counit against
its right adjoint are both quasi-isomorphisms; this is constructive and
terminating, and it is exactly the adjunction machinery the rest of the
engine already exercises.

The four conditions tested for a kernel p with twist T and cotwist C:

  (1) T is an equivalence of the target side,
  (2) C is an equivalence of the source side,
  (3) the canonical map LT[-1] -> LFR -> R is a quasi-isomorphism,
  (4) the canonical map R -> RFL -> CL[1] is a quasi-isomorphism.

"Spherical" means (2) and (4).  Any two conditions imply all four, so
the number of satisfied conditions can never be 2 or 3; the consistency
checker treats a count of 2 or 3 as falsifying the engine, not the
mathematics.

Comparisons against the identity kernel use the truncation criterion: a
complex is quasi-isomorphic to the identity kernel exactly when its
homology is concentrated in degree zero and isomorphic, as a bimodule,
to the algebra; a direct chain-level witness is searched first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .algebras import Algebra
from .bimodules import Bimodule, hom_space, projective_bimodule, regular_bimodule
from .complexes import (
    ChainMap,
    Complex,
    find_quasi_iso,
    homology,
    homology_dims,
    is_quasi_iso,
    shift,
    single_term,
    unit_complex,
)
from .kernels import (
    Kernel,
    KernelError,
    KernelMap,
    appendix_map,
    compose,
    condition3_map,
    condition4_map,
    cotwist_kernel,
    kernel_ops,
    right_adjoint_kernel,
    splitting_maps,
    twist_kernel,
)
from .linalg import Matrix


@dataclass
class Verdict:
    status: str                 # "pass" | "fail" | "not_applicable"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def applicable(self) -> bool:
        return self.status != "not_applicable"


@dataclass
class ConditionReport:
    cond_T_equiv: bool
    cond_C_equiv: bool
    cond_3: bool
    cond_4: bool
    homology_profiles: dict[str, dict[int, int]]
    witnesses: dict[str, KernelMap]

    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.cond_T_equiv, self.cond_C_equiv, self.cond_3, self.cond_4)

    def count(self) -> int:
        return sum(self.flags())


@dataclass
class SphericalVerdict:
    is_spherical: bool
    report: ConditionReport
    twist_kernel: Kernel
    cotwist_kernel: Kernel


def is_equivalence_kernel(k: Kernel) -> bool:
    """True iff the kernel is invertible against its right adjoint."""
    if not k.is_endokernel():
        raise KernelError("is_equivalence_kernel expects an endokernel")
    ops = kernel_ops(k)
    return is_quasi_iso(ops.unit_right()) and is_quasi_iso(ops.counit_right())


def check_conditions(p: Kernel) -> ConditionReport:
    """Evaluate the four conditions and collect homology profiles."""
    ops = kernel_ops(p)
    tw = ops.twist()
    ct = ops.cotwist()
    cond1 = is_equivalence_kernel(tw.kernel)
    cond2 = is_equivalence_kernel(ct.kernel)
    m3 = condition3_map(p)
    m4 = condition4_map(p)
    cond3 = is_quasi_iso(m3.chain)
    cond4 = is_quasi_iso(m4.chain)
    profiles = {
        "twist": homology_dims(tw.kernel.complex),
        "cotwist": homology_dims(ct.kernel.complex),
        "right_adjoint": homology_dims(ops.right_adjoint().kernel.complex),
        "left_adjoint": homology_dims(ops.left_adjoint().kernel.complex),
    }
    return ConditionReport(cond1, cond2, cond3, cond4, profiles,
                           {"condition3": m3, "condition4": m4})


def is_spherical(p: Kernel, report: ConditionReport | None = None) -> SphericalVerdict:
    """Spherical = cotwist an equivalence + canonical comparison of adjoints."""
    report = report or check_conditions(p)
    ops = kernel_ops(p)
    return SphericalVerdict(report.cond_C_equiv and report.cond_4, report,
                            ops.twist().kernel, ops.cotwist().kernel)


def verify_two_out_of_four(p: Kernel, report: ConditionReport | None = None) -> Verdict:
    """The satisfied-condition count must be 0, 1 or 4; anything else would
    falsify the implementation, not the mathematics."""
    report = report or check_conditions(p)
    n = report.count()
    if n in (0, 1, 4):
        return Verdict("pass", f"count={n}")
    return Verdict("fail", f"count={n}: two conditions never imply fewer than four")


def check_theorem(p: Kernel, report: ConditionReport | None = None) -> Verdict:
    """When (2) and (4) hold: T must be an equivalence and the unit of the
    adjunction between T and its left adjoint a quasi-isomorphism."""
    report = report or check_conditions(p)
    if not (report.cond_C_equiv and report.cond_4):
        return Verdict("not_applicable", "cotwist is not an equivalence or (4) fails")
    if not report.cond_T_equiv:
        return Verdict("fail", "hypotheses hold but the twist is not an equivalence")
    tw_ops = kernel_ops(kernel_ops(p).twist().kernel)
    if not is_quasi_iso(tw_ops.unit_left()):
        return Verdict("fail", "unit of the twist adjunction is not a quasi-iso")
    return Verdict("pass")


def check_splitting(p: Kernel, report: ConditionReport | None = None) -> Verdict:
    """For spherical kernels both canonical comparison maps with the direct
    sum of the adjoints are quasi-isomorphisms, degreewise in homology."""
    report = report or check_conditions(p)
    if not (report.cond_C_equiv and report.cond_4):
        return Verdict("not_applicable", "kernel is not spherical")
    into_rfl, from_lfr, sum_cx = splitting_maps(p)
    if not is_quasi_iso(into_rfl):
        return Verdict("fail", "R (+) L -> RFL is not a quasi-iso")
    if not is_quasi_iso(from_lfr):
        return Verdict("fail", "LFR -> R (+) L is not a quasi-iso")
    lhs = homology_dims(into_rfl.target)
    rhs = homology_dims(sum_cx)
    if lhs != rhs:
        return Verdict("fail", f"homology bookkeeping differs: {lhs} vs {rhs}")
    return Verdict("pass")


def quasi_iso_to_identity(k: Kernel, rng: random.Random | None = None) -> bool:
    """Is the endokernel isomorphic to the identity kernel in the derived
    category?  Tries an explicit chain witness, then the truncation
    criterion (homology concentrated in degree 0 and isomorphic to the
    algebra as a bimodule)."""
    if not k.is_endokernel():
        raise KernelError("identity comparison expects an endokernel")
    rng = rng or random.Random(0)
    a = k.source_algebra
    target = unit_complex(a)
    direct = find_quasi_iso(k.complex, target, rng, attempts=8)
    if direct is not None:
        return True
    h = homology(k.complex)
    if set(h) != {0}:
        return False
    h0 = h[0][1]
    if h0.dim != a.dim:
        return False
    reg = regular_bimodule(a)
    candidates = hom_space(reg, h0, "both")
    if not candidates:
        return False
    for c in candidates:
        if c.is_invertible():
            return True
    total = candidates[0]
    for c in candidates[1:]:
        total = total + c
    if total.is_invertible():
        return True
    p = a.field.p
    for _ in range(60):
        f = None
        for c in candidates:
            coeff = rng.randrange(p) if p else rng.randrange(-9, 10)
            if coeff:
                f = c.scale(coeff) if f is None else f + c.scale(coeff)
        if f is not None and f.is_invertible():
            return True
    return False


def check_adjoint_spherical(p: Kernel, report: ConditionReport | None = None,
                            seed: int = 0) -> Verdict:
    """The right adjoint of a spherical kernel is spherical, its twist and
    cotwist inverting the original cotwist and twist."""
    report = report or check_conditions(p)
    if not (report.cond_C_equiv and report.cond_4):
        return Verdict("not_applicable", "kernel is not spherical")
    q = right_adjoint_kernel(p)
    q_report = check_conditions(q)
    if not (q_report.cond_C_equiv and q_report.cond_4):
        return Verdict("fail", "adjoint kernel is not spherical")
    rng = random.Random(seed)
    ops = kernel_ops(p)
    t_orig = ops.twist().kernel
    c_orig = ops.cotwist().kernel
    q_ops = kernel_ops(q)
    c_adj = q_ops.cotwist().kernel     # endokernel of the target side
    t_adj = q_ops.twist().kernel       # endokernel of the source side
    if not quasi_iso_to_identity(compose(c_adj, t_orig), rng):
        return Verdict("fail", "cotwist(adjoint) o twist is not the identity kernel")
    if not quasi_iso_to_identity(compose(t_adj, c_orig), rng):
        return Verdict("fail", "twist(adjoint) o cotwist is not the identity kernel")
    return Verdict("pass")


def check_fully_faithful(p: Kernel, witness: KernelMap) -> Verdict:
    """Any quasi-isomorphism witness id -> RF forces the unit itself to be
    one (the commutative-monoid argument on endotransformations of the
    identity); the engine re-checks the conclusion."""
    ops = kernel_ops(p)
    if witness.chain.source.total_dim() != p.source_algebra.dim or \
            witness.chain.source.degrees() not in ([0], []):
        return Verdict("not_applicable", "witness source is not the identity kernel")
    if witness.chain.target.total_dim() != ops.rf().complex.total_dim():
        return Verdict("not_applicable", "witness target is not the monad kernel")
    if not is_quasi_iso(witness.chain):
        return Verdict("not_applicable", "hypothesis unmet: witness is not a quasi-iso")
    if not is_quasi_iso(ops.unit_right()):
        return Verdict("fail", "witness exists but the unit is not a quasi-iso")
    return Verdict("pass")


def check_appendix(p: Kernel, report: ConditionReport | None = None) -> Verdict:
    """When the cotwist is an equivalence the canonical composite
    RF -> RFLF -> CLF[1] must be a quasi-isomorphism; with (4) this is
    consistent with identifying the adjoints through the cotwist."""
    report = report or check_conditions(p)
    if not report.cond_C_equiv:
        return Verdict("not_applicable", "cotwist is not an equivalence")
    if not is_quasi_iso(appendix_map(p).chain):
        return Verdict("fail", "RF -> CLF[1] is not a quasi-iso")
    detail = "canonical map RF -> CLF[1] is a quasi-iso"
    if report.cond_4:
        detail += "; adjoint identification consistent with condition (4)"
    return Verdict("pass", detail)


# ---------------------------------------------------------------------------
# random biprojective kernels for the consistency suite
# ---------------------------------------------------------------------------


def random_kernel(a: Algebra, b: Algebra, rng: random.Random,
                  max_terms: int = 2, max_summands: int = 2,
                  attempts: int = 25) -> Kernel:
    """A random bounded complex of standard biprojective summands with a
    randomly sampled differential satisfying d^2 = 0.

    Kernels whose one-sided duals fall outside the biprojective world
    (possible over non-self-injective algebras) are resampled, so both
    adjoints of the returned kernel exist in-engine.
    """
    from .bimodules import BimoduleError
    for _ in range(attempts):
        k = _random_kernel_once(a, b, rng, max_terms, max_summands)
        try:
            kernel_ops(k).right_adjoint()
            kernel_ops(k).left_adjoint()
        except (KernelError, BimoduleError):
            continue
        return k
    raise KernelError("could not sample a kernel with in-engine adjoints")


def _random_kernel_once(a: Algebra, b: Algebra, rng: random.Random,
                        max_terms: int, max_summands: int) -> Kernel:
    field = a.field
    n_terms = rng.randint(1, max_terms)
    # keep the twist-equivalence tensors desk-sized: several summands in a
    # single degree, or one summand per degree in longer complexes
    per_term = max_summands if n_terms == 1 else 1
    start = rng.choice([-1, 0])
    terms: dict[int, Bimodule] = {}
    for t in range(n_terms):
        deg = start + t
        summands = []
        for _ in range(rng.randint(1, per_term)):
            v = rng.randrange(len(a.vertex_idempotents))
            w = rng.randrange(len(b.vertex_idempotents))
            summands.append(projective_bimodule(a, v, b, w))
        from .bimodules import direct_sum
        total, _, _ = direct_sum(summands)
        terms[deg] = total

    def draw():
        """A random coefficient: a residue, or over Q a small integer as
        find_quasi_iso draws them."""
        return rng.randrange(field.p) if field.is_prime_field else rng.randrange(-9, 10)

    def random_hom(src: Bimodule, tgt: Bimodule, after=None):
        """A random equivariant map, constrained to kill the image of 'after'."""
        basis = hom_space(src, tgt, "both")
        if not basis:
            return None
        if after is not None and not after.is_zero():
            kept_rows = []
            for h in basis:
                comp = h.matrix * after
                kept_rows.append(Matrix(field, comp.arr.reshape(-1, 1)))
            system = Matrix.stack_columns(field, kept_rows, kept_rows[0].rows)
            null = system.nullspace()
            if null.cols == 0:
                return None
            coeffs = [draw() for _ in range(null.cols)]
            combo = Matrix.zeros(field, len(basis), 1)
            for j, c in enumerate(coeffs):
                if c:
                    combo = combo + null.column_vec(j).scale(c)
            mat = Matrix.zeros(field, tgt.dim, src.dim)
            for i, h in enumerate(basis):
                if combo.arr[i, 0]:
                    mat = mat + h.matrix.scale(combo.arr[i, 0])
            return mat
        mat = Matrix.zeros(field, tgt.dim, src.dim)
        for h in basis:
            c = draw()
            if c:
                mat = mat + h.matrix.scale(c)
        return mat

    diffs = {}
    prev = None
    degs = sorted(terms)
    from .bimodules import BimoduleMap
    for i in range(len(degs) - 1):
        n = degs[i]
        mat = random_hom(terms[n], terms[n + 1], after=prev)
        if mat is None or mat.is_zero():
            prev = None
            continue
        diffs[n] = BimoduleMap(terms[n], terms[n + 1], mat)
        prev = mat
    cx = Complex(a, b, terms, diffs)
    return Kernel(a, b, cx)
