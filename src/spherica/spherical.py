"""The theorem layer: equivalence tests, the four conditions, and the verdicts.

An endokernel X over A is declared an equivalence when its left action
A -> Hom_A(X_A, X_A) and its right action A^op -> Hom_A^op(_A X, _A X)
are both quasi-isomorphisms (the two-sided tilting criterion; Rickard,
"Derived equivalences as derived functors", 1991).  These are the units
id -> RF and id -> FL at the generator A, and testing there suffices:
the value at A of a functor given by a kernel is the kernel itself, so a
map of kernels is a quasi-isomorphism exactly when its value at A is one.
With both units invertible, F and L are fully faithful and FL = id, so F
is an equivalence.  spherica.tilting decides these units of kernels, each
on the one-sided minimal model of X's terms, with no adjoint, tensor or
cone; the left action alone decides whether the functor of any kernel is
fully faithful, which the faithful command asks.  Over an
algebra with no arrows, A = k^n, A (x) A^op is semisimple, and both this
test and the identity test below read the dimensions of e_u H e_w
instead (complexes.block_homology_dims).

Every verdict and homology profile is a property of the functor, so it
is decided on the minimal model of the kernel, kernel_ops(p).model(),
which is homotopy equivalent to p and p itself when nothing cancels.
The report check_conditions builds from the four conditions is kept in
kernel_ops(p): a check and a sphericalness test of p share one report,
and the adjoint check decides only the two conditions of R that
sphericalness reads.
The twist and cotwist kernels that are reported come from p itself, and
check_fully_faithful re-checks the monad argument for a witness id -> RF
of the kernel it is given.

The four conditions tested for a kernel p with twist T and cotwist C:

  (1) T is an equivalence of the target side,
  (2) C is an equivalence of the source side,
  (3) the canonical map LT[-1] -> LFR -> R is a quasi-isomorphism,
  (4) the canonical map R -> RFL -> CL[1] is a quasi-isomorphism.

"Spherical" means (2) and (4).  Any two conditions imply all four, so
the number of satisfied conditions can never be 2 or 3; the consistency
checker treats a count of 2 or 3 as falsifying the engine, not the
mathematics.

Before any condition is built, the integer K_0 classes of the kernel
and its adjoints (KernelOps.k0_class) may already rule it out: a derived
equivalence induces an automorphism of the Grothendieck group (Rickard,
"Derived equivalences as derived functors", 1991) and a
quasi-isomorphism preserves classes.  class_refutations tests these
necessary conditions in integer arithmetic; a refuted condition is
false, exactly, and every other one is decided by its construction.

Over an algebra with arrows, comparisons against the identity kernel are
decided on the one-sided minimal model of the kernel's terms as well
(tilting.is_identity).  Its terms are sums of indecomposable projectives
e_v A, and minimal complexes that are homotopy equivalent are isomorphic
(Krull-Schmidt; Krause, arXiv:1410.2822).  So a kernel is the identity
exactly when that model is A in degree 0 and A's left action on it is
twisted by an inner automorphism, which one nullspace decides: nothing
is sampled and no chain map or cone is built.  Random kernels draw their
differentials with complexes.random_combination, the coefficient rule of
the witness search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .algebras import Algebra
from .bimodules import (
    Bimodule,
    direct_sum,
    hom_space,
    is_projective,
    projective_bimodule,
)
from .complexes import (
    ChainMap,
    Complex,
    block_homology_dims,
    homology_dims,
    is_quasi_iso,
    random_combination,
)
from .kernels import (
    Kernel,
    KernelError,
    appendix_map,
    compose,
    condition3_map,
    condition4_map,
    kernel_ops,
    splitting_maps,
)
from .linalg import kept
from .tilting import is_identity, left_action_is_quasi_iso, right_action_is_quasi_iso


@dataclass
class Verdict:
    status: str                 # "pass" | "fail" | "not_applicable"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class ConditionReport:
    """The four flags and homology profiles, computed on the minimal model
    of the kernel."""

    cond_T_equiv: bool
    cond_C_equiv: bool
    cond_3: bool
    cond_4: bool
    homology_profiles: dict[str, dict[int, int]]

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
    """True iff the endokernel X over A is invertible.

    Over an algebra with no arrows, A = k^n and A (x) A^op is semisimple, so
    X is quasi-isomorphic to its cohomology, a sum of shifted simples
    k e_u (x) e_w.  Its functor is then invertible exactly when the matrix
    of dim e_u H e_w summed over the degrees is a permutation matrix: each
    simple goes to one shifted simple, and no two to the same one.

    Otherwise its left action A -> Hom_A(X_A, X_A) and its right action
    A^op -> Hom_A^op(_A X, _A X) must both be quasi-isomorphisms.  They are
    the units id -> RF and id -> FL of its functor F at the generator A,
    and a map of kernels is a quasi-isomorphism exactly when its value at
    A, the map itself, is one; with both invertible, F and L are fully
    faithful and FL = id.  Each action is decided on the one-sided minimal
    model of the kernel's terms as given (spherica.tilting).  Neither way
    builds a model, adjoint, tensor or cone of the kernel."""
    if not k.is_endokernel():
        raise KernelError("is_equivalence_kernel expects an endokernel")
    a = k.source_algebra
    if not a.radical_basis:
        total = sum(block_homology_dims(k.complex).values(),
                    np.zeros((len(a.vertex_idempotents),) * 2, dtype=int))
        return bool((total.sum(axis=0) == 1).all() and (total.sum(axis=1) == 1).all())
    return left_action_is_quasi_iso(k.complex) and right_action_is_quasi_iso(k.complex)


def condition_classes(p: Kernel) -> dict[str, np.ndarray]:
    """The K_0 classes (KernelOps.k0_class) of p's adjoints R and L, its
    twist T and its cotwist C, keyed like the homology profiles.

    p, R and L are read off their terms.  T = cone(FR -> id_B) and
    C = cone(id_A -> RF)[-1] follow from the rules, with FR = R (x) p and
    RF = p (x) R, so no complex is built: M_T = I - M_R M_P and
    M_C = -(M_P M_R - I)."""
    ops = kernel_ops(p)
    m_p = ops.k0_class()
    m_r = kernel_ops(ops.right_adjoint().kernel).k0_class()
    m_l = kernel_ops(ops.left_adjoint().kernel).k0_class()
    id_a, id_b = (np.identity(len(alg.vertex_idempotents), dtype=object)
                  for alg in (ops.A, ops.B))
    return {"right_adjoint": m_r, "left_adjoint": m_l,
            "twist": id_b - m_r @ m_p, "cotwist": -(m_p @ m_r - id_a)}


def _det(m: np.ndarray) -> int:
    """The determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination: every division is exact, so it stays in Python ints."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def class_refutations(p: Kernel) -> tuple[bool, bool, bool, bool]:
    """Which of the four conditions the K_0 classes of p rule out.

    Each test is a necessary condition, so a True is an exact "no":
    an equivalence induces an automorphism of K_0, so (1) and (2) need
    |det M_T| = |det M_C| = 1, and a quasi-isomorphism preserves classes,
    so (3) needs M_{LT[-1]} = -M_T M_L to equal M_R and (4) needs
    M_{CL[1]} = -M_L M_C to equal M_R."""
    cls = condition_classes(p)
    m_t, m_c, m_r, m_l = (cls[k] for k in ("twist", "cotwist", "right_adjoint", "left_adjoint"))
    return (abs(_det(m_t)) != 1, abs(_det(m_c)) != 1,
            not np.array_equal(-(m_t @ m_l), m_r), not np.array_equal(-(m_l @ m_c), m_r))


def check_conditions(p: Kernel) -> ConditionReport:
    """The four flags and the homology profiles of p, all on its minimal
    model, built once per kernel (the report is kept) from the four
    conditions as _condition decides them."""
    return kept(kernel_ops(p)._cache, "report", lambda: _conditions(p))


def _conditions(p: Kernel) -> ConditionReport:
    flags = [_condition(p, i) for i in (1, 2, 3, 4)]
    ops = kernel_ops(kernel_ops(p).model())
    profiles = {
        "twist": homology_dims(ops.twist().kernel.complex),
        "cotwist": homology_dims(ops.cotwist().kernel.complex),
        "right_adjoint": homology_dims(ops.right_adjoint().kernel.complex),
        "left_adjoint": homology_dims(ops.left_adjoint().kernel.complex),
    }
    return ConditionReport(*flags, profiles)


def _condition(p: Kernel, i: int) -> bool:
    """Condition (i) of p, i = 1..4, decided on its minimal model, so a
    verdict decides only the conditions it reads.

    Whichever is asked first runs, once, what every condition needs: the
    right adjoint must be right-projective, as FR = R (x) p is built from
    its splitting (KernelError names the first degree where it is not), and
    class_refutations rules conditions out before any tensor is built.  A
    refuted condition is false with no further work."""
    ops = kernel_ops(p)
    q = ops.model()

    def refutations():
        for n, t in kernel_ops(q).right_adjoint().kernel.complex.terms.items():
            if not is_projective(t, "right"):
                raise KernelError(f"the four conditions need a biprojective right adjoint, "
                                  f"but its term at degree {n} is not right-projective")
        return class_refutations(q)

    if kept(ops._cache, "refutations", refutations)[i - 1]:
        return False
    q_ops = kernel_ops(q)
    if i == 1:
        return is_equivalence_kernel(q_ops.twist().kernel)
    if i == 2:
        return is_equivalence_kernel(q_ops.cotwist().kernel)
    return is_quasi_iso(condition3_map(q) if i == 3 else condition4_map(q))


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
    """When (2) and (4) hold: T must be an equivalence, condition (1).  The
    unit of the adjunction between T and its left adjoint is then a
    quasi-isomorphism with no further test: at the generator A it is the
    right action of T, which is one of the two actions whose
    quasi-isomorphism decides (1)."""
    report = report or check_conditions(p)
    if not (report.cond_C_equiv and report.cond_4):
        return Verdict("not_applicable", "cotwist is not an equivalence or (4) fails")
    if not report.cond_T_equiv:
        return Verdict("fail", "hypotheses hold but the twist is not an equivalence")
    return Verdict("pass")


def check_splitting(p: Kernel, report: ConditionReport | None = None) -> Verdict:
    """For spherical kernels both canonical comparison maps with the direct
    sum of the adjoints are quasi-isomorphisms, degreewise in homology.
    The homology of R (+) L and RFL needs no comparison of its own:
    is_quasi_iso(into_rfl) is False unless they agree in every degree."""
    report = report or check_conditions(p)
    if not (report.cond_C_equiv and report.cond_4):
        return Verdict("not_applicable", "kernel is not spherical")
    into_rfl, from_lfr, _ = splitting_maps(kernel_ops(p).model())
    if not is_quasi_iso(into_rfl):
        return Verdict("fail", "R (+) L -> RFL is not a quasi-iso")
    if not is_quasi_iso(from_lfr):
        return Verdict("fail", "LFR -> R (+) L is not a quasi-iso")
    return Verdict("pass")


def quasi_iso_to_identity(k: Kernel) -> bool:
    """Is the endokernel isomorphic to the identity kernel in the derived
    category?

    Over an algebra with no arrows A (x) A^op is semisimple, so k is
    quasi-isomorphic to its cohomology, and A is the sum of the simples
    k e_u (x) e_u.  So k is the identity exactly when dim e_u H^0 e_w is
    the identity matrix and every other degree has no cohomology.

    Otherwise k is the identity exactly when its one-sided minimal model
    is A as a right module, one term in degree 0, and the left action on
    it is A's up to an inner automorphism (tilting.is_identity).  Both ways
    are exact; neither builds a two-sided model, chain map or cone of k."""
    if not k.is_endokernel():
        raise KernelError("identity comparison expects an endokernel")
    a = k.source_algebra
    if not a.radical_basis:
        dims = block_homology_dims(k.complex)
        return dims.keys() == {0} and np.array_equal(dims[0], np.identity(len(a.vertex_idempotents)))
    return is_identity(k.complex)


def check_adjoint_spherical(p: Kernel, report: ConditionReport | None = None) -> Verdict:
    """The right adjoint R of a spherical kernel is spherical, its twist and
    cotwist inverting the original cotwist and twist.

    Only what the verdict reads is decided: R's conditions (2) and (4);
    then the K_0 classes, as a composite isomorphic to the identity kernel
    has class I, so M_{C_R} M_T != I or M_{T_R} M_C != I is an exact "fail";
    and last the two identity tests, each on the tensor of its factors'
    cached minimal models, which is homotopy equivalent to the tensor of
    the factors."""
    report = report or check_conditions(p)
    if not (report.cond_C_equiv and report.cond_4):
        return Verdict("not_applicable", "kernel is not spherical")
    m = kernel_ops(p).model()
    q = kernel_ops(m).right_adjoint().kernel
    if not (_condition(q, 2) and _condition(q, 4)):
        return Verdict("fail", "adjoint kernel is not spherical")
    qm = kernel_ops(q).model()
    ops, q_ops = kernel_ops(m), kernel_ops(qm)
    # (the adjoint's triangle, the original's, the composite's name), in
    # application order: C_R acts on the target side, as T does
    pairs = (("cotwist", "twist", "cotwist(adjoint) o twist"),
             ("twist", "cotwist", "twist(adjoint) o cotwist"))
    classes, q_classes = condition_classes(m), condition_classes(qm)
    for adj, orig, name in pairs:
        product = q_classes[adj] @ classes[orig]
        if not np.array_equal(product, np.identity(len(product), dtype=object)):
            return Verdict("fail", f"{name} is not the identity kernel")
    for adj, orig, name in pairs:
        first, then = getattr(q_ops, adj)().kernel, getattr(ops, orig)().kernel
        if not quasi_iso_to_identity(compose(kernel_ops(first).model(), kernel_ops(then).model())):
            return Verdict("fail", f"{name} is not the identity kernel")
    return Verdict("pass")


def check_fully_faithful(p: Kernel, witness: ChainMap) -> Verdict:
    """Any quasi-isomorphism witness id -> RF forces the unit itself to be
    one (the commutative-monoid argument on endotransformations of the
    identity); the engine re-checks the conclusion."""
    ops = kernel_ops(p)
    if witness.source.total_dim() != p.source_algebra.dim or \
            witness.source.degrees() not in ([0], []):
        return Verdict("not_applicable", "witness source is not the identity kernel")
    if witness.target.total_dim() != ops.rf().complex.total_dim():
        return Verdict("not_applicable", "witness target is not the monad kernel")
    if not is_quasi_iso(witness):
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
    if not is_quasi_iso(appendix_map(kernel_ops(p).model())):
        return Verdict("fail", "RF -> CLF[1] is not a quasi-iso")
    detail = "canonical map RF -> CLF[1] is a quasi-iso"
    if report.cond_4:
        detail += "; adjoint identification consistent with condition (4)"
    return Verdict("pass", detail)


# ---------------------------------------------------------------------------
# random biprojective kernels for the consistency suite
# ---------------------------------------------------------------------------


def random_kernel(a: Algebra, b: Algebra, rng: random.Random) -> Kernel:
    """A random bounded complex of standard biprojective summands: one or
    two terms in consecutive degrees, and for two terms a random
    combination of the bimodule maps between them as the differential,
    so d^2 = 0 holds on the nose.

    The Kernel constructor checks that every term is projective on both
    sides, which is all that right_dual and left_dual need, so both
    adjoints of the returned kernel exist in-engine, also over algebras
    that are not self-injective; they are built on first use.
    """
    n_terms = rng.randint(1, 2)
    # keep the twist-equivalence tensors desk-sized: up to two summands in
    # a single term, or one summand in each of two terms
    per_term = 2 if n_terms == 1 else 1
    start = rng.choice([-1, 0])
    terms: dict[int, Bimodule] = {}
    for t in range(n_terms):
        summands = []
        for _ in range(rng.randint(1, per_term)):
            v = rng.randrange(len(a.vertex_idempotents))
            w = rng.randrange(len(b.vertex_idempotents))
            summands.append(projective_bimodule(a, v, b, w))
        terms[start + t] = direct_sum(summands)
    diffs = {}
    if n_terms == 2:
        # a combination of independent maps is zero only when every drawn
        # coefficient is, and then random_combination returns None
        d = random_combination(hom_space(terms[start], terms[start + 1]), a.field, rng)
        if d is not None:
            diffs[start] = d
    return Kernel(a, b, Complex(a, b, terms, diffs))
