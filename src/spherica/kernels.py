"""Kernels: biprojective bimodule complexes as functors between derived categories.

A kernel with source algebra A and target algebra B is a bounded
complex of (A,B)-bimodules, projective on both sides in every degree;
it induces the functor X |-> X (x)_A K from right-A-module complexes to
right-B-module complexes.

Composition order: compose(p, q) applies p's functor first, then q's,
and is the tensor p (x)_B q.  A composite written as a functor string
"GF" (apply F, then G) therefore has kernel compose(kernel(F),
kernel(G)); all multi-letter composites in this module are assembled by
compose_list with the kernels listed in application order, folded to
the left, so ((k1 (x) k2) (x) k3) ... is the canonical bracketing.

Whiskering a map of kernels by a kernel is tensoring the chain map with
an identity chain map; regrouping between bracketings goes through the
explicit associators, and every canonical map below (units, counits,
twist triangles, the condition maps) is assembled from these pieces,
with the cone constructor as the only source of triangle maps.

Adjoints: the right adjoint kernel takes the termwise right dual with
differentials dualised with sign (-1)^{n+1}; the left adjoint uses the
termwise left dual and sign (-1)^n.  With the deterministic dual bases
of the bimodule layer the triangular identities hold strictly, i.e. as
equalities of matrices, not merely up to homotopy.
"""

from __future__ import annotations


from .algebras import Algebra
from .bimodules import (
    Bimodule,
    BimoduleError,
    BimoduleMap,
    DualData,
    is_projective,
    left_dual,
    right_dual,
)
from .complexes import (
    ChainMap,
    Complex,
    ConeData,
    TensorComplex,
    associator,
    associator_inv,
    cone,
    direct_sum_complexes,
    identity_map,
    interchange_left_shift,
    interchange_right_shift,
    left_unitor,
    left_unitor_inv,
    right_unitor,
    right_unitor_inv,
    shift,
    shift_map,
    tensor_cx,
    unit_complex,
)
from .linalg import Matrix


class KernelError(Exception):
    """Raised for non-biprojective data or incompatible kernel operations."""


class Kernel:
    """A bounded complex of biprojective (A,B)-bimodules."""

    def __init__(self, source_algebra: Algebra, target_algebra: Algebra,
                 complex: Complex, check: bool = True):
        self.source_algebra = source_algebra
        self.target_algebra = target_algebra
        self.complex = complex
        self._ops = None
        if check:
            for n, t in complex.terms.items():
                if not is_projective(t, "left"):
                    raise KernelError(f"kernel term at degree {n} is not left-projective")
                if not is_projective(t, "right"):
                    raise KernelError(f"kernel term at degree {n} is not right-projective")

    def is_endokernel(self) -> bool:
        return self.source_algebra is self.target_algebra or \
            self.source_algebra.mult == self.target_algebra.mult

    def __repr__(self):
        return (f"Kernel({self.source_algebra.name or 'A'} -> "
                f"{self.target_algebra.name or 'B'}; {self.complex!r})")


class KernelMap:
    """A chain map between the complexes of two kernels over the same algebras."""

    def __init__(self, source: Kernel, target: Kernel, chain: ChainMap):
        self.source = source
        self.target = target
        self.chain = chain

    def is_quasi_iso(self) -> bool:
        from .complexes import is_quasi_iso
        return is_quasi_iso(self.chain)

    def __repr__(self):
        return f"KernelMap({self.source!r} -> {self.target!r})"


def identity_kernel(a: Algebra) -> Kernel:
    return Kernel(a, a, unit_complex(a))


def compose(p: Kernel, q: Kernel) -> Kernel:
    """The kernel of "apply p's functor, then q's"."""
    if p.target_algebra.mult != q.source_algebra.mult:
        raise KernelError("compose: middle algebras do not match")
    t = tensor_cx(p.complex, q.complex)
    return Kernel(p.source_algebra, q.target_algebra, t.complex)


def compose_list(kernels: list[Kernel]) -> Kernel:
    """Left fold of compose over kernels listed in application order."""
    if not kernels:
        raise KernelError("compose_list needs at least one kernel")
    out = kernels[0]
    for k in kernels[1:]:
        out = compose(out, k)
    return out


# ---------------------------------------------------------------------------
# adjoint kernels
# ---------------------------------------------------------------------------


def _flatten(mat: Matrix) -> Matrix:
    if mat.rows == 0 or mat.cols == 0:
        return Matrix.zeros(mat.field, 0, 1)
    return Matrix(mat.field, mat.arr.reshape(mat.rows * mat.cols, 1))


def _sum_runs(field, runs: int, length: int) -> Matrix:
    """The (runs * length) x runs matrix that sums each run of length columns."""
    return Matrix.identity(field, runs).kron(Matrix.from_rows(field, [[1]] * length))


class AdjointData:
    """Dual complex of a kernel together with its termwise dual bases."""

    def __init__(self, kernel: Kernel, duals: dict[int, DualData]):
        self.kernel = kernel
        self.duals = duals


def _adjoint_data(p: Kernel, side: str) -> AdjointData:
    """side "right": termwise right dual, d^n = (-1)^{n+1} (- o d);
    side "left": termwise left dual, d^n = (-1)^n (- o d)."""
    field = p.complex.field
    pc = p.complex
    duals: dict[int, DualData] = {}
    for i in pc.degrees():
        duals[i] = right_dual(pc.term(i)) if side == "right" else left_dual(pc.term(i))
    terms = {-i: dd.bimodule for i, dd in duals.items() if dd.bimodule.dim}
    diffs = {}
    for n in sorted(terms):
        src_deg = -n
        tgt_deg = -(n + 1)
        if tgt_deg not in duals or (n + 1) not in terms:
            continue
        d_orig = pc.diffs.get(tgt_deg)   # term(tgt_deg) -> term(src_deg)
        if d_orig is None:
            continue
        src_dd = duals[src_deg]
        tgt_dd = duals[tgt_deg]
        sign = field.elem((-1) ** (n + 1) if side == "right" else (-1) ** n)
        V = Matrix.stack_columns(field, [_flatten(H) for H in tgt_dd.hom_matrices],
                                 tgt_dd.hom_matrices[0].rows * tgt_dd.hom_matrices[0].cols
                                 if tgt_dd.hom_matrices else 0)
        images = [_flatten(H * d_orig.matrix) for H in src_dd.hom_matrices]
        B = Matrix.stack_columns(field, images, V.rows)
        coords = V.solve(B)
        if coords is None:
            raise KernelError("dual differential does not lie in the dual hom space")
        diffs[n] = BimoduleMap(terms[n], terms[n + 1], coords.scale(sign), validate=False)
    cx = Complex(p.target_algebra, p.source_algebra, terms, diffs)
    return AdjointData(Kernel(p.target_algebra, p.source_algebra, cx), duals)


class KernelOps:
    """Lazy workspace of the canonical constructions attached to one kernel.

    Everything here is a deterministic function of the kernel, so the
    cached pieces can be shared by every check that needs them.
    """

    def __init__(self, p: Kernel):
        self.p = p
        self.A = p.source_algebra
        self.B = p.target_algebra
        self.field = p.complex.field
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # adjoints ---------------------------------------------------------

    def right_adjoint(self) -> AdjointData:
        return self._get("radj", lambda: _adjoint_data(self.p, "right"))

    def left_adjoint(self) -> AdjointData:
        return self._get("ladj", lambda: _adjoint_data(self.p, "left"))

    # the four composite tensors ----------------------------------------

    def rf(self) -> TensorComplex:
        """RF = compose(p, R): the monad kernel on the source side."""
        return self._get("rf", lambda: tensor_cx(self.p.complex,
                                                 self.right_adjoint().kernel.complex))

    def fr(self) -> TensorComplex:
        """FR = compose(R, p): the comonad kernel on the target side."""
        return self._get("fr", lambda: tensor_cx(self.right_adjoint().kernel.complex,
                                                 self.p.complex))

    def fl(self) -> TensorComplex:
        """FL = compose(L, p)."""
        return self._get("fl", lambda: tensor_cx(self.left_adjoint().kernel.complex,
                                                 self.p.complex))

    def lf(self) -> TensorComplex:
        """LF = compose(p, L)."""
        return self._get("lf", lambda: tensor_cx(self.p.complex,
                                                 self.left_adjoint().kernel.complex))

    # units and counits ---------------------------------------------------

    def unit_right(self) -> ChainMap:
        """id_A -> RF, the coevaluation a |-> sum a.g_t (x) g_t^*."""
        def build():
            t = self.rf()
            duals = self.right_adjoint().duals
            unit_cx = unit_complex(self.A)
            field, dimA = self.field, self.A.dim
            comp = Matrix.zeros(field, t.complex.dim(0), dimA)
            for i in self.p.complex.degrees():
                dd = duals[i]
                if dd.bimodule.dim == 0:
                    continue
                td, off = t.slot(0, i, -i)
                term = self.p.complex.term(i)
                gens = Matrix.stack_columns(field, dd.generators, term.dim)
                cogens = Matrix.stack_columns(field, dd.cogenerators, dd.bimodule.dim)
                # a.g_t (x) g_t^* for every a and t, then summed over t
                coords = td.coords(
                    Matrix.stack_columns(field, [term.left_action[a] * gens
                                                 for a in range(dimA)], term.dim),
                    Matrix.stack_columns(field, [cogens] * dimA, dd.bimodule.dim))
                summed = coords * _sum_runs(field, dimA, gens.cols)
                comp = comp + summed.pad_rows(off, t.complex.dim(0))
            return ChainMap(unit_cx, t.complex, {0: comp})
        return self._get("unit_right", build)

    def counit_right(self) -> ChainMap:
        """FR -> id_B, the evaluation f (x) x |-> f(x)."""
        def build():
            t = self.fr()
            duals = self.right_adjoint().duals
            unit_cx = unit_complex(self.B)
            comps = {}
            if 0 in t.complex.terms:
                cols = [duals[j].evaluate(*td.monomial_matrices())
                        for (i, j, td, off) in t.layout[0]]
                comps[0] = Matrix.stack_columns(self.field, cols, self.B.dim)
            return ChainMap(t.complex, unit_cx, comps)
        return self._get("counit_right", build)

    def unit_left(self) -> ChainMap:
        """id_B -> FL, b |-> sum (b.h_t^*) (x) h_t."""
        def build():
            t = self.fl()
            duals = self.left_adjoint().duals
            unit_cx = unit_complex(self.B)
            field, dimB = self.field, self.B.dim
            comp = Matrix.zeros(field, t.complex.dim(0), dimB)
            for i in self.p.complex.degrees():
                dd = duals[i]
                if dd.bimodule.dim == 0:
                    continue
                td, off = t.slot(0, -i, i)
                gens = Matrix.stack_columns(field, dd.generators, self.p.complex.dim(i))
                cogens = Matrix.stack_columns(field, dd.cogenerators, dd.bimodule.dim)
                # b.h_t^* (x) h_t for every b and t, then summed over t
                coords = td.coords(
                    Matrix.stack_columns(field, [dd.bimodule.left_action[b] * cogens
                                                 for b in range(dimB)], dd.bimodule.dim),
                    Matrix.stack_columns(field, [gens] * dimB, gens.rows))
                summed = coords * _sum_runs(field, dimB, gens.cols)
                comp = comp + summed.pad_rows(off, t.complex.dim(0))
            return ChainMap(unit_cx, t.complex, {0: comp})
        return self._get("unit_left", build)

    def counit_left(self) -> ChainMap:
        """LF -> id_A, x (x) f |-> f(x)."""
        def build():
            t = self.lf()
            duals = self.left_adjoint().duals
            unit_cx = unit_complex(self.A)
            comps = {}
            if 0 in t.complex.terms:
                cols = []
                for (i, j, td, off) in t.layout[0]:
                    xs, fs = td.monomial_matrices()
                    cols.append(duals[i].evaluate(fs, xs))
                comps[0] = Matrix.stack_columns(self.field, cols, self.A.dim)
            return ChainMap(t.complex, unit_cx, comps)
        return self._get("counit_left", build)

    # twists ---------------------------------------------------------------

    def twist(self) -> "TwistData":
        def build():
            eps = self.counit_right()
            cd = cone(eps)
            kernel = Kernel(self.B, self.B, cd.cone)
            beta = ChainMap(cd.cone, shift(self.fr().complex, 1),
                            cd.project_source.components, validate=False)
            return TwistData(kernel, cd.include_target, beta, cd)
        return self._get("twist", build)

    def cotwist(self) -> "CotwistData":
        def build():
            eta = self.unit_right()
            cd = cone(eta)
            c_cx = shift(cd.cone, -1)
            kernel = Kernel(self.A, self.A, c_cx)
            delta = ChainMap(c_cx, unit_complex(self.A),
                             {n: m for n, m in shift_map(cd.project_source, -1).components.items()},
                             validate=False)
            gamma = ChainMap(self.rf().complex, shift(c_cx, 1),
                             cd.include_target.components, validate=False)
            return CotwistData(kernel, delta, gamma, cd)
        return self._get("cotwist", build)

    def dual_twist(self) -> "CotwistData":
        """T' with its triangle T' -> id_B -> FL -> T'[1]."""
        def build():
            eta = self.unit_left()
            cd = cone(eta)
            t_cx = shift(cd.cone, -1)
            kernel = Kernel(self.B, self.B, t_cx)
            delta = ChainMap(t_cx, unit_complex(self.B),
                             {n: m for n, m in shift_map(cd.project_source, -1).components.items()},
                             validate=False)
            gamma = ChainMap(self.fl().complex, shift(t_cx, 1),
                             cd.include_target.components, validate=False)
            return CotwistData(kernel, delta, gamma, cd)
        return self._get("dual_twist", build)

    def dual_cotwist(self) -> "TwistData":
        """C' with its triangle LF -> id_A -> C' -> LF[1]."""
        def build():
            eps = self.counit_left()
            cd = cone(eps)
            kernel = Kernel(self.A, self.A, cd.cone)
            beta = ChainMap(cd.cone, shift(self.lf().complex, 1),
                            cd.project_source.components, validate=False)
            return TwistData(kernel, cd.include_target, beta, cd)
        return self._get("dual_cotwist", build)


class TwistData:
    """A cone-type triangle: FR -> id -> T -> FR[1] (or LF -> id -> C' -> LF[1]).

    include is the map id -> T, project the map T -> FR[1].
    """

    def __init__(self, kernel: Kernel, include: ChainMap, project: ChainMap,
                 cone_data: ConeData):
        self.kernel = kernel
        self.include = include
        self.project = project
        self.cone_data = cone_data


class CotwistData:
    """A shifted-cone triangle: C -> id -> RF -> C[1] (or T' -> id -> FL -> T'[1]).

    delta is the map C -> id, gamma the map RF -> C[1].
    """

    def __init__(self, kernel: Kernel, delta: ChainMap, gamma: ChainMap,
                 cone_data: ConeData):
        self.kernel = kernel
        self.delta = delta
        self.gamma = gamma
        self.cone_data = cone_data


def kernel_ops(p: Kernel) -> KernelOps:
    if p._ops is None:
        p._ops = KernelOps(p)
    return p._ops


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def right_adjoint_kernel(p: Kernel) -> Kernel:
    return kernel_ops(p).right_adjoint().kernel


def left_adjoint_kernel(p: Kernel) -> Kernel:
    return kernel_ops(p).left_adjoint().kernel


def unit_right(p: Kernel) -> KernelMap:
    ops = kernel_ops(p)
    chain = ops.unit_right()
    return KernelMap(identity_kernel(p.source_algebra),
                     Kernel(p.source_algebra, p.source_algebra, chain.target, check=False),
                     chain)


def counit_right(p: Kernel) -> KernelMap:
    ops = kernel_ops(p)
    chain = ops.counit_right()
    return KernelMap(Kernel(p.target_algebra, p.target_algebra, chain.source, check=False),
                     identity_kernel(p.target_algebra), chain)


def unit_left(p: Kernel) -> KernelMap:
    ops = kernel_ops(p)
    chain = ops.unit_left()
    return KernelMap(identity_kernel(p.target_algebra),
                     Kernel(p.target_algebra, p.target_algebra, chain.target, check=False),
                     chain)


def counit_left(p: Kernel) -> KernelMap:
    ops = kernel_ops(p)
    chain = ops.counit_left()
    return KernelMap(Kernel(p.source_algebra, p.source_algebra, chain.source, check=False),
                     identity_kernel(p.source_algebra), chain)


def twist_kernel(p: Kernel) -> TwistData:
    return kernel_ops(p).twist()


def cotwist_kernel(p: Kernel) -> CotwistData:
    return kernel_ops(p).cotwist()


def dual_twist_kernel(p: Kernel) -> CotwistData:
    return kernel_ops(p).dual_twist()


def dual_cotwist_kernel(p: Kernel) -> TwistData:
    return kernel_ops(p).dual_cotwist()


# ---------------------------------------------------------------------------
# canonical composite maps
# ---------------------------------------------------------------------------


def condition4_map(p: Kernel) -> KernelMap:
    """The canonical map R -> RFL -> CL[1] built from the unit of the left
    adjunction and the cotwist triangle."""
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    pc = p.complex
    fl_t = ops.fl()
    rf_t = ops.rf()
    ct = ops.cotwist()
    c_cx = ct.kernel.complex

    t1 = tensor_cx(unit_complex(ops.B), r)
    lam_inv = left_unitor_inv(t1)
    t2 = tensor_cx(fl_t.complex, r)
    s1 = t1.induced(ops.unit_left(), identity_map(r), t2)
    t3 = tensor_cx(l, rf_t.complex)
    a = associator(fl_t, t2, rf_t, t3)
    c1 = shift(c_cx, 1)
    t4 = tensor_cx(l, c1)
    s3 = t3.induced(identity_map(l), ct.gamma, t4)
    t_lc = tensor_cx(l, c_cx)
    itx = interchange_right_shift(t4, t_lc, 1)
    chain = lam_inv.then(s1).then(a).then(s3).then(itx)
    src = ops.right_adjoint().kernel
    tgt = Kernel(ops.B, ops.A, chain.target, check=False)
    return KernelMap(src, tgt, chain)


def condition3_map(p: Kernel) -> KernelMap:
    """The canonical map LT[-1] -> LFR -> R built from the twist triangle
    and the counit of the left adjunction."""
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    pc = p.complex
    fr_t = ops.fr()
    lf_t = ops.lf()
    tw = ops.twist()
    t_cx = tw.kernel.complex

    t_src = tensor_cx(t_cx, l)
    t_mid = tensor_cx(shift(fr_t.complex, 1), l)
    s1 = t_src.induced(tw.project, identity_map(l), t_mid)
    t_frl = tensor_cx(fr_t.complex, l)
    ilx = interchange_left_shift(t_mid, t_frl, 1)
    c_full = s1.then(ilx)                       # T (x) L -> ((R(x)P)(x)L)[1]
    c_shifted = shift_map(c_full, -1)           # (T(x)L)[-1] -> (R(x)P)(x)L
    t_n = tensor_cx(r, lf_t.complex)
    a = associator(fr_t, t_frl, lf_t, t_n)
    t_o = tensor_cx(r, unit_complex(ops.A))
    s2 = t_n.induced(identity_map(r), ops.counit_left(), t_o)
    rho = right_unitor(t_o)
    chain = c_shifted.then(a).then(s2).then(rho)
    src = Kernel(ops.B, ops.A, chain.source, check=False)
    return KernelMap(src, ops.right_adjoint().kernel, chain)


def basic_identity_maps(p: Kernel) -> dict[str, ChainMap]:
    """The four standard composites relating twists to the adjoints, with
    no hypothesis on the kernel; each is a quasi-isomorphism:

      TF[-1] -> FRF -> FC[1],     RT[-1] -> RFR -> CR[1],
      FC'[-1] -> FLF -> T'F[1],   C'L[-1] -> LFL -> LT'[1].
    """
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    fr_t, rf_t, fl_t, lf_t = ops.fr(), ops.rf(), ops.fl(), ops.lf()
    tw = ops.twist()
    ct = ops.cotwist()
    dtw = ops.dual_twist()      # T'
    dct = ops.dual_cotwist()    # C'
    out = {}

    # (a) TF[-1] -> FRF -> FC[1]
    t_u = tensor_cx(pc, tw.kernel.complex)
    t_v = tensor_cx(pc, shift(fr_t.complex, 1))
    s1 = t_u.induced(identity_map(pc), tw.project, t_v)
    t_w = tensor_cx(pc, fr_t.complex)
    irx = interchange_right_shift(t_v, t_w, 1)
    first = shift_map(s1.then(irx), -1)
    t_x2 = tensor_cx(rf_t.complex, pc)
    ainv = associator_inv(rf_t, t_x2, fr_t, t_w)
    c1 = shift(ct.kernel.complex, 1)
    t_y = tensor_cx(c1, pc)
    s2 = t_x2.induced(ct.gamma, identity_map(pc), t_y)
    t_z = tensor_cx(ct.kernel.complex, pc)
    ilx = interchange_left_shift(t_y, t_z, 1)
    out["TF"] = first.then(ainv).then(s2).then(ilx)

    # (b) RT[-1] -> RFR -> CR[1]
    t_u = tensor_cx(tw.kernel.complex, r)
    t_v = tensor_cx(shift(fr_t.complex, 1), r)
    s1 = t_u.induced(tw.project, identity_map(r), t_v)
    t_w = tensor_cx(fr_t.complex, r)
    ilx = interchange_left_shift(t_v, t_w, 1)
    first = shift_map(s1.then(ilx), -1)
    t_x2 = tensor_cx(r, rf_t.complex)
    a = associator(fr_t, t_w, rf_t, t_x2)
    t_y = tensor_cx(r, c1)
    s2 = t_x2.induced(identity_map(r), ct.gamma, t_y)
    t_z = tensor_cx(r, ct.kernel.complex)
    irx = interchange_right_shift(t_y, t_z, 1)
    out["RT"] = first.then(a).then(s2).then(irx)

    # (c) FC'[-1] -> FLF -> T'F[1]
    t_u = tensor_cx(dct.kernel.complex, pc)
    t_v = tensor_cx(shift(lf_t.complex, 1), pc)
    s1 = t_u.induced(dct.project, identity_map(pc), t_v)
    t_w = tensor_cx(lf_t.complex, pc)
    ilx = interchange_left_shift(t_v, t_w, 1)
    first = shift_map(s1.then(ilx), -1)
    t_x2 = tensor_cx(pc, fl_t.complex)
    a = associator(lf_t, t_w, fl_t, t_x2)
    tp1 = shift(dtw.kernel.complex, 1)
    t_y = tensor_cx(pc, tp1)
    s2 = t_x2.induced(identity_map(pc), dtw.gamma, t_y)
    t_z = tensor_cx(pc, dtw.kernel.complex)
    irx = interchange_right_shift(t_y, t_z, 1)
    out["FC'"] = first.then(a).then(s2).then(irx)

    # (d) C'L[-1] -> LFL -> LT'[1]
    t_u = tensor_cx(l, dct.kernel.complex)
    t_v = tensor_cx(l, shift(lf_t.complex, 1))
    s1 = t_u.induced(identity_map(l), dct.project, t_v)
    t_w2 = tensor_cx(l, lf_t.complex)
    irx = interchange_right_shift(t_v, t_w2, 1)
    first = shift_map(s1.then(irx), -1)
    t_x2 = tensor_cx(fl_t.complex, l)
    ainv = associator_inv(fl_t, t_x2, lf_t, t_w2)
    t_y = tensor_cx(tp1, l)
    s2 = t_x2.induced(dtw.gamma, identity_map(l), t_y)
    t_z = tensor_cx(dtw.kernel.complex, l)
    ilx = interchange_left_shift(t_y, t_z, 1)
    out["C'L"] = first.then(ainv).then(s2).then(ilx)
    return out


def triangular_identity_composites(p: Kernel) -> dict[str, ChainMap]:
    """The four unit/counit composites that must be identity chain maps."""
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    rf_t, fr_t, fl_t, lf_t = ops.rf(), ops.fr(), ops.fl(), ops.lf()
    eta_r, eps_r = ops.unit_right(), ops.counit_right()
    eta_l, eps_l = ops.unit_left(), ops.counit_left()
    out = {}

    # F: P -> (P(x)R)(x)P -> P(x)(R(x)P) -> P
    t_a = tensor_cx(unit_complex(ops.A), pc)
    t_b = tensor_cx(rf_t.complex, pc)
    t_c = tensor_cx(pc, fr_t.complex)
    t_d = tensor_cx(pc, unit_complex(ops.B))
    out["F_right"] = (
        left_unitor_inv(t_a)
        .then(t_a.induced(eta_r, identity_map(pc), t_b))
        .then(associator(rf_t, t_b, fr_t, t_c))
        .then(t_c.induced(identity_map(pc), eps_r, t_d))
        .then(right_unitor(t_d)))

    # R: R -> R(x)(P(x)R) -> (R(x)P)(x)R -> R
    t_e = tensor_cx(r, unit_complex(ops.A))
    t_f = tensor_cx(r, rf_t.complex)
    t_g = tensor_cx(fr_t.complex, r)
    t_h = tensor_cx(unit_complex(ops.B), r)
    out["R_right"] = (
        right_unitor_inv(t_e)
        .then(t_e.induced(identity_map(r), eta_r, t_f))
        .then(associator_inv(fr_t, t_g, rf_t, t_f))
        .then(t_g.induced(eps_r, identity_map(r), t_h))
        .then(left_unitor(t_h)))

    # F (left adjunction): P -> P(x)(L(x)P) -> (P(x)L)(x)P -> P
    t_i = tensor_cx(pc, unit_complex(ops.B))
    t_j = tensor_cx(pc, fl_t.complex)
    t_k = tensor_cx(lf_t.complex, pc)
    t_m = tensor_cx(unit_complex(ops.A), pc)
    out["F_left"] = (
        right_unitor_inv(t_i)
        .then(t_i.induced(identity_map(pc), eta_l, t_j))
        .then(associator_inv(lf_t, t_k, fl_t, t_j))
        .then(t_k.induced(eps_l, identity_map(pc), t_m))
        .then(left_unitor(t_m)))

    # L: L -> (L(x)P)(x)L -> L(x)(P(x)L) -> L
    t_n = tensor_cx(unit_complex(ops.B), l)
    t_o = tensor_cx(fl_t.complex, l)
    t_q = tensor_cx(l, lf_t.complex)
    t_s = tensor_cx(l, unit_complex(ops.A))
    out["L_left"] = (
        left_unitor_inv(t_n)
        .then(t_n.induced(eta_l, identity_map(l), t_o))
        .then(associator(fl_t, t_o, lf_t, t_q))
        .then(t_q.induced(identity_map(l), eps_l, t_s))
        .then(right_unitor(t_s)))
    return out


def splitting_maps(p: Kernel) -> tuple[ChainMap, ChainMap, Complex]:
    """The two canonical comparison maps that split the double composites:

    (R eta_L, eta_R L): R (+) L -> RFL and
    (eps_L R; L eps_R): LFR -> R (+) L.

    Returns (into_rfl, from_lfr, sum_complex).
    """
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    fl_t, rf_t, fr_t, lf_t = ops.fl(), ops.rf(), ops.fr(), ops.lf()

    # component R -> RFL
    t1 = tensor_cx(unit_complex(ops.B), r)
    t2 = tensor_cx(fl_t.complex, r)
    map_r = left_unitor_inv(t1).then(t1.induced(ops.unit_left(), identity_map(r), t2))
    # component L -> RFL
    t_m = tensor_cx(l, unit_complex(ops.A))
    t3 = tensor_cx(l, rf_t.complex)
    map_l = (right_unitor_inv(t_m)
             .then(t_m.induced(identity_map(l), ops.unit_right(), t3))
             .then(associator_inv(fl_t, t2, rf_t, t3)))
    sum_cx, injs, projs = direct_sum_complexes([r, l])
    into_rfl = projs[0].then(map_r) + projs[1].then(map_l)

    # LFR -> R: id_r (x) eps_L after regrouping
    t_w = tensor_cx(fr_t.complex, l)
    t_n = tensor_cx(r, lf_t.complex)
    a = associator(fr_t, t_w, lf_t, t_n)
    t_o = tensor_cx(r, unit_complex(ops.A))
    g1 = a.then(t_n.induced(identity_map(r), ops.counit_left(), t_o)).then(right_unitor(t_o))
    # LFR -> L: eps_R (x) id_l
    t_p = tensor_cx(unit_complex(ops.B), l)
    g2 = t_w.induced(ops.counit_right(), identity_map(l), t_p).then(left_unitor(t_p))
    from_lfr = g1.then(injs[0]) + g2.then(injs[1])
    return into_rfl, from_lfr, sum_cx


def appendix_map(p: Kernel) -> KernelMap:
    """The canonical composite RF -> RFLF -> CLF[1]."""
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    rf_t, fl_t, lf_t = ops.rf(), ops.fl(), ops.lf()
    ct = ops.cotwist()
    c_cx = ct.kernel.complex

    t_a = tensor_cx(pc, unit_complex(ops.B))
    t_b = tensor_cx(t_a.complex, r)
    step0 = rf_t.induced(right_unitor_inv(t_a), identity_map(r), t_b)
    t_d = tensor_cx(pc, fl_t.complex)
    i1 = t_a.induced(identity_map(pc), ops.unit_left(), t_d)
    t_c = tensor_cx(t_d.complex, r)
    step1 = t_b.induced(i1, identity_map(r), t_c)
    t_e = tensor_cx(lf_t.complex, pc)
    ainv = associator_inv(lf_t, t_e, fl_t, t_d)
    t_f = tensor_cx(t_e.complex, r)
    step2 = t_c.induced(ainv, identity_map(r), t_f)
    t_g = tensor_cx(lf_t.complex, rf_t.complex)
    a2 = associator(t_e, t_f, rf_t, t_g)
    c1 = shift(c_cx, 1)
    t_h = tensor_cx(lf_t.complex, c1)
    s = t_g.induced(identity_map(lf_t.complex), ct.gamma, t_h)
    t_clf = tensor_cx(lf_t.complex, c_cx)
    itx = interchange_right_shift(t_h, t_clf, 1)
    chain = step0.then(step1).then(step2).then(a2).then(s).then(itx)
    src = Kernel(ops.A, ops.A, chain.source, check=False)
    tgt = Kernel(ops.A, ops.A, chain.target, check=False)
    return KernelMap(src, tgt, chain)
