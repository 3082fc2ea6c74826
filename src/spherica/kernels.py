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
        diffs[n] = BimoduleMap(terms[n], terms[n + 1], coords.scale(sign))
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

    # tensor workspace: the pieces every canonical composite is built from

    def _tensor(self, x: Complex, y: Complex) -> TensorComplex:
        """x (x) y, built once per pair of complex objects (the tensor holds
        both, so their ids stay theirs while it is cached)."""
        return self._get(("tensor", id(x), id(y)), lambda: tensor_cx(x, y))

    def _whisker(self, f: ChainMap | Complex, g: ChainMap | Complex) -> ChainMap:
        """f (x) g, where a complex stands for its identity map."""
        f = identity_map(f) if isinstance(f, Complex) else f
        g = identity_map(g) if isinstance(g, Complex) else g
        return self._tensor(f.source, g.source).induced(f, g, self._tensor(f.target, g.target))

    def _assoc(self, x: Complex, y: Complex, z: Complex) -> ChainMap:
        """(x (x) y) (x) z -> x (x) (y (x) z)."""
        xy, yz = self._tensor(x, y), self._tensor(y, z)
        return associator(xy, self._tensor(xy.complex, z), yz, self._tensor(x, yz.complex))

    def _assoc_inv(self, x: Complex, y: Complex, z: Complex) -> ChainMap:
        """x (x) (y (x) z) -> (x (x) y) (x) z."""
        xy, yz = self._tensor(x, y), self._tensor(y, z)
        return associator_inv(xy, self._tensor(xy.complex, z), yz, self._tensor(x, yz.complex))

    def _lunit(self, x: Complex) -> ChainMap:
        """id (x) x -> x."""
        return left_unitor(self._tensor(unit_complex(x.left_algebra), x))

    def _lunit_inv(self, x: Complex) -> ChainMap:
        return left_unitor_inv(self._tensor(unit_complex(x.left_algebra), x))

    def _runit(self, x: Complex) -> ChainMap:
        """x (x) id -> x."""
        return right_unitor(self._tensor(x, unit_complex(x.right_algebra)))

    def _runit_inv(self, x: Complex) -> ChainMap:
        return right_unitor_inv(self._tensor(x, unit_complex(x.right_algebra)))

    def _shift_out_right(self, x: Complex, y1: Complex, y: Complex) -> ChainMap:
        """x (x) y1 -> (x (x) y)[1], for y1 = y[1]."""
        return interchange_right_shift(self._tensor(x, y1), self._tensor(x, y), 1)

    def _shift_out_left(self, x1: Complex, x: Complex, y: Complex) -> ChainMap:
        """x1 (x) y -> (x (x) y)[1], for x1 = x[1]."""
        return interchange_left_shift(self._tensor(x1, y), self._tensor(x, y), 1)

    # adjoints ---------------------------------------------------------

    def right_adjoint(self) -> AdjointData:
        return self._get("radj", lambda: _adjoint_data(self.p, "right"))

    def left_adjoint(self) -> AdjointData:
        return self._get("ladj", lambda: _adjoint_data(self.p, "left"))

    # the four composite tensors ----------------------------------------

    def rf(self) -> TensorComplex:
        """RF = compose(p, R): the monad kernel on the source side."""
        return self._get("rf", lambda: self._tensor(self.p.complex,
                                                    self.right_adjoint().kernel.complex))

    def fr(self) -> TensorComplex:
        """FR = compose(R, p): the comonad kernel on the target side."""
        return self._get("fr", lambda: self._tensor(self.right_adjoint().kernel.complex,
                                                    self.p.complex))

    def fl(self) -> TensorComplex:
        """FL = compose(L, p)."""
        return self._get("fl", lambda: self._tensor(self.left_adjoint().kernel.complex,
                                                    self.p.complex))

    def lf(self) -> TensorComplex:
        """LF = compose(p, L)."""
        return self._get("lf", lambda: self._tensor(self.p.complex,
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

    @staticmethod
    def _counit_cone(eps: ChainMap) -> "TwistData":
        """The cone T of a counit eps: M -> id, with its triangle
        M -> id -> T -> M[1]."""
        cd = cone(eps)
        alg = eps.target.left_algebra
        return TwistData(Kernel(alg, alg, cd.cone), cd.include_target, cd.project_source, cd)

    @staticmethod
    def _unit_cocone(eta: ChainMap) -> "CotwistData":
        """The shifted cone C = cone(eta)[-1] of a unit eta: id -> M, with
        its triangle C -> id -> M -> C[1]."""
        cd = cone(eta)
        c_cx = shift(cd.cone, -1)
        alg = eta.source.left_algebra
        delta = ChainMap(c_cx, eta.source, shift_map(cd.project_source, -1).components)
        gamma = ChainMap(eta.target, shift(c_cx, 1), cd.include_target.components)
        return CotwistData(Kernel(alg, alg, c_cx), delta, gamma, cd)

    def twist(self) -> "TwistData":
        """T with its triangle FR -> id_B -> T -> FR[1]."""
        return self._get("twist", lambda: self._counit_cone(self.counit_right()))

    def cotwist(self) -> "CotwistData":
        """C with its triangle C -> id_A -> RF -> C[1]."""
        return self._get("cotwist", lambda: self._unit_cocone(self.unit_right()))

    def dual_twist(self) -> "CotwistData":
        """T' with its triangle T' -> id_B -> FL -> T'[1]."""
        return self._get("dual_twist", lambda: self._unit_cocone(self.unit_left()))

    def dual_cotwist(self) -> "TwistData":
        """C' with its triangle LF -> id_A -> C' -> LF[1]."""
        return self._get("dual_cotwist", lambda: self._counit_cone(self.counit_left()))


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
    ct = ops.cotwist()
    chain = (ops._lunit_inv(r)
             .then(ops._whisker(ops.unit_left(), r))
             .then(ops._assoc(l, p.complex, r))
             .then(ops._whisker(l, ct.gamma))
             .then(ops._shift_out_right(l, ct.gamma.target, ct.kernel.complex)))
    tgt = Kernel(ops.B, ops.A, chain.target, check=False)
    return KernelMap(ops.right_adjoint().kernel, tgt, chain)


def condition3_map(p: Kernel) -> KernelMap:
    """The canonical map LT[-1] -> LFR -> R built from the twist triangle
    and the counit of the left adjunction."""
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    tw = ops.twist()
    # (T (x) L)[-1] -> (R(x)P)(x)L
    c_shifted = shift_map(ops._whisker(tw.project, l)
                          .then(ops._shift_out_left(tw.project.target, ops.fr().complex, l)), -1)
    chain = (c_shifted
             .then(ops._assoc(r, p.complex, l))
             .then(ops._whisker(r, ops.counit_left()))
             .then(ops._runit(r)))
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
    fr, lf = ops.fr().complex, ops.lf().complex
    tw = ops.twist()
    ct = ops.cotwist()
    dtw = ops.dual_twist()      # T'
    dct = ops.dual_cotwist()    # C'
    c, tp = ct.kernel.complex, dtw.kernel.complex
    return {
        "TF": shift_map(ops._whisker(pc, tw.project)
                        .then(ops._shift_out_right(pc, tw.project.target, fr)), -1)
        .then(ops._assoc_inv(pc, r, pc))
        .then(ops._whisker(ct.gamma, pc))
        .then(ops._shift_out_left(ct.gamma.target, c, pc)),
        "RT": shift_map(ops._whisker(tw.project, r)
                        .then(ops._shift_out_left(tw.project.target, fr, r)), -1)
        .then(ops._assoc(r, pc, r))
        .then(ops._whisker(r, ct.gamma))
        .then(ops._shift_out_right(r, ct.gamma.target, c)),
        "FC'": shift_map(ops._whisker(dct.project, pc)
                         .then(ops._shift_out_left(dct.project.target, lf, pc)), -1)
        .then(ops._assoc(pc, l, pc))
        .then(ops._whisker(pc, dtw.gamma))
        .then(ops._shift_out_right(pc, dtw.gamma.target, tp)),
        "C'L": shift_map(ops._whisker(l, dct.project)
                         .then(ops._shift_out_right(l, dct.project.target, lf)), -1)
        .then(ops._assoc_inv(l, pc, l))
        .then(ops._whisker(dtw.gamma, l))
        .then(ops._shift_out_left(dtw.gamma.target, tp, l)),
    }


def triangular_identity_composites(p: Kernel) -> dict[str, ChainMap]:
    """The four unit/counit composites that must be identity chain maps."""
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    eta_r, eps_r = ops.unit_right(), ops.counit_right()
    eta_l, eps_l = ops.unit_left(), ops.counit_left()
    return {
        # F: P -> (P(x)R)(x)P -> P(x)(R(x)P) -> P
        "F_right": ops._lunit_inv(pc).then(ops._whisker(eta_r, pc))
        .then(ops._assoc(pc, r, pc)).then(ops._whisker(pc, eps_r)).then(ops._runit(pc)),
        # R: R -> R(x)(P(x)R) -> (R(x)P)(x)R -> R
        "R_right": ops._runit_inv(r).then(ops._whisker(r, eta_r))
        .then(ops._assoc_inv(r, pc, r)).then(ops._whisker(eps_r, r)).then(ops._lunit(r)),
        # F (left adjunction): P -> P(x)(L(x)P) -> (P(x)L)(x)P -> P
        "F_left": ops._runit_inv(pc).then(ops._whisker(pc, eta_l))
        .then(ops._assoc_inv(pc, l, pc)).then(ops._whisker(eps_l, pc)).then(ops._lunit(pc)),
        # L: L -> (L(x)P)(x)L -> L(x)(P(x)L) -> L
        "L_left": ops._lunit_inv(l).then(ops._whisker(eta_l, l))
        .then(ops._assoc(l, pc, l)).then(ops._whisker(l, eps_l)).then(ops._runit(l)),
    }


def splitting_maps(p: Kernel) -> tuple[ChainMap, ChainMap, Complex]:
    """The two canonical comparison maps that split the double composites:

    (R eta_L, eta_R L): R (+) L -> RFL and
    (eps_L R; L eps_R): LFR -> R (+) L.

    Returns (into_rfl, from_lfr, sum_complex).
    """
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    map_r = ops._lunit_inv(r).then(ops._whisker(ops.unit_left(), r))
    map_l = (ops._runit_inv(l).then(ops._whisker(l, ops.unit_right()))
             .then(ops._assoc_inv(l, pc, r)))
    sum_cx, injs, projs = direct_sum_complexes([r, l])
    into_rfl = projs[0].then(map_r) + projs[1].then(map_l)
    # LFR -> R: id_r (x) eps_L after regrouping; LFR -> L: eps_R (x) id_l
    g1 = ops._assoc(r, pc, l).then(ops._whisker(r, ops.counit_left())).then(ops._runit(r))
    g2 = ops._whisker(ops.counit_right(), l).then(ops._lunit(l))
    from_lfr = g1.then(injs[0]) + g2.then(injs[1])
    return into_rfl, from_lfr, sum_cx


def appendix_map(p: Kernel) -> KernelMap:
    """The canonical composite RF -> RFLF -> CLF[1]."""
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    lf = ops.lf().complex
    ct = ops.cotwist()
    # P (x) R -> (P(x)B)(x)R -> (P(x)FL)(x)R -> (LF(x)P)(x)R -> LF(x)RF -> LF(x)C[1]
    into_pflr = ops._whisker(ops._runit_inv(pc), r).then(
        ops._whisker(ops._whisker(pc, ops.unit_left()), r))
    chain = (into_pflr
             .then(ops._whisker(ops._assoc_inv(pc, l, pc), r))
             .then(ops._assoc(lf, pc, r))
             .then(ops._whisker(lf, ct.gamma))
             .then(ops._shift_out_right(lf, ct.gamma.target, ct.kernel.complex)))
    src = Kernel(ops.A, ops.A, chain.source, check=False)
    tgt = Kernel(ops.A, ops.A, chain.target, check=False)
    return KernelMap(src, tgt, chain)
