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

A map of kernels is a ChainMap between their complexes.  Whiskering it
by a kernel is tensoring it with an identity chain map; regrouping
between bracketings goes through the associator, and the unitors absorb
identity kernels.  Both are built in one direction, and the maps the
other way are their ChainMap.inverse().  Every canonical map below
(units, counits, twist triangles, the condition maps) is assembled from
these pieces, with the cone constructor as the only source of triangle
maps.

Each twist and cotwist is one Triangle record: the kernel with the
ConeData of the counit or unit it comes from.  A counit eps: M -> id
gives T = cone(eps) and the triangle M -> id -> T -> M[1]; a unit
eta: id -> M gives C = cone(eta)[-1] and the triangle C -> id -> M -> C[1],
whose last map is the cone's include_target, as C[1] is cone(eta) itself.
A shift of a tensor's left factor is the shifted tensor on the nose, so
only shifts of the right factor go through an interchange map.

Only what the theorem layer reads is built here: the twist T, the
cotwist C, and the condition, splitting and appendix maps.  The dual
twists T' = cone(eta_L)[-1] and C' = cone(eps_L), the four triangular
identities and the four standard composites such as TF[-1] -> FRF -> FC[1]
are built from the same pieces by the test suite (tests/helpers.py),
which checks them against the engine.

Adjoints: the right adjoint kernel takes the termwise right dual with
differentials dualised with sign (-1)^{n+1}; the left adjoint uses the
termwise left dual and sign (-1)^n.  With the deterministic dual bases
of the bimodule layer the triangular identities hold strictly, i.e. as
equalities of matrices, not merely up to homotopy.

Each kernel has an integer K_0 class, KernelOps.k0_class, read off the
multiplicities of the projectives e_w B in its terms.  Quasi-isomorphic
kernels have equal classes, and the class of a tensor, cone, shift or
identity kernel follows from the classes of its pieces, so the theorem
layer can rule conditions out without building their complexes.
"""

from __future__ import annotations

import numpy as np

from .algebras import Algebra
from .bimodules import (
    DualData,
    is_projective,
    left_dual,
    right_dual,
    right_multiplicities,
)
from .complexes import (
    ChainMap,
    Complex,
    ConeData,
    TensorComplex,
    associator,
    cone,
    direct_sum_complexes,
    interchange_right_shift,
    left_unitor,
    minimal_model,
    right_unitor,
    shift,
    shift_map,
    tensor_cx,
    unit_complex,
)
from .linalg import Matrix


class KernelError(Exception):
    """Raised for non-biprojective data or incompatible kernel operations."""


class Kernel:
    """A bounded complex of biprojective (A,B)-bimodules.

    The constructor checks that every term is projective on both sides,
    unless check=False: the engine passes that for the kernels it builds
    itself.  Composites, twists and cotwists of biprojective kernels are
    biprojective by construction.  An adjoint is projective on one side by
    construction, R on the left and L on the right; on the other side its
    terms are duals of the algebra's projectives, which are projective over
    a self-injective algebra but need not be otherwise, so check_conditions
    checks R's right side before it tensors with R.
    """

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


def compose(p: Kernel, q: Kernel) -> Kernel:
    """The kernel of "apply p's functor, then q's"."""
    if p.target_algebra.mult != q.source_algebra.mult:
        raise KernelError("compose: middle algebras do not match")
    t = tensor_cx(p.complex, q.complex)
    return Kernel(p.source_algebra, q.target_algebra, t.complex, check=False)


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


def _sum_runs(field, runs: int, length: int) -> Matrix:
    """The (runs * length) x runs matrix that sums each run of length columns."""
    return Matrix.identity(field, runs).kron(Matrix.from_rows(field, [[1]] * length))


class AdjointData:
    """Dual complex of a kernel together with its termwise dual bases."""

    def __init__(self, kernel: Kernel, duals: dict[int, DualData]):
        self.kernel = kernel
        self.duals = duals


class Triangle:
    """A twist or cotwist kernel with the cone of the counit or unit it
    comes from: T = cone(eps) ends its triangle in cone.project_source,
    C = cone(eta)[-1] in cone.include_target."""

    def __init__(self, kernel: Kernel, cone: ConeData):
        self.kernel = kernel
        self.cone = cone

    @staticmethod
    def of(f: ChainMap, n: int) -> Triangle:
        """The triangle of cone(f), with kernel cone(f)[n] (n is 0 or -1)."""
        cd = cone(f)
        cx = shift(cd.cone, n) if n else cd.cone
        return Triangle(Kernel(cx.left_algebra, cx.right_algebra, cx, check=False), cd)


def _adjoint_data(p: Kernel, side: str) -> AdjointData:
    """side "right": termwise right dual, d^n = (-1)^{n+1} (- o d);
    side "left": termwise left dual, d^n = (-1)^n (- o d).

    A dual basis reads every hom h out of a term at the generators: h is
    sum_t h(g_t) . g_t^* on the right side and sum_t g_t^* . h(g_t) on the
    left.  So the coordinates of f o d, for all basis homs f of the dual
    at once, are the target dual's action of the values f(d g_t) on the
    cogenerators g_t^*, summed over t."""
    field = p.complex.field
    pc = p.complex
    duals: dict[int, DualData] = {}
    for i in pc.degrees():
        duals[i] = right_dual(pc.term(i)) if side == "right" else left_dual(pc.term(i))
    terms = {-i: dd.bimodule for i, dd in duals.items() if dd.bimodule.dim}
    diffs = {}
    for n in sorted(terms):
        d_orig = pc.diffs.get(-(n + 1))   # term(-(n+1)) -> term(-n)
        if (n + 1) not in terms or d_orig is None:
            continue
        src_dd, tgt_dd = duals[-n], duals[-(n + 1)]
        acts = tgt_dd.bimodule.left_action if side == "right" else tgt_dd.bimodule.right_action
        gens, cogens = tgt_dd.gens, tgt_dd.cogens
        # row j, column i S + t: entry i of f_j(d g_t), for the j-th basis hom
        # f_j, the S generators g_t and the basis elements b_i of the algebra
        values = (src_dd.homs * (d_orig * gens)).reshape(src_dd.bimodule.dim,
                                                         len(acts) * gens.cols)
        # column i S + t: b_i acting on g_t^*
        acted = Matrix.stack_columns(field, [a * cogens for a in acts], cogens.rows)
        sign = field.elem((-1) ** (n + 1) if side == "right" else (-1) ** n)
        diffs[n] = (acted * values.transpose()).scale(sign)
    cx = Complex(p.target_algebra, p.source_algebra, terms, diffs)
    return AdjointData(Kernel(p.target_algebra, p.source_algebra, cx, check=False), duals)


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
        """f (x) g, where a complex stands for its identity map (never built)."""
        sources = [h if isinstance(h, Complex) else h.source for h in (f, g)]
        targets = [h if isinstance(h, Complex) else h.target for h in (f, g)]
        maps = [None if isinstance(h, Complex) else h for h in (f, g)]
        return self._tensor(*sources).induced(*maps, self._tensor(*targets))

    def _assoc(self, x: Complex, y: Complex, z: Complex) -> ChainMap:
        """(x (x) y) (x) z -> x (x) (y (x) z), built once per triple of complex
        objects (the cached tensors it is built from hold all three)."""
        def build():
            xy, yz = self._tensor(x, y), self._tensor(y, z)
            return associator(xy, self._tensor(xy.complex, z), yz, self._tensor(x, yz.complex))
        return self._get(("assoc", id(x), id(y), id(z)), build)

    def _lunit(self, x: Complex) -> ChainMap:
        """id (x) x -> x, built once per complex."""
        return self._get(("lunit", id(x)), lambda: left_unitor(
            self._tensor(unit_complex(x.left_algebra), x)))

    def _runit(self, x: Complex) -> ChainMap:
        """x (x) id -> x, built once per complex."""
        return self._get(("runit", id(x)), lambda: right_unitor(
            self._tensor(x, unit_complex(x.right_algebra))))

    def _shift_out_right(self, x: Complex, y1: Complex, y: Complex) -> ChainMap:
        """x (x) y1 -> (x (x) y)[1], for y1 = y[1]."""
        return interchange_right_shift(self._tensor(x, y1), self._tensor(x, y), 1)

    # the minimal model ----------------------------------------------------

    def model(self) -> Kernel:
        """p on the minimal model of its complex: homotopy equivalent to p,
        so it defines the same functor.  p itself when nothing cancels, so
        an already minimal kernel shares this workspace."""
        def build():
            x = minimal_model(self.p.complex)
            return self.p if x is self.p.complex else Kernel(self.A, self.B, x, check=False)
        return self._get("model", build)

    # the K_0 class -------------------------------------------------------

    def k0_class(self) -> np.ndarray:
        """The integer class M[u, w] = sum_n (-1)^n (multiplicity of e_w B in
        e_u X^n) of the kernel's complex X, as Python ints; KernelError when
        a term is not right-projective, as the class then is not defined.

        It is the class in K_0(proj B) of the complex of right modules
        e_u X, so quasi-isomorphic kernels have equal classes: bounded
        complexes of projectives that are quasi-isomorphic are homotopy
        equivalent.  Composites follow from four rules without building a
        complex: X (x) Y has M_X M_Y, cone(f: X -> Y) has M_Y - M_X, X[k]
        has (-1)^k M_X, and the identity kernel has the identity matrix."""
        def build():
            out = np.zeros((len(self.A.vertex_idempotents), len(self.B.vertex_idempotents)),
                           dtype=object)
            for n, t in self.p.complex.terms.items():
                mult = right_multiplicities(t)
                if mult is None:
                    raise KernelError(f"kernel term at degree {n} is not right-projective, "
                                      f"so it has no K_0 class")
                out += mult if n % 2 == 0 else -mult
            return out
        return self._get("k0", build)

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

    def _coevaluation(self, alg: Algebra, t: TensorComplex, parts) -> ChainMap:
        """id_alg -> t, a |-> sum a.x_t (x) y_t.  parts lists, for each
        degree-0 slot (i, j) of t, the x_t in t.x^i and the y_t in t.y^j
        as the columns of two matrices."""
        field, dim = self.field, alg.dim
        blocks = []
        for i, j, xs, ys in parts:
            td, off = t.layout[0][(i, j)]
            module = t.x.term(i)
            # a.x_t (x) y_t for every a and t, then summed over t
            coords = td.coords(
                Matrix.stack_columns(field, [module.left_action[a] * xs
                                             for a in range(dim)], module.dim),
                Matrix.stack_columns(field, [ys] * dim, t.y.dim(j)))
            blocks.append((off, 0, coords * _sum_runs(field, dim, xs.cols)))
        return ChainMap(unit_complex(alg), t.complex,
                        {0: Matrix.from_blocks(field, t.complex.dim(0), dim, blocks)})

    def unit_right(self) -> ChainMap:
        """id_A -> RF, the coevaluation a |-> sum a.g_t (x) g_t^*."""
        return self._get("unit_right", lambda: self._coevaluation(self.A, self.rf(), [
            (i, -i, dd.gens, dd.cogens)
            for i, dd in self.right_adjoint().duals.items() if dd.bimodule.dim]))

    def _evaluation(self, alg: Algebra, t: TensorComplex, duals: dict[int, DualData],
                    dual_first: bool) -> ChainMap:
        """t -> id_alg, f (x) x |-> f(x), for t = dual (x) p when dual_first
        and t = p (x) dual otherwise; duals[i] is the dual basis of p's term i."""
        comps = {}
        if 0 in t.complex.terms:
            cols = []
            for (i, j), (td, _) in t.layout[0].items():
                xs, ys = td.monomial_matrices()
                cols.append(duals[j].evaluate(xs, ys) if dual_first else duals[i].evaluate(ys, xs))
            comps[0] = Matrix.stack_columns(self.field, cols, alg.dim)
        return ChainMap(t.complex, unit_complex(alg), comps)

    def counit_right(self) -> ChainMap:
        """FR -> id_B, the evaluation f (x) x |-> f(x)."""
        return self._get("counit_right", lambda: self._evaluation(
            self.B, self.fr(), self.right_adjoint().duals, dual_first=True))

    def unit_left(self) -> ChainMap:
        """id_B -> FL, b |-> sum (b.h_t^*) (x) h_t."""
        return self._get("unit_left", lambda: self._coevaluation(self.B, self.fl(), [
            (-i, i, dd.cogens, dd.gens)
            for i, dd in self.left_adjoint().duals.items() if dd.bimodule.dim]))

    def counit_left(self) -> ChainMap:
        """LF -> id_A, x (x) f |-> f(x)."""
        return self._get("counit_left", lambda: self._evaluation(
            self.A, self.lf(), self.left_adjoint().duals, dual_first=False))

    # twists ---------------------------------------------------------------

    def twist(self) -> Triangle:
        """T = cone(eps_R), with its triangle FR -> id_B -> T -> FR[1]."""
        return self._get("twist", lambda: Triangle.of(self.counit_right(), 0))

    def cotwist(self) -> Triangle:
        """C = cone(eta_R)[-1], with its triangle C -> id_A -> RF -> C[1]."""
        return self._get("cotwist", lambda: Triangle.of(self.unit_right(), -1))


def kernel_ops(p: Kernel) -> KernelOps:
    if p._ops is None:
        p._ops = KernelOps(p)
    return p._ops


# ---------------------------------------------------------------------------
# canonical composite maps
# ---------------------------------------------------------------------------


def condition4_map(p: Kernel) -> ChainMap:
    """The canonical map R -> RFL -> CL[1] built from the unit of the left
    adjunction and the cotwist triangle."""
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    ct = ops.cotwist()
    gamma = ct.cone.include_target     # RF -> C[1]
    return (ops._lunit(r).inverse()
            .then(ops._whisker(ops.unit_left(), r))
            .then(ops._assoc(l, p.complex, r))
            .then(ops._whisker(l, gamma))
            .then(ops._shift_out_right(l, gamma.target, ct.kernel.complex)))


def condition3_map(p: Kernel) -> ChainMap:
    """The canonical map LT[-1] -> LFR -> R built from the twist triangle
    and the counit of the left adjunction."""
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    # (T (x) L)[-1] -> (FR[1] (x) L)[-1], which is (R(x)P)(x)L on the nose
    c_shifted = shift_map(ops._whisker(ops.twist().cone.project_source, l), -1)
    return (c_shifted
            .then(ops._assoc(r, p.complex, l))
            .then(ops._whisker(r, ops.counit_left()))
            .then(ops._runit(r)))


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
    map_r = ops._lunit(r).inverse().then(ops._whisker(ops.unit_left(), r))
    map_l = (ops._runit(l).inverse().then(ops._whisker(l, ops.unit_right()))
             .then(ops._assoc(l, pc, r).inverse()))
    sum_cx, injs, projs = direct_sum_complexes([r, l])
    into_rfl = projs[0].then(map_r) + projs[1].then(map_l)
    # LFR -> R: id_r (x) eps_L after regrouping; LFR -> L: eps_R (x) id_l
    g1 = ops._assoc(r, pc, l).then(ops._whisker(r, ops.counit_left())).then(ops._runit(r))
    g2 = ops._whisker(ops.counit_right(), l).then(ops._lunit(l))
    from_lfr = g1.then(injs[0]) + g2.then(injs[1])
    return into_rfl, from_lfr, sum_cx


def appendix_map(p: Kernel) -> ChainMap:
    """The canonical composite RF -> RFLF -> CLF[1]."""
    ops = kernel_ops(p)
    pc = p.complex
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    lf = ops.lf().complex
    ct = ops.cotwist()
    gamma = ct.cone.include_target     # RF -> C[1]
    # P (x) R -> (P(x)B)(x)R -> (P(x)FL)(x)R -> (LF(x)P)(x)R -> LF(x)RF -> LF(x)C[1]
    into_pflr = ops._whisker(ops._runit(pc).inverse(), r).then(
        ops._whisker(ops._whisker(pc, ops.unit_left()), r))
    return (into_pflr
            .then(ops._whisker(ops._assoc(pc, l, pc).inverse(), r))
            .then(ops._assoc(lf, pc, r))
            .then(ops._whisker(lf, gamma))
            .then(ops._shift_out_right(lf, gamma.target, ct.kernel.complex)))
