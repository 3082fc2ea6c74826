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

A map of kernels is a ChainMap between their complexes.  The units and
counits are the coevaluations a |-> sum a.g_t (x) g_t^* and the
evaluations f (x) x |-> f(x) of the adjoints' dual bases.  The
condition, splitting and appendix maps are written straight into the
tensors at their two ends from the same generators, cogenerators and
evaluations, term by term: no whisker, unitor, associator or interchange
is built, and no tensor of three or four kernels but those ends.  The
cone constructor is the only source of triangle maps, and these maps
read the twist's T -> FR[1] and the cotwist's RF -> C[1] off it.  The
chains of whiskers, unitors and associators the maps equal are kept by
the test suite (tests/helpers.py), which checks them against the engine.

Each twist and cotwist is one Triangle record: the kernel with the
ConeData of the counit or unit it comes from.  A counit eps: M -> id
gives T = cone(eps) and the triangle M -> id -> T -> M[1]; a unit
eta: id -> M gives C = cone(eta)[-1] and the triangle C -> id -> M -> C[1],
whose last map is the cone's include_target, as C[1] is cone(eta) itself.
A shift of a tensor's left factor is the shifted tensor on the nose; a
shift of its right factor is it up to the sign (-1)^{|x|} on x (x) y,
which condition4_map and appendix_map write into (X (x) C)[1] directly.

Only what the theorem layer reads is built here: the twist T, the
cotwist C, and the condition, splitting and appendix maps.  The left
counit eps_L, the dual twists T' = cone(eta_L)[-1] and C' = cone(eps_L),
the four triangular identities and the four standard composites such as
TF[-1] -> FRF -> FC[1] are built from the same pieces by the test suite
(tests/helpers.py), which checks them against the engine.

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
    TensorData,
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
    cone,
    direct_sum_complexes,
    minimal_model,
    shift,
    tensor_cx,
    unit_complex,
)
from .linalg import Matrix, kept


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


def _repeated(m: Matrix, k: int) -> Matrix:
    """Each column of m k times over: column c * k + t is column c of m."""
    return m.submatrix(slice(None), np.repeat(np.arange(m.cols), k))


def _tiled(m: Matrix, k: int) -> Matrix:
    """m k times side by side: column c * m.cols + t is column t of m."""
    return m.submatrix(slice(None), np.tile(np.arange(m.cols), k))


def _in_term(t: TensorComplex, i: int, j: int, xs: Matrix, ys: Matrix) -> Matrix:
    """The pure tensors xs[:, c] (x) ys[:, c] of slot (i, j) of t, in the
    coordinates of t's term of degree i + j."""
    td, off = t.layout[i + j][(i, j)]
    return td.coords(xs, ys).pad_rows(off, t.complex.dim(i + j))


def _coevaluated(td: TensorData, xs: Matrix, ys: Matrix, runs: int) -> Matrix:
    """Column c is sum_t x_ct (x) y_ct in td's coordinates, for x_ct and
    y_ct in column c * S + t of xs and ys: a coevaluation sum_t g_t (x) g_t^*
    with a factor put on each side of every term."""
    ones = Matrix.from_rows(td.field, [[1]] * (xs.cols // runs))
    return td.coords(xs, ys) * Matrix.identity(td.field, runs).kron(ones)


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

    Everything here is a deterministic function of the kernel.  What more
    than one check reads is kept in _cache through linalg.kept: the model,
    the K_0 class, the adjoints, RF, FR, FL, eps_R, the twist and cotwist,
    and spherical's report and conditions.  The user paths read the units
    and LF once per workspace, so each call builds them afresh.
    """

    def __init__(self, p: Kernel):
        self.p = p
        self.A = p.source_algebra
        self.B = p.target_algebra
        self.field = p.complex.field
        self._cache: dict = {}

    # the minimal model ----------------------------------------------------

    def model(self) -> Kernel:
        """p on the minimal model of its complex: homotopy equivalent to p,
        so it defines the same functor.  p itself when nothing cancels, so
        an already minimal kernel shares this workspace."""
        def build():
            x = minimal_model(self.p.complex)
            return self.p if x is self.p.complex else Kernel(self.A, self.B, x, check=False)
        return kept(self._cache, "model", build)

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
        return kept(self._cache, "k0", build)

    # adjoints ---------------------------------------------------------

    def right_adjoint(self) -> AdjointData:
        return kept(self._cache, "radj", lambda: _adjoint_data(self.p, "right"))

    def left_adjoint(self) -> AdjointData:
        return kept(self._cache, "ladj", lambda: _adjoint_data(self.p, "left"))

    # the four composite tensors ----------------------------------------

    def rf(self) -> TensorComplex:
        """RF = compose(p, R): the monad kernel on the source side."""
        return kept(self._cache, "rf", lambda: tensor_cx(self.p.complex,
                                                         self.right_adjoint().kernel.complex))

    def fr(self) -> TensorComplex:
        """FR = compose(R, p): the comonad kernel on the target side."""
        return kept(self._cache, "fr", lambda: tensor_cx(self.right_adjoint().kernel.complex,
                                                         self.p.complex))

    def fl(self) -> TensorComplex:
        """FL = compose(L, p)."""
        return kept(self._cache, "fl", lambda: tensor_cx(self.left_adjoint().kernel.complex,
                                                         self.p.complex))

    def lf(self) -> TensorComplex:
        """LF = compose(p, L)."""
        return tensor_cx(self.p.complex, self.left_adjoint().kernel.complex)

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
            acted = Matrix.stack_columns(field, [module.left_action[a] * xs
                                                 for a in range(dim)], module.dim)
            blocks.append((off, 0, _coevaluated(td, acted, _tiled(ys, dim), dim)))
        return ChainMap(unit_complex(alg), t.complex,
                        {0: Matrix.from_blocks(field, t.complex.dim(0), dim, blocks)})

    def unit_right(self) -> ChainMap:
        """id_A -> RF, the coevaluation a |-> sum a.g_t (x) g_t^*."""
        return self._coevaluation(self.A, self.rf(), [
            (i, -i, dd.gens, dd.cogens)
            for i, dd in self.right_adjoint().duals.items() if dd.bimodule.dim])

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
        return kept(self._cache, "counit_right", lambda: self._evaluation(
            self.B, self.fr(), self.right_adjoint().duals, dual_first=True))

    def _left_duals(self) -> list[tuple[int, DualData]]:
        """(i, the left dual of P^i) for every term P^i with a nonzero dual."""
        return [(i, dd) for i, dd in self.left_adjoint().duals.items() if dd.bimodule.dim]

    def unit_left(self) -> ChainMap:
        """id_B -> FL, b |-> sum (b.h_t^*) (x) h_t."""
        return self._coevaluation(self.B, self.fl(), [
            (-i, i, dd.cogens, dd.gens) for i, dd in self._left_duals()])

    # the pieces of the canonical maps -------------------------------------

    def _contracted(self, vs: Matrix, m: int, ls: Matrix, j: int) -> Matrix | None:
        """f.l_c(x) in R^{m+j} for every column c, where column c of vs is
        sum_e S[e, c] f_e (x) x_e in FR^m and l_c is column c of ls in L^j:
        the left counit x (x) l |-> l(x) on (R (x) P) (x) L, regrouped.  None
        when FR^m has no slot R^{m+j} (x) P^{-j} or vs has no entry there."""
        fr = self.fr()
        slot = fr.layout.get(m, {}).get((m + j, -j))
        if slot is None:
            return None
        td, off = slot
        e, c, spread = vs.submatrix(slice(off, off + td.bimodule.dim),
                                    slice(None)).nonzero_entries()
        if not len(e):
            return None
        fs, xs = td.monomial_matrices()
        values = self.left_adjoint().duals[-j].evaluate(ls.submatrix(slice(None), c),
                                                         xs.submatrix(slice(None), e))
        return fr.x.term(m + j).right_act(fs.submatrix(slice(None), e), values) * spread

    def _into_cotwist(self, t: TensorComplex, rs: Matrix, n: int,
                      left) -> list[tuple[int, Matrix]]:
        """The blocks of sum_i (-1)^k sum_t u_ct (x) gamma(h_t (x) r_c) in
        t = X (x) C, as (row offset, block), for the columns r_c of rs in R^n.
        For the left dual dd of P^i, with generators h_t, left(i, dd) gives
        k and the matrix whose column c * S + t is u_ct in X^k.  gamma:
        RF -> C[1] is the cotwist triangle's map."""
        gamma = self.cotwist().cone.include_target
        out = []
        for i, dd in self._left_duals():
            k, us = left(i, dd)
            slot = t.layout.get(k + n + i + 1, {}).get((k, n + i + 1))
            if slot is not None:
                hr = _in_term(self.rf(), i, n, _tiled(dd.gens, rs.cols),
                              _repeated(rs, dd.gens.cols))
                block = _coevaluated(slot[0], us, gamma.comp(n + i) * hr, rs.cols)
                out.append((slot[1], block.scale(-1) if k % 2 else block))
        return out

    # twists ---------------------------------------------------------------

    def twist(self) -> Triangle:
        """T = cone(eps_R), with its triangle FR -> id_B -> T -> FR[1]."""
        return kept(self._cache, "twist", lambda: Triangle.of(self.counit_right(), 0))

    def cotwist(self) -> Triangle:
        """C = cone(eta_R)[-1], with its triangle C -> id_A -> RF -> C[1]."""
        return kept(self._cache, "cotwist", lambda: Triangle.of(self.unit_right(), -1))


def kernel_ops(p: Kernel) -> KernelOps:
    if p._ops is None:
        p._ops = KernelOps(p)
    return p._ops


# ---------------------------------------------------------------------------
# canonical composite maps, written straight into their endpoint tensors
# ---------------------------------------------------------------------------


def condition4_map(p: Kernel) -> ChainMap:
    """The canonical map R -> RFL -> CL[1] from the unit of the left
    adjunction and the cotwist triangle: r in R^n goes to
    sum_i (-1)^i sum_t h_t^* (x) gamma(h_t (x) r) in slot (-i, n+i+1) of
    L (x) C, shifted by 1, for the generators h_t of P^i and the
    cogenerators h_t^* of its left dual L^{-i}."""
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    lc = tensor_cx(ops.left_adjoint().kernel.complex, ops.cotwist().kernel.complex)
    target = shift(lc.complex, 1)
    comps = {}
    for n, t in r.terms.items():
        blocks = ops._into_cotwist(lc, Matrix.identity(ops.field, t.dim), n,
                                   lambda i, dd: (-i, _tiled(dd.cogens, t.dim)))
        comps[n] = Matrix.from_blocks(ops.field, target.dim(n), t.dim,
                                      [(off, 0, block) for off, block in blocks])
    return ChainMap(r, target, comps)


def condition3_map(p: Kernel) -> ChainMap:
    """The canonical map LT[-1] -> LFR -> R from the twist triangle and the
    counit of the left adjunction: a monomial (f (x) x) (x) l in the FR^{m+1}
    part of T^m (x) L^j goes to f.l(x), and the B^m part goes to 0."""
    ops = kernel_ops(p)
    r = ops.right_adjoint().kernel.complex
    tw = ops.twist()
    tl = tensor_cx(tw.kernel.complex, ops.left_adjoint().kernel.complex)
    comps = {}
    for n, slots in tl.layout.items():
        blocks = []
        for (m, j), (td, off) in slots.items():
            xs, ls = td.monomial_matrices()
            # the triangle's T -> FR[1] keeps the FR^{m+1} part of T^m
            block = ops._contracted(tw.cone.project_source.comp(m) * xs, m + 1, ls, j)
            if block is not None:
                blocks.append((0, off, block))
        comps[n + 1] = Matrix.from_blocks(ops.field, r.dim(n + 1), tl.complex.dim(n), blocks)
    return ChainMap(shift(tl.complex, -1), r, comps)


def splitting_maps(p: Kernel) -> tuple[ChainMap, ChainMap, Complex]:
    """The two canonical comparison maps that split the double composites:

    (R eta_L, eta_R L): R (+) L -> RFL, r |-> sum_t (h_t^* (x) h_t) (x) r and
    l |-> sum_t (l (x) g_t) (x) g_t^*, for the generators g_t of P's terms
    and the cogenerators g_t^* of their right duals; and
    (eps_L R; L eps_R): LFR -> R (+) L, (f (x) x) (x) l |-> (f.l(x), f(x).l).

    Returns (into_rfl, from_lfr, sum_complex).
    """
    ops = kernel_ops(p)
    field = ops.field
    r = ops.right_adjoint().kernel.complex
    l = ops.left_adjoint().kernel.complex
    fl = ops.fl()
    sum_cx = direct_sum_complexes([r, l])
    rfl = tensor_cx(fl.complex, r)
    unit = ops.unit_left().comp(0) * ops.B.unit    # sum_t h_t^* (x) h_t in FL^0
    into = {}
    for n in sum_cx.terms:
        rs, ls = Matrix.identity(field, r.dim(n)), Matrix.identity(field, l.dim(n))
        blocks = []
        if (0, n) in rfl.layout.get(n, {}):
            td, off = rfl.layout[n][(0, n)]
            blocks.append((off, 0, td.coords(_tiled(unit, rs.cols), rs)))
        for i, dd in ops.right_adjoint().duals.items():
            slot = rfl.layout.get(n, {}).get((n + i, -i))
            if dd.bimodule.dim and ls.cols and slot:
                us = _in_term(fl, n, i, _repeated(ls, dd.gens.cols), _tiled(dd.gens, ls.cols))
                blocks.append((slot[1], rs.cols, _coevaluated(
                    slot[0], us, _tiled(dd.cogens, ls.cols), ls.cols)))
        into[n] = Matrix.from_blocks(field, rfl.complex.dim(n), sum_cx.dim(n), blocks)
    lfr = tensor_cx(ops.fr().complex, l)
    out = {}
    for n, slots in lfr.layout.items():
        blocks = []
        for (m, j), (td, off) in slots.items():
            vs, ls = td.monomial_matrices()
            block = ops._contracted(vs, m, ls, j)
            if block is not None:
                blocks.append((0, off, block))
            if m == 0 and vs.cols:
                # eps_R (x) L: f(x) . l
                blocks.append((r.dim(n), off, l.term(j).left_act(
                    ops.counit_right().comp(0) * vs, ls)))
        out[n] = Matrix.from_blocks(field, sum_cx.dim(n), lfr.complex.dim(n), blocks)
    return ChainMap(sum_cx, rfl.complex, into), ChainMap(lfr.complex, sum_cx, out), sum_cx


def appendix_map(p: Kernel) -> ChainMap:
    """The canonical composite RF -> RFLF -> CLF[1]: x (x) r goes to
    sum_i (-1)^{|x (x) h^*|} sum_t (x (x) h_t^*) (x) gamma(h_t (x) r) in
    LF (x) C, shifted by 1, for h_t and h_t^* as in condition4_map."""
    ops = kernel_ops(p)
    rf, lf = ops.rf(), ops.lf()
    lfc = tensor_cx(lf.complex, ops.cotwist().kernel.complex)
    target = shift(lfc.complex, 1)
    comps = {}
    for n, slots in rf.layout.items():
        blocks = []
        for (a, m), (td, off) in slots.items():
            xs, rs = td.monomial_matrices()
            if xs.cols:
                blocks += [(row, off, block) for row, block in ops._into_cotwist(
                    lfc, rs, m, lambda i, dd: (a - i, _in_term(
                        lf, a, -i, _repeated(xs, dd.gens.cols), _tiled(dd.cogens, xs.cols))))]
        comps[n] = Matrix.from_blocks(ops.field, target.dim(n), rf.complex.dim(n), blocks)
    return ChainMap(rf.complex, target, comps)
