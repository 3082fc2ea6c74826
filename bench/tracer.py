"""Outside-in tracer for spherica's layer entry points.

The tracer wraps functions and methods of the engine from outside: a
class method is replaced on its class, and a module function is replaced
in its own module and in every ``spherica`` module that imported it by
name (``from .complexes import tensor_cx``), so calls between layers are
counted too.  ``uninstall`` puts every original object back.

For each target it records calls, inclusive time, self time (inclusive
time minus the time spent in traced callees), an optional size, and how
often it was called directly from each other target.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
import types
import weakref

PACKAGE = "spherica"


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "size")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.size = 0


class Target:
    """One traced entry point: ``owner.attr`` under the name ``key``.

    ``size(args, result)`` returns the amount of work or output a call
    stands for; ``memo`` marks methods whose repeated results count as
    cache hits.
    """

    def __init__(self, key, owner, attr, size=None, memo=False):
        self.key = key
        self.owner = owner
        self.attr = attr
        self.size = size
        self.memo = memo

    @property
    def original(self):
        return vars(self.owner)[self.attr]


def _mul_macs(args, out):
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols


def _rref_entries(args, out):
    return args[0].rows * args[0].cols


def _total_dim(args, out):
    return out.complex.total_dim()


def _found(args, out):
    return out is not None


def spherica_targets(sp) -> list[Target]:
    """The layer entry points of an imported ``spherica`` package."""
    linalg, bimodules, complexes = sp.linalg, sp.bimodules, sp.complexes
    kernels, spherical, session, algebras = sp.kernels, sp.spherical, sp.session, sp.algebras
    candidates = [
        Target("linalg.Matrix.__mul__", linalg.Matrix, "__mul__", size=_mul_macs),
        Target("linalg.Matrix.rref", linalg.Matrix, "rref", size=_rref_entries),
        Target("bimodules.Bimodule.__init__", bimodules.Bimodule, "__init__"),
        Target("bimodules.tensor_over_middle", bimodules, "tensor_over_middle"),
        Target("bimodules.hom_space", bimodules, "hom_space"),
        Target("bimodules.right_dual", bimodules, "right_dual"),
        Target("bimodules.left_dual", bimodules, "left_dual"),
        Target("complexes.tensor_cx", complexes, "tensor_cx", size=_total_dim),
        Target("complexes.cone", complexes, "cone"),
        Target("complexes.homology_dims", complexes, "homology_dims"),
        Target("complexes.is_quasi_iso", complexes, "is_quasi_iso"),
        Target("complexes.chain_map_space", complexes, "chain_map_space"),
        Target("complexes.find_quasi_iso", complexes, "find_quasi_iso", size=_found),
        Target("kernels.condition3_map", kernels, "condition3_map"),
        Target("kernels.condition4_map", kernels, "condition4_map"),
        Target("spherical.is_equivalence_kernel", spherical, "is_equivalence_kernel"),
        Target("spherical.check_conditions", spherical, "check_conditions"),
        Target("session.parse_session", session, "parse_session"),
        Target("algebras.algebra_from_quiver", algebras, "algebra_from_quiver"),
    ]
    # an entry point that a later engine no longer has is skipped; its metrics read 0
    targets = [t for t in candidates if t.attr in vars(t.owner)]
    # every class in the TensorData family that defines its own induced()
    for cls in [bimodules.TensorData, *bimodules.TensorData.__subclasses__()]:
        if "induced" in vars(cls):
            targets.append(Target(f"bimodules.{cls.__name__}.induced", cls, "induced"))
    ops = kernels.KernelOps
    for name, fn in vars(ops).items():
        if isinstance(fn, types.FunctionType) and not name.startswith("_"):
            targets.append(Target(f"kernels.KernelOps.{name}", ops, name, memo=True))
    return targets


class Tracer:
    """Install with ``with Tracer(targets):`` or ``install()``/``uninstall()``."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, Stat] = {t.key: Stat() for t in targets}
        self.edges: dict[tuple[str, str], int] = {}
        self.memo_calls = 0
        self.memo_hits = 0
        self._seen: dict[int, weakref.ref] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # bookkeeping -------------------------------------------------------

    def reset(self):
        for key in self.stats:
            self.stats[key] = Stat()
        self.edges.clear()
        self.memo_calls = self.memo_hits = 0
        self._seen.clear()

    def _note_result(self, out):
        """A memoised method's result is a hit if it was returned before."""
        self.memo_calls += 1
        ref = self._seen.get(id(out))
        if ref is not None and ref() is out:
            self.memo_hits += 1
        else:
            try:
                self._seen[id(out)] = weakref.ref(out)
            except TypeError:  # a result that takes no weak reference is never a hit
                pass

    def _wrap(self, target: Target, fn):
        tracer = self
        key = target.key
        size = target.size
        memo = target.memo
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat = tracer.stats[key]
            parent = stack[-1][0] if stack else None
            edge = (parent, key)
            edges[edge] = edges.get(edge, 0) + 1
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stat.calls += 1
                stat.incl_s += dt
                stat.self_s += dt - frame[1]
            if size is not None:
                stat.size += size(args, out)
            if memo:
                tracer._note_result(out)
            return out

        return traced

    # installation ------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [mod for _, mod in _package_modules()]
        try:
            for t in self.targets:
                original = t.original
                wrapper = self._wrap(t, original)
                self._rebind(t.owner, t.attr, wrapper)
                if isinstance(t.owner, types.ModuleType):
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original and not (mod is t.owner and name == t.attr):
                                self._rebind(mod, name, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _rebind(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self._stack.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _package_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def attribute_snapshot() -> dict:
    """Identity of every attribute of the engine's modules and their classes."""
    snap = {}
    for name, mod in _package_modules():
        for attr, value in vars(mod).items():
            snap[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = id(cvalue)
    return snap


def profile_counts(targets: list[Target], fn) -> dict[str, int]:
    """Call counts of each target's original function while ``fn()`` runs
    under cProfile, for checking the tracer's own counts."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    table = pstats.Stats(prof).stats
    out = {}
    for t in targets:
        code = t.original.__code__
        entry = table.get((code.co_filename, code.co_firstlineno, code.co_name))
        out[t.key] = entry[1] if entry else 0
    return out


def crosscheck(targets: list[Target], fn) -> dict[str, tuple[int, int]]:
    """Run ``fn`` once traced and once under cProfile; returns, per target,
    (traced calls, profiled calls).  ``fn`` must repeat the same calls."""
    tr = Tracer(targets)
    with tr:
        fn()
    profiled = profile_counts(targets, fn)
    return {t.key: (tr.stats[t.key].calls, profiled[t.key]) for t in targets}
