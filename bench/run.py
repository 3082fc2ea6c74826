"""spherica benchmark: time to verdict on named workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Without tracing the run prints the end-to-end metrics; with ``--trace 1``
it decides every item traced (every other one also untraced, for the
overhead), and prints per-layer metrics and the tracing overhead.  Every verdict is checked against its
reference; the last line of standard output is one JSON object.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 7  # this process's import of spherica plus fresh interpreters'
MIN_ITEMS = 10  # a run times at least this many items, so p90 has a sample beyond it

# end-to-end metrics (unit), reported with tracing off
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/ref_s",
    "item_s_p50": "ref_s",
    "item_s_p90": "ref_s",
    "peak_rss_mb": "MB",
}

# Times to verdict are reported in ref_s: seconds scaled to a host on
# which one iteration of calibrate()'s loop takes REF_ITER_S.  The host this
# benchmark was built on changes speed by up to a half within seconds; a
# loop of the engine's kind of work (small integer matrix products, small
# Python objects) that shares no code with the engine slows down with it,
# so dividing each item's time by the loop's mean speed while the item ran
# keeps a slower host from reading as a slower engine.
REF_ITER_S = 5e-6
CAL_ITERS = 2000  # one calibration before and one after each item
SAMPLE_ITERS = 200  # one sample while the item runs
SAMPLE_EVERY_S = 0.05


def calibrate(iters: int = CAL_ITERS) -> float:
    """Seconds per iteration of a fixed loop that does not touch the engine."""
    import numpy as np  # imported here, so that setup_s still pays for numpy

    m = np.arange(36, dtype=np.int64).reshape(6, 6)
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        b = (m @ m) % 101
        acc += int(b[i % 6, 0]) + len({j: j * i for j in range(8)})
    return (time.perf_counter() - t0) / iters


class HostSampler:
    """Samples the host's speed every SAMPLE_EVERY_S while an item runs,
    from a SIGALRM handler, so that a host that slows down in the middle
    of a long item is seen.  ``paused`` is the time spent sampling, which
    is left out of the item's time.  An inactive sampler takes none."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate(SAMPLE_ITERS))
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.paused = [], 0.0
        if not self.active:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


# per-layer metrics: layer -> (tracer keys, {field: unit}); a field is
# calls, self_s, incl_s or a size, summed over the keys and divided by the
# passes.  None stands for every TensorData class's own induced().
TIMED = {"calls": "count", "self_s": "s"}
LAYERS = {
    "linalg.mul": (["linalg.Matrix.__mul__"], {**TIMED, "macs": "count"}),
    "linalg.rref": (["linalg.Matrix.rref"], {**TIMED, "entries": "count"}),
    "bimodules.Bimodule": (["bimodules.Bimodule.__init__"], TIMED),
    "bimodules.tensor_over_middle": (["bimodules.tensor_over_middle"], TIMED),
    "bimodules.induced": (None, TIMED),
    "bimodules.hom_space": (["bimodules.hom_space"], TIMED),
    "bimodules.dual": (["bimodules.right_dual", "bimodules.left_dual"], TIMED),
    "complexes.tensor_cx": (["complexes.tensor_cx"], {**TIMED, "out_dim": "count"}),
    "complexes.cone": (["complexes.cone"], TIMED),
    "complexes.homology_dims": (["complexes.homology_dims"], TIMED),
    "complexes.chain_map_space": (["complexes.chain_map_space"], TIMED),
    "complexes.find_quasi_iso": (["complexes.find_quasi_iso"], {"calls": "count"}),
    "kernels.adjoint": (["kernels.KernelOps.right_adjoint", "kernels.KernelOps.left_adjoint"],
                        TIMED),
    "kernels.unit_counit": (["kernels.KernelOps.unit_right", "kernels.KernelOps.counit_right",
                             "kernels.KernelOps.unit_left", "kernels.KernelOps.counit_left"],
                            TIMED),
    "kernels.condition_maps": (["kernels.condition3_map", "kernels.condition4_map"], TIMED),
    "spherical.is_equivalence_kernel": (["spherical.is_equivalence_kernel"],
                                        {"calls": "count", "incl_s": "s"}),
    "spherical.check_conditions": (["spherical.check_conditions"], {"incl_s": "s"}),
    "session.parse_session": (["session.parse_session"], {"self_s": "s"}),
    "algebras.algebra_from_quiver": (["algebras.algebra_from_quiver"], {"self_s": "s"}),
}
SIZE_FIELDS = {"macs", "entries", "out_dim"}
# layers measured over one traced set-up plus the traced passes
SETUP_LAYERS = {"session.parse_session", "algebras.algebra_from_quiver"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default 20240809)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_engine():
    """Import spherica from this checkout's src/, never from elsewhere."""
    if not (SRC / "spherica" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine sources at {SRC / 'spherica'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import spherica
    import_s = time.perf_counter() - t0
    if Path(spherica.__file__).resolve().parent != SRC / "spherica":
        raise SystemExit(f"error: imported spherica from {spherica.__file__}, not {SRC}")
    return spherica, import_s


def import_seconds(first: float) -> float:
    """Median time to import spherica: ``first`` (this process's import)
    and IMPORT_SAMPLES - 1 imports in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import spherica; print(time.perf_counter() - t0)")
    times = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


class Run:
    """Runs items of a workload and keeps their times and gate results.

    With ``sample_host`` each item's time is also scaled to ref_s by the
    host's speed while it ran (calibrations before and after it, and the
    HostSampler's samples during it).
    """

    def __init__(self, workload, state, sample_host: bool = True):
        self.workload = workload
        self.state = state
        self.sample_host = sample_host
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.host: list[float] = []  # mean seconds per calibration iteration, per item
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def decide(self, item) -> float:
        """Decide one item, check its verdict, and return its time to verdict."""
        gc.collect()  # every item starts without the garbage of the last one
        before = calibrate() if self.sample_host else None
        with HostSampler(self.sample_host) as sampler:
            t0 = time.perf_counter()
            try:
                out = self.workload.run(item)
                crash = None
            except Exception:  # an engine crash is a failed item, not a dead run
                crash = traceback.format_exc()
            dt = time.perf_counter() - t0 - sampler.paused
        problems = [crash] if crash else self.workload.check(item, out)
        if self.sample_host:
            speed = statistics.fmean([before, calibrate(), *sampler.samples])
            self.host.append(speed)
            self.scaled.append(dt * REF_ITER_S / speed)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        self.times.append(dt)
        return dt

    def one_pass(self, limit: int | None = None) -> float:
        """Decide every item once (or the first ``limit``); returns the
        summed time to verdict."""
        items = itertools.islice(self.workload.items(self.state), limit)
        return sum(self.decide(item) for item in items)

    def passes(self, seconds: float) -> int:
        """Whole passes until ``seconds`` have passed and MIN_ITEMS items
        have been timed."""
        n = 0
        start = time.perf_counter()
        while len(self.times) < MIN_ITEMS or time.perf_counter() - start < seconds:
            self.one_pass()
            n += 1
        return n


def time_summary(times: list[float]) -> tuple[float, float, float]:
    """Items per second, median and 90th percentile of the times."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return len(times) / sum(times), statistics.median(times), p90


def end_to_end(run: Run, setup_s: float) -> tuple[dict[str, float], tuple]:
    """The end-to-end metrics, and the raw (unscaled, in s) time summary."""
    per_s, p50, p90 = time_summary(run.scaled)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": per_s,
        "item_s_p50": p50,
        "item_s_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, time_summary(run.times)


def layer_metrics(tracer, setup_stats, passes: int) -> dict[str, float]:
    out = {}
    for layer, (keys, fields) in LAYERS.items():
        if keys is None:
            keys = [k for k in tracer.stats if k.startswith("bimodules.") and k.endswith(".induced")]
        keys = [k for k in keys if k in tracer.stats]
        for field in fields:
            attr = "size" if field in SIZE_FIELDS else field
            value = sum(getattr(tracer.stats[k], attr) for k in keys) / passes
            if layer in SETUP_LAYERS:
                value += sum(getattr(setup_stats[k], attr) for k in keys)
            out[f"{layer}.{field}"] = value
    fq = tracer.stats.get("complexes.find_quasi_iso", tracing.Stat())
    candidates = tracer.edges.get(("complexes.find_quasi_iso", "complexes.is_quasi_iso"), 0)
    out["complexes.find_quasi_iso.candidates"] = candidates / passes
    out["complexes.find_quasi_iso.witness_ratio"] = fq.size / candidates if candidates else 0.0
    out["kernels.ops.hit_ratio"] = (tracer.memo_hits / tracer.memo_calls
                                    if tracer.memo_calls else 0.0)
    return out


def layer_units() -> dict[str, str]:
    units = {f"{layer}.{field}": unit
             for layer, (_, fields) in LAYERS.items() for field, unit in fields.items()}
    units.update({"complexes.find_quasi_iso.candidates": "count",
                  "complexes.find_quasi_iso.witness_ratio": "ratio",
                  "kernels.ops.hit_ratio": "ratio",
                  "trace.overhead_frac": "ratio"})
    return units


def main(argv=None) -> int:
    args = parse_args(argv)
    spherica, import_s = import_engine()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    wl = WORKLOADS[args.workload]

    if args.trace:
        tr = tracing.Tracer(tracing.spherica_targets(spherica))
        with tr:
            state = wl.setup(seed)
        setup_stats = dict(tr.stats)
        tr.reset()
        run = Run(wl, state, sample_host=False)
        run.one_pass(limit=1)  # warm-up, so neither timed side pays first-call costs
        # every item traced; every other item also untraced just before,
        # so both sides of the overhead see the same host speed
        n, pairs = 0, []  # (untraced, traced) time of the twinned items
        start = time.perf_counter()
        while n == 0 or time.perf_counter() - start < args.seconds:
            for i, (plain, traced) in enumerate(zip(wl.items(state), wl.items(state))):
                plain_s = run.decide(plain) if i % 2 == 0 else None
                with tr:
                    traced_s = run.decide(traced)
                if plain_s is not None:
                    pairs.append((plain_s, traced_s))
            n += 1
        metrics = layer_metrics(tr, setup_stats, n)
        metrics["trace.overhead_frac"] = statistics.median(t / p for p, t in pairs) - 1.0
        units = layer_units()
        note = (f"{n} traced passes of {(run.attempted - 1 - len(pairs)) // n} items, "
                f"{len(pairs)} items also untraced")
    else:
        setups = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            state = wl.setup(seed)
            setups.append(time.perf_counter() - t0)
        setup_s = import_seconds(import_s) + statistics.median(setups)
        run = Run(wl, state)
        n = run.passes(args.seconds)
        metrics, raw = end_to_end(run, setup_s)
        units = END_TO_END
        note = (f"{run.attempted} items in {n} passes (the sample count of the percentiles); "
                f"unscaled: {raw[0]:.4g} items/s, p50 {raw[1]:.4g} s, p90 {raw[2]:.4g} s, "
                f"calibration median {statistics.median(run.host) * 1e6:.3g} us per iteration")

    for problem in run.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {wl.name}  seed {seed}  {note}")
    print(f"  {wl.reference_note(seed)}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':42s} {run.failed / run.attempted:14.6g} "
          f"({run.failed} of {run.attempted} items)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
