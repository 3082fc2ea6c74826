"""Tests of the benchmark itself: the tracer leaves the engine as it found
it, the gates catch wrong verdicts, and the seed drives the kernel stream.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import HostSampler, Run, import_engine  # noqa: E402

spherica, _ = import_engine()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

F101 = workloads.WORKLOADS["sessions_f101"]
RANDOM = workloads.WORKLOADS["random_2of4"]


def _session_items(*names):
    sessions = dict(F101.setup(1))
    return [(n, sessions[n]) for n in names]


def test_traced_run_restores_engine_attributes():
    before = tracing.attribute_snapshot()
    tr = tracing.Tracer(tracing.spherica_targets(spherica))
    run = Run(F101, _session_items("dual_numbers"))
    with tr:
        assert tracing.attribute_snapshot() != before
        run.one_pass()
    assert tracing.attribute_snapshot() == before
    assert run.failed == 0
    # session.py imported check_conditions by name: its calls must be seen
    assert tr.stats["spherical.check_conditions"].calls >= 2
    assert tr.stats["linalg.Matrix.__mul__"].calls > 0


def test_tracer_restores_attributes_after_an_error():
    before = tracing.attribute_snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer(tracing.spherica_targets(spherica)):
            raise RuntimeError("inside the traced region")
    assert tracing.attribute_snapshot() == before


def test_tracer_counts_match_cprofile():
    """One whole pass of sessions_f101, traced and under cProfile."""
    run = Run(F101, F101.setup(1))
    run.one_pass()  # fills the engine's lazy module-level caches
    rows = tracing.crosscheck(tracing.spherica_targets(spherica), run.one_pass)
    assert rows["complexes.find_quasi_iso"][0] > 0
    assert {k: t for k, (t, _) in rows.items()} == {k: p for k, (_, p) in rows.items()}
    assert run.failed == 0


def test_host_sampler_samples_and_restores_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with HostSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    assert len(sampler.samples) >= 3 and sampler.paused > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_corrupted_report_trips_the_gate():
    item = _session_items("identity")[0]
    report = F101.run(item)
    assert F101.check(item, report) == []
    report.results[0].data["conditions"]["twist_equivalence"] = True
    assert F101.check(item, report)


def test_every_session_has_a_reference_report():
    for name in spherica.builtin_names():
        assert workloads.reference_report(name) is not None, name


def test_wrong_but_consistent_verdict_trips_the_gate():
    """All four conditions false is consistent with 2-out-of-4 and still ends
    ok; only the recorded report catches it."""
    item = _session_items("kxk")[0]
    report = F101.run(item)
    for r in report.results:
        if "conditions" in r.data:
            r.data["conditions"] = {c: False for c in r.data["conditions"]}
    assert all(r.status == "ok" for r in report.results)
    assert F101.check(item, report)


def test_corrupted_verdict_counts_as_failed():
    class Corrupting(workloads.SessionsWorkload):
        def run(self, item):
            report = super().run(item)
            report.results[-1].status = "assert-failed"
            return report

    wl = Corrupting("corrupt", "", None, rationals=False)
    run = Run(wl, _session_items("kxk"))
    run.one_pass()
    assert (run.attempted, run.failed) == (1, 1)


def test_q_report_must_match_f101():
    wl = workloads.WORKLOADS["sessions_q"]
    items = [i for i in wl.setup(1) if i[0] == "kxk"]
    report = wl.run(items[0])
    assert wl.check(items[0], report) == []
    report.results[0].data["two_out_of_four"] = "fail"
    assert wl.check(items[0], report)


def test_wrong_kernel_flags_trip_the_gate():
    state = RANDOM.setup(workloads.DEFAULT_SEED)
    item = next(iter(RANDOM.items(state)))
    flags, status = RANDOM.run(item)
    assert RANDOM.check(item, (flags, status)) == []
    flipped = tuple(not f for f in flags)
    assert RANDOM.check(item, (flipped, status))
    assert RANDOM.check(item, ((True, True, False, False), "pass"))
    # a wrong verdict that is still consistent with 2-out-of-4
    consistent = (True,) * 4 if flags == (False,) * 4 else (False,) * 4
    assert RANDOM.check(item, (consistent, status))


def test_seed_without_flag_reference_says_so():
    wl = workloads.RandomKernelsWorkload("random_2of4", "")
    wl.expected = None
    assert "no per-kernel flag reference" in wl.reference_note(999)


def test_shape_quotas_follow_the_stream():
    field = spherica.Field.prime(101)
    k = spherica.complexes.scalar_algebra(field)
    for name, make in workloads.TARGETS.items():
        b = spherica.algebra_from_quiver(make(), field, name=name)
        assert sum(workloads.shape_weights(k, b).values()) == 1
        assert sum(workloads.shape_quotas(k, b).values()) == workloads.KERNELS_PER_TARGET


def _fingerprint(kernels):
    return [(e["draw"], e["target"], e["shape"],
             [(n, e["complex"].diff_matrix(n).arr.tolist()) for n in e["complex"].degrees()])
            for e in kernels]


def test_seed_changes_the_kernel_stream():
    a, a_again, b = (workloads.draw_kernels(s) for s in (1, 1, 2))
    assert _fingerprint(a) == _fingerprint(a_again)
    assert _fingerprint(a) != _fingerprint(b)
    # every seed keeps the same number of kernels of every shape of every target
    shapes = lambda ks: sorted((e["target"], e["shape"]) for e in ks)
    assert shapes(a) == shapes(b)
    assert len(a) == len(workloads.TARGETS) * workloads.KERNELS_PER_TARGET


def test_benchmark_json_lists_what_run_prints():
    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(run.layer_units())
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
    units = {**run.END_TO_END, **run.layer_units()}
    assert all(m["unit"] == units[m["name"]] for m in doc["end_to_end"] + doc["per_layer"])
