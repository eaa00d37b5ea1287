"""Self-tests of the benchmark.

They run the workloads at smoke size only (``scale`` well below 1 and
no measured duration), so collecting this file never starts a timed
run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.stream import ShardedStreamServer

from perfbench import report, run, spans, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = 0.05
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: per-layer metrics that are counts and must repeat exactly per seed
COUNTS = (
    "linalg.qr_calls",
    "linalg.kernel_calls",
    "linalg.flops",
    "linalg.bytes",
    "batch.plan.hit_ratio",
    "batch.buckets_per_call",
    "batch.fill_ratio",
    "model.linearize.calls_per_problem",
    "nonlinear.outer_iterations",
    "nonlinear.slot_ratio",
    "stream.windows_per_flush",
    "stream.max_batch_end",
)


@pytest.fixture(autouse=True)
def _isolated():
    """Own metrics registry; leave the shared plan cache empty."""
    with obs.use_registry(obs.MetricsRegistry()):
        yield
    repro.default_plan_cache().clear()


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_spec_declares_named_metrics_with_units_and_directions():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_every_declared_workload_exists():
    assert sorted(workloads.WORKLOADS) == sorted(_names("workloads"))


def _fingerprint(w) -> list:
    """Everything a workload generated from its seed, as plain lists."""
    if isinstance(w, workloads.ServeOpen):
        arrivals, info = w.schedule(0.5)
        order = [(a.t, a.stream, a.seq, a.first, a.last) for a in arrivals] + info
        data = [s.observation.o for p in w.contents for s in p.steps if s.observation]
    elif isinstance(w, workloads.BatchMixed):
        order = [w.fleet_at(i) for i in range(3)]
        data = [s.observation.o for p in w.pool for s in p.steps if s.observation]
    elif isinstance(w, workloads.IplsFleet):
        order = [w.checked]
        data = [
            s.observation
            for fleet in w.fleets
            for p in fleet
            for s in p.steps
            if s.observation is not None
        ]
    else:
        order = []
        data = [s.observation.G for s in w.problem.steps if s.observation]
    return [order, [np.asarray(a).tolist() for a in data]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    make = workloads.WORKLOADS[name]
    assert _fingerprint(make(3, SMOKE)) == _fingerprint(make(3, SMOKE))
    assert _fingerprint(make(3, SMOKE)) != _fingerprint(make(4, SMOKE))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_in_seconds(name):
    w = workloads.WORKLOADS[name](5, SMOKE)
    t0 = time.perf_counter()
    metrics, attempted, failed, _ = run.measure(w, 1.0 if name == "serve-open" else 0.0)
    assert time.perf_counter() - t0 < 30
    assert attempted >= 1 and failed == 0
    for m in _names("end_to_end"):
        assert np.isfinite(metrics[m]) and metrics[m] > 0, m
    assert metrics["ok_frac"] == 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    first, ops, _, _ = run.trace(workloads.WORKLOADS[name](6, SMOKE), tmp_path)
    again, _, _, _ = run.trace(workloads.WORKLOADS[name](6, SMOKE), None)
    assert ops >= 1
    assert sorted(first) == sorted(_names("per_layer"))
    assert {k: first[k] for k in COUNTS} == {k: again[k] for k in COUNTS}
    assert 0.0 <= first["unattributed.share"] < 1.0
    # every span descends from a benchmark call, so no set-up work leaks
    # into the layer shares
    for path in tmp_path.glob("*.spans.jsonl"):
        recorded = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {s["sid"]: s for s in recorded}
        for s in recorded:
            while s["parent"]:
                s = by_id[s["parent"]]
            assert s["name"] == spans.ROOT


def test_perturbed_output_is_counted_as_failed():
    w = workloads.LongSeq(7, SMOKE)
    honest = w.call

    def perturbed(item):
        result = honest(item)
        result.means[0] = result.means[0] + 1e-6
        return result

    w.call = perturbed
    metrics, attempted, failed, _ = run.measure(w, 0.0)
    assert failed > 0 and metrics["ok_frac"] < 1.0


def test_perturbed_emission_is_counted_as_failed(monkeypatch):
    honest = ShardedStreamServer.poll

    def perturbed(self, now=None):
        out = honest(self, now)
        for ems in out.values():
            for em in ems:
                em.mean = em.mean + 1e-6
        return out

    monkeypatch.setattr(ShardedStreamServer, "poll", perturbed)
    _, _, failed, _ = run.measure(workloads.ServeOpen(7, SMOKE), 0.5)
    assert failed > 0


def test_self_time_subtracts_the_union_of_children():
    sp = [
        spans.Span(1, "call", 0.0, 10.0, 0, 1),
        spans.Span(2, "a", 1.0, 5.0, 1, 1),
        spans.Span(3, "b", 2.0, 6.0, 1, 2),  # overlaps a on another thread
        spans.Span(4, "c", 3.0, 4.0, 2, 1),
    ]
    self_s, incl_s = spans.self_and_inclusive(sp)
    assert self_s["call"] == pytest.approx(5.0)
    assert self_s["a"] == pytest.approx(3.0)
    assert incl_s["a"] == pytest.approx(4.0)


def test_wrappers_are_removed_after_a_traced_pass():
    import repro.batch.smoother as batch_smoother
    from repro.batch.stacking import stack_whitened
    from repro.parallel import ThreadPoolBackend

    before = ThreadPoolBackend.__dict__["map"]
    with spans.installed(spans.Recorder()):
        assert batch_smoother.stack_whitened is not stack_whitened
    assert batch_smoother.stack_whitened is stack_whitened
    assert ThreadPoolBackend.__dict__["map"] is before


def test_reference_kernel_is_timed():
    assert report.reference_kernel_ms(reps=1) > 0


def test_work_times_are_reported_at_the_nominal_host_speed(monkeypatch):
    # a host half as fast as the nominal one
    slow = 2 * report.REF_NOMINAL_S
    monkeypatch.setattr(workloads, "reference_pass", lambda: slow)
    monkeypatch.setattr(workloads, "reference_s", lambda: slow)
    metrics, _, _, notes = run.measure(workloads.LongSeq(8, SMOKE), 0.0)
    assert notes["host_scale"] == [0.5, 0.5, 0.5]
    assert metrics["states_per_s"] == pytest.approx(
        2 * notes["wall_clock"]["states_per_s"]
    )

    clock = workloads._HostClock()
    t0, real = clock(), time.perf_counter()
    time.sleep(0.05)
    worked = clock() - t0
    assert 0.5 * 0.05 <= worked <= 0.5 * (time.perf_counter() - real)
    clock.wait_until(t0 + 10.0)
    assert t0 + 10.0 <= clock() < t0 + 10.01


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-seq", "--seed", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
