"""Core instrument semantics: counters, gauges, histograms, spans,
registry get-or-create, and the NullRegistry swap-out."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestCounter:
    def test_inc_accumulates(self):
        c = MetricsRegistry().counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1.0)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0


class TestHistogram:
    def test_exact_aggregates_and_quantiles(self):
        h = Histogram(window=100)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == pytest.approx(5050.0)
        snap = h.snapshot()
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p99"] == pytest.approx(99.01)

    def test_reservoir_is_bounded(self):
        """The fix for the unbounded latency list: memory never exceeds
        ``window`` samples, while count/sum/min/max stay exact."""
        h = Histogram(window=16)
        for v in range(10_000):
            h.observe(float(v))
        assert len(h.samples()) == 16
        assert h.count == 10_000
        assert h.snapshot()["retained"] == 16
        assert h.snapshot()["max"] == 9999.0
        assert h.snapshot()["min"] == 0.0
        # Quantiles cover the *recent* window only.
        assert h.quantile(0.0) >= 10_000 - 16

    def test_empty_schema_is_stable(self):
        """Satellite: every field numeric, never ``None``; the same
        keys before and after the first observation."""
        h = Histogram(window=8)
        empty = h.snapshot()
        assert all(v is not None for v in empty.values())
        assert empty["count"] == 0 and empty["p99"] == 0.0
        h.observe(1.0)
        assert set(h.snapshot()) == set(empty)

    def test_quantile_validation(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            Histogram(window=0)

    def test_thread_safety_of_count_and_sum(self):
        h = Histogram(window=64)

        def worker():
            for _ in range(1000):
                h.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000
        assert h.sum == pytest.approx(4000.0)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")
        assert reg.counter("hits", shard="0") is not reg.counter(
            "hits", shard="1"
        )
        # Label order never splits a series.
        assert reg.gauge("g", a="1", b="2") is reg.gauge("g", b="2", a="1")

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_histogram_window_default(self):
        reg = MetricsRegistry(histogram_window=7)
        assert reg.histogram("h").window == 7
        assert reg.histogram("h2", window=3).window == 3

    def test_span_records_fake_clock_durations(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        with reg.span("factorize") as sp:
            clock.advance(0.25)
        assert sp.elapsed == pytest.approx(0.25)
        h = reg.histogram("factorize_seconds")
        assert h.count == 1
        assert h.snapshot()["max"] == pytest.approx(0.25)

    def test_collect_is_name_ordered(self):
        reg = MetricsRegistry()
        reg.counter("zzz")
        reg.counter("aaa")
        names = [name for _, name, _, _ in reg.collect()]
        assert names == sorted(names)


class TestProcessRegistry:
    def test_set_and_use_registry(self):
        original = get_registry()
        mine = MetricsRegistry()
        with use_registry(mine):
            assert get_registry() is mine
            obs.span("phase").__enter__()  # convenience wrapper routes here
            assert mine.histogram("phase_seconds") is not None
        assert get_registry() is original

    def test_set_registry_returns_previous(self):
        original = get_registry()
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert previous is original
            assert get_registry() is mine
        finally:
            set_registry(previous)


class TestNullRegistry:
    def test_all_instruments_are_noops(self):
        null = NullRegistry()
        assert null.enabled is False
        c = null.counter("c")
        c.inc(5)
        assert c.value == 0.0
        h = null.histogram("h")
        h.observe(1.0)
        assert h.count == 0
        assert h.samples() == []
        with null.span("s"):
            pass
        assert null.collect() == []

    def test_instrumented_code_runs_under_null_registry(self):
        """The metrics-off configuration: the hot path works unchanged."""
        import repro

        with use_registry(NullRegistry()):
            s = repro.BatchSmoother()
            problems = [
                repro.random_problem(k=5, seed=i, dims=2) for i in range(3)
            ]
            results = s.smooth_many(problems)
        assert len(results) == 3

    def test_metrics_on_overhead_is_bounded(self):
        """A live registry costs the warm plan-cached hot path less
        than 10% over the metrics-off configuration: the instruments
        are updated per call, not per sequence.  Each call is timed in
        this process's CPU time, so other processes on a shared host do
        not count, and the ratio is the median over rounds of one
        interleaved on/off pair's ratio, so a slow phase of the host
        lands on both sides of the pair it falls in."""
        import repro

        smoother = repro.BatchSmoother()
        problems = [
            repro.random_problem(k=7, seed=i, dims=4, random_cov=True)
            for i in range(64)
        ]
        config = repro.EstimatorConfig(plan_cache=repro.PlanCache())
        live, null = MetricsRegistry(), NullRegistry()

        def seconds(registry):
            with use_registry(registry):
                t0 = time.process_time()
                smoother.smooth_many(problems, config=config)
                return time.process_time() - t0

        # Build the plan and the live instruments before timing.
        seconds(null)
        seconds(live)
        off, on = [], []
        for _ in range(15):
            off.append(seconds(null))
            on.append(seconds(live))
        ratio = np.median(np.divide(on, off))
        assert ratio < 1.10, f"metrics-on overhead ratio {ratio:.3f}"
