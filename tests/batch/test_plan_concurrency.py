"""Concurrent plan replay: threaded == serial, bit for bit.

Many threads replay one cached :class:`~repro.batch.plan.SmoothPlan`
(the serving fleet's hot path).  A plan that carried reusable stacked
buffers would let two threads hitting the same
:class:`~repro.batch.plan.PlanCache` entry write into each other's
stacks mid-flight.  These tests drive N threads through one shared
cache entry (distinct values, identical structure) and require every
threaded result to equal the serial result exactly.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.batch.plan import PlanCache, build_plan, workload_key
from repro.model.generators import random_problem


def assert_identical(a, b):
    """Bit-for-bit equality of two SmootherResult lists."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra.means) == len(rb.means)
        for ma, mb in zip(ra.means, rb.means):
            np.testing.assert_array_equal(np.asarray(ma), np.asarray(mb))
        if ra.covariances is None:
            assert rb.covariances is None
        else:
            for ca, cb in zip(ra.covariances, rb.covariances):
                np.testing.assert_array_equal(
                    np.asarray(ca), np.asarray(cb)
                )
        assert ra.residual_sq == rb.residual_sq


def workload(lengths, seed0=0, dims=3):
    return [
        random_problem(k, seed=seed0 + i, dims=dims, random_cov=True)
        for i, k in enumerate(lengths)
    ]


@contextmanager
def aggressive_preemption():
    """Shrink the GIL switch interval so thread interleavings that
    would take minutes of wall clock to hit at the default 5 ms show
    up within a few rounds."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def run_threaded(workloads, cache, *, rounds=4, dtype=None):
    """Each thread smooths its own workload through the shared cache.

    All workloads share one structure (one cache entry).  A barrier
    maximizes overlap; each thread repeats ``rounds`` times (the result
    is deterministic per workload, so every round must reproduce it).
    Returns the per-thread results of the last round.
    """
    n = len(workloads)
    barrier = threading.Barrier(n)
    results: list = [None] * n
    errors: list = []

    def work(t):
        sm = repro.BatchSmoother()
        cfg = repro.EstimatorConfig(plan_cache=cache, dtype=dtype)
        try:
            barrier.wait()
            for _ in range(rounds):
                results[t] = sm.smooth_many(workloads[t], config=cfg)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append((t, exc))

    threads = [
        threading.Thread(target=work, args=(t,)) for t in range(n)
    ]
    with aggressive_preemption():
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    assert not errors, f"threads raised: {errors}"
    return results


class TestThreadedReplayBitIdentical:
    def test_eight_threads_one_cache_entry(self):
        """The headline regression: 8 threads, one shared plan, every
        thread's answers equal its serial answers bit for bit."""
        lengths = [6, 9, 5, 7]
        workloads = [
            workload(lengths, seed0=1000 * t) for t in range(8)
        ]
        assert (
            len({workload_key(w) for w in workloads}) == 1
        ), "threads must share one cache entry for the test to bite"
        cache = PlanCache()
        # Warm the entry so every thread replays (hits) the same plan.
        repro.BatchSmoother().smooth_many(
            workloads[0], config=repro.EstimatorConfig(plan_cache=cache)
        )
        got = run_threaded(workloads, cache, rounds=5)
        sm = repro.BatchSmoother()
        for t, w in enumerate(workloads):
            want = sm.smooth_many(
                w, config=repro.EstimatorConfig(plan_cache=PlanCache())
            )
            assert_identical(want, got[t])

    def test_threads_share_one_unchanged_plan(self):
        """Threads replay the cached plan object itself: every round
        hits, and afterwards the entry is still the warmed plan, equal
        to a fresh build."""
        workloads = [workload([5, 8, 6], seed0=31 * t) for t in range(4)]
        cache = PlanCache()
        repro.BatchSmoother().smooth_many(
            workloads[0], config=repro.EstimatorConfig(plan_cache=cache)
        )
        key = workload_key(workloads[0])
        plan = cache.get(key)
        run_threaded(workloads, cache, rounds=3)
        assert cache.get(key) is plan
        assert plan == build_plan(workloads[0])
        stats = cache.stats()
        assert (stats["size"], stats["misses"]) == (1, 1)
        assert stats["hits"] == 4 * 3

    def test_mixed_precision_threads(self):
        """The float32/refined path shares plans across threads too."""
        workloads = [workload([5, 8], seed0=97 * t) for t in range(4)]
        cache = PlanCache()
        got = run_threaded(workloads, cache, rounds=3, dtype="mixed")
        sm = repro.BatchSmoother()
        for t, w in enumerate(workloads):
            want = sm.smooth_many(
                w,
                config=repro.EstimatorConfig(
                    plan_cache=PlanCache(), dtype="mixed"
                ),
            )
            assert_identical(want, got[t])

    @settings(max_examples=6, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=2, max_value=9), min_size=1, max_size=3
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_threaded_equals_serial(self, lengths, seed):
        """Hypothesis sweep over workload shapes: threaded smooth_many
        over a shared cache is bit-identical to serial execution."""
        workloads = [
            workload(lengths, seed0=seed + 37 * t) for t in range(4)
        ]
        cache = PlanCache()
        got = run_threaded(workloads, cache, rounds=3)
        sm = repro.BatchSmoother()
        for t, w in enumerate(workloads):
            want = sm.smooth_many(
                w, config=repro.EstimatorConfig(plan_cache=PlanCache())
            )
            assert_identical(want, got[t])
