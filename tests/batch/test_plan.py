"""Plan cache: exact replay, LRU behavior, and mixed precision.

The contract under test is the one ``repro.batch.plan`` documents:
replaying a cached :class:`~repro.batch.plan.SmoothPlan` is *exact* —
a warm replay and a freshly built plan agree bit for bit, and a plan
holds no arrays — and the float32 fast path with iterative refinement
recovers float64-level means on ill-conditioned workloads.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.batch.plan import (
    PlanCache,
    build_plan,
    default_plan_cache,
    workload_key,
)
from repro.linalg.cholesky import Whitener
from repro.model.generators import ill_conditioned_problem, random_problem


def workload(lengths, seed0=0, dims=3):
    return [
        random_problem(k, seed=seed0 + i, dims=dims, random_cov=True)
        for i, k in enumerate(lengths)
    ]


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


class TestWorkloadKey:
    def test_structure_only(self):
        """Same shapes, different values -> same key."""
        a = workload([5, 7], seed0=0)
        b = workload([5, 7], seed0=100)
        assert workload_key(a) == workload_key(b)

    def test_options_and_order_matter(self):
        a = workload([5, 7])
        assert workload_key(a, exact_obs=True) != workload_key(a)
        assert workload_key(a) != workload_key(list(reversed(a)))

    def test_length_change_changes_key(self):
        assert workload_key(workload([5, 7])) != workload_key(
            workload([5, 8])
        )


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache()
        probs = workload([5, 6, 5])
        key = workload_key(probs)
        plan, hit = cache.get_or_build(key, lambda: build_plan(probs))
        assert not hit
        plan2, hit2 = cache.get_or_build(
            key, lambda: pytest.fail("builder must not run on a hit")
        )
        assert hit2 and plan2 is plan
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        workloads = [workload([k]) for k in (3, 4, 5)]
        keys = [workload_key(w) for w in workloads]
        for w, key in zip(workloads, keys):
            cache.get_or_build(key, lambda w=w: build_plan(w))
        assert len(cache) == 2
        assert keys[0] not in cache  # least recently used went first
        assert keys[1] in cache and keys[2] in cache
        assert cache.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        workloads = [workload([k]) for k in (3, 4, 5)]
        keys = [workload_key(w) for w in workloads]
        for w, key in zip(workloads[:2], keys[:2]):
            cache.get_or_build(key, lambda w=w: build_plan(w))
        cache.get_or_build(keys[0], lambda: pytest.fail("hit expected"))
        cache.get_or_build(keys[2], lambda: build_plan(workloads[2]))
        assert keys[0] in cache and keys[1] not in cache

    def test_clear(self):
        cache = PlanCache()
        probs = workload([4])
        cache.get_or_build(workload_key(probs), lambda: build_plan(probs))
        cache.clear()
        assert len(cache) == 0 and cache.misses == 0

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_default_cache_is_a_singleton(self):
        assert default_plan_cache() is default_plan_cache()


def _leaves(value, seen=None):
    """Every object reachable from ``value`` through dataclass fields
    and containers (a plan's whole recorded state)."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if dataclasses.is_dataclass(value):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        children = list(getattr(value, "__dict__", {}).values())
    for child in children:
        yield from _leaves(child, seen)


class TestPlanHoldsNoArrays:
    def test_plan_records_bucket_membership_only(self):
        """After a replay through it, a mixed fleet's plan still holds
        no array and no whitener, and the cache reports no workspace
        footprint: there is nothing a call could write into."""
        probs = workload([5, 9, 12, 30], dims=3) + workload(
            [7, 16], seed0=40, dims=2
        )
        cache = PlanCache()
        key = workload_key(probs)
        plan, _ = cache.get_or_build(key, lambda: build_plan(probs))
        repro.BatchSmoother().smooth_many(
            probs, config=repro.EstimatorConfig(plan_cache=cache)
        )
        assert cache.get(key) is plan
        assert len(plan.buckets) > 1
        for leaf in _leaves(plan):
            assert not isinstance(leaf, (np.ndarray, Whitener)), leaf
        assert "workspace_bytes" not in cache.stats()


class TestBuildPlan:
    def test_plan_is_frozen_and_rebuilds_equal(self):
        """No caller can change a shared plan, and a rebuild of the
        same workload records the same decisions."""
        probs = workload([5, 9, 6])
        plan = build_plan(probs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.buckets = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.buckets[0].n_states = 1
        assert build_plan(probs) == plan

    def test_associative_plans_split_on_observation_rows(self):
        """The associative method stacks raw standard forms, so its
        plans (``exact_obs``) keep differing observation rows apart;
        odd-even plans zero-pad them into one bucket."""
        dense = random_problem(k=6, seed=1, dims=2)
        sparse = random_problem(k=6, seed=2, dims=2, obs_prob=0.4)
        assert len(build_plan([dense, sparse]).buckets) == 1
        exact = build_plan([dense, sparse], exact_obs=True)
        assert [b.indices for b in exact.buckets] == [(0,), (1,)]


class TestPlannedReplayExact:
    """Warm replays and freshly built plans agree bit for bit."""

    @pytest.mark.parametrize("dtype", [None, "mixed", np.float32])
    def test_warm_replay_is_bit_for_bit(self, dtype):
        probs = workload([5, 9, 5, 7, 12])
        sm = repro.BatchSmoother()
        cache = PlanCache()
        cold = sm.smooth_many(
            probs,
            config=repro.EstimatorConfig(dtype=dtype, plan_cache=PlanCache()),
        )
        planned = sm.smooth_many(
            probs,
            config=repro.EstimatorConfig(dtype=dtype, plan_cache=cache),
        )
        assert sm.last_diagnostics["plan_cache"]["hit"] is False
        warm = sm.smooth_many(
            probs,
            config=repro.EstimatorConfig(dtype=dtype, plan_cache=cache),
        )
        assert sm.last_diagnostics["plan_cache"]["hit"] is True
        assert_identical(cold, planned)
        assert_identical(planned, warm)

    def test_replay_with_different_values_same_structure(self):
        """A warm plan must not leak one workload's numbers into the
        next: same key, fresh values, fresh answers."""
        cache = PlanCache()
        sm = repro.BatchSmoother()
        first = workload([5, 7, 6], seed0=0)
        second = workload([5, 7, 6], seed0=50)
        assert workload_key(first) == workload_key(second)
        sm.smooth_many(
            first, config=repro.EstimatorConfig(plan_cache=cache)
        )
        got = sm.smooth_many(
            second, config=repro.EstimatorConfig(plan_cache=cache)
        )
        assert sm.last_diagnostics["plan_cache"]["hit"] is True
        want = sm.smooth_many(
            second, config=repro.EstimatorConfig(plan_cache=PlanCache())
        )
        assert_identical(want, got)

    @settings(max_examples=15, deadline=None)
    @given(
        lengths=st.lists(
            st.integers(min_value=2, max_value=17), min_size=1, max_size=5
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_plan_replay_exact(self, lengths, seed):
        probs = workload(lengths, seed0=seed)
        sm = repro.BatchSmoother()
        cache = PlanCache()
        cfg = repro.EstimatorConfig(plan_cache=cache)
        planned = sm.smooth_many(probs, config=cfg)
        warm = sm.smooth_many(probs, config=cfg)
        cold = sm.smooth_many(
            probs, config=repro.EstimatorConfig(plan_cache=PlanCache())
        )
        assert_identical(cold, planned)
        assert_identical(planned, warm)

    def test_associative_method_plans_too(self):
        probs = workload([5, 5, 9])
        sm = repro.BatchSmoother(method="associative")
        cache = PlanCache()
        cfg = repro.EstimatorConfig(plan_cache=cache)
        planned = sm.smooth_many(probs, config=cfg)
        warm = sm.smooth_many(probs, config=cfg)
        assert sm.last_diagnostics["plan_cache"]["hit"] is True
        cold = sm.smooth_many(
            probs, config=repro.EstimatorConfig(plan_cache=PlanCache())
        )
        assert_identical(cold, planned)
        assert_identical(planned, warm)


class TestDiagnostics:
    def test_phase_timings_and_cache_outcome(self):
        probs = workload([6, 6])
        sm = repro.BatchSmoother()
        cache = PlanCache()
        sm.smooth_many(probs, config=repro.EstimatorConfig(plan_cache=cache))
        diag = sm.last_diagnostics
        assert diag["plan_cache"]["hit"] is False
        assert diag["workload"] == 2
        phases = diag["phases"]
        assert phases["stack"] > 0 and phases["factorize"] > 0
        assert phases["refine"] == 0.0  # float64 run: no refinement
        assert diag["total_s"] > 0

    def test_smoother_reports_cache_stats(self):
        probs = workload([5, 6])
        cache = PlanCache()
        sm = repro.BatchSmoother()
        cfg = repro.EstimatorConfig(plan_cache=cache)
        sm.smooth_many(probs, config=cfg)
        sm.smooth_many(probs, config=cfg)
        assert sm.last_diagnostics["plan_cache"] == {
            "hit": True,
            **cache.stats(),
        }
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_smooth_many_rejects_a_disabled_cache(self):
        """Every call plans; ``plan_cache=False`` is no longer a mode."""
        with pytest.raises(TypeError, match="PlanCache"):
            repro.BatchSmoother().smooth_many(
                workload([4]), config=repro.EstimatorConfig(plan_cache=False)
            )


class TestMixedPrecision:
    """float32 solve + float64 refinement (EstimatorConfig.dtype)."""

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    def test_refined_means_match_float64_on_stability_suite(self, cond):
        """The acceptance bar: 1e-8 agreement with the float64
        pipeline on ill-conditioned (results/stability.json-style)
        workloads."""
        probs = [
            ill_conditioned_problem(n=4, k=15, cond=cond, seed=s)
            for s in range(4)
        ]
        sm = repro.BatchSmoother()
        r64 = sm.smooth_many(
            probs, config=repro.EstimatorConfig(plan_cache=PlanCache())
        )
        rmx = sm.smooth_many(
            probs,
            config=repro.EstimatorConfig(dtype="mixed", plan_cache=PlanCache()),
        )
        assert sm.last_diagnostics["phases"]["refine"] > 0
        for a, b in zip(r64, rmx):
            for ma, mb in zip(a.means, b.means):
                assert mb.dtype == np.float64
                scale = max(1.0, float(np.max(np.abs(ma))))
                np.testing.assert_allclose(
                    mb, ma, atol=1e-8 * scale, rtol=1e-8
                )
            assert np.isclose(
                a.residual_sq, b.residual_sq, rtol=1e-6, atol=1e-8
            )

    @pytest.mark.parametrize("cond", [1e4, 1e6])
    def test_mixed_covariances_match_float64_pipeline(self, cond):
        """The covariance-gap fix: in ``dtype="mixed"``, SelInv runs
        off a float64 re-factorization, so covariances agree with the
        float64 pipeline at 1e-10 even at cond 1e6 (the raw float32
        factor is orders of magnitude worse there)."""
        probs = [
            ill_conditioned_problem(n=4, k=15, cond=cond, seed=s)
            for s in range(3)
        ]
        sm = repro.BatchSmoother()
        r64 = sm.smooth_many(
            probs, config=repro.EstimatorConfig(plan_cache=PlanCache())
        )
        rmx = sm.smooth_many(
            probs,
            config=repro.EstimatorConfig(dtype="mixed", plan_cache=PlanCache()),
        )
        assert sm.last_diagnostics["phases"]["cov_refine"] > 0
        for a, b in zip(r64, rmx):
            assert b.diagnostics["cov_dtype"] == "float64"
            for ca, cb in zip(a.covariances, b.covariances):
                assert cb.dtype == np.float64
                scale = max(1.0, float(np.max(np.abs(ca))))
                np.testing.assert_allclose(
                    cb, ca, atol=1e-10 * scale, rtol=1e-10
                )

    def test_means_only_mixed_skips_covariance_refinement(self):
        probs = [ill_conditioned_problem(n=3, k=9, cond=1e4, seed=0)]
        sm = repro.BatchSmoother(compute_covariance=False)
        out = sm.smooth_many(
            probs,
            config=repro.EstimatorConfig(dtype="mixed", plan_cache=PlanCache()),
        )
        assert sm.last_diagnostics["phases"]["cov_refine"] == 0.0
        assert out[0].covariances is None
        assert out[0].diagnostics["cov_dtype"] is None

    def test_refinement_beats_raw_float32(self):
        probs = [ill_conditioned_problem(n=4, k=15, cond=1e4, seed=7)]
        r64 = repro.BatchSmoother().smooth_many(
            probs, config=repro.EstimatorConfig(plan_cache=PlanCache())
        )
        cfg = repro.EstimatorConfig(dtype="mixed", plan_cache=PlanCache())
        raw = repro.BatchSmoother(refine_steps=0).smooth_many(
            probs, config=cfg
        )
        refined = repro.BatchSmoother(refine_steps=1).smooth_many(
            probs, config=cfg
        )

        def err(res):
            return max(
                float(np.max(np.abs(m - m64)))
                for m, m64 in zip(res.means, r64[0].means)
            )

        assert err(refined[0]) < 1e-3 * err(raw[0])

    def test_float32_dtype_returns_float32(self):
        """np.float32 keeps the historical output contract (float32
        arrays) while the solve goes through the refined fast path."""
        probs = workload([6, 9])
        sm = repro.BatchSmoother()
        out = sm.smooth_many(
            probs,
            config=repro.EstimatorConfig(
                dtype=np.float32, plan_cache=PlanCache()
            ),
        )
        for r in out:
            assert all(m.dtype == np.float32 for m in r.means)
            assert all(c.dtype == np.float32 for c in r.covariances)
            assert r.diagnostics["solve_dtype"] == "float32"
            assert r.diagnostics["refine_steps"] == 1

    def test_rejects_negative_refine_steps(self):
        with pytest.raises(ValueError):
            repro.BatchSmoother(refine_steps=-1)

    def test_solve_and_output_dtype_mapping(self):
        cfg = repro.EstimatorConfig()
        assert cfg.solve_dtype is None and cfg.output_dtype is None
        cfg = repro.EstimatorConfig(dtype="mixed")
        assert cfg.solve_dtype == np.float32
        assert cfg.output_dtype == np.float64
        cfg = repro.EstimatorConfig(dtype=np.float32)
        assert cfg.solve_dtype == np.float32
        assert cfg.output_dtype == np.dtype(np.float32)
        cfg = repro.EstimatorConfig(dtype=np.float16)
        assert cfg.solve_dtype is None
        assert cfg.output_dtype == np.dtype(np.float16)
