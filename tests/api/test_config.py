"""EstimatorConfig: replace/merge/resolve semantics and dtype casting."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import EstimatorConfig
from repro.parallel.backend import SerialBackend, ThreadPoolBackend


class TestValueSemantics:
    def test_frozen(self):
        cfg = EstimatorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.backend = SerialBackend()

    def test_unset_by_default(self):
        cfg = EstimatorConfig()
        assert cfg.backend is None
        assert cfg.compute_covariance is None
        assert cfg.dtype is None
        assert cfg.plan_cache is None

    def test_replace_returns_new_value(self):
        cfg = EstimatorConfig()
        nc = cfg.replace(compute_covariance=False)
        assert nc.compute_covariance is False
        assert cfg.compute_covariance is None

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            EstimatorConfig().replace(blocksize=8)


class TestMerge:
    def test_set_fields_win(self):
        base = EstimatorConfig(compute_covariance=True, dtype="mixed")
        override = EstimatorConfig(compute_covariance=False)
        merged = base.merged(override)
        assert merged.compute_covariance is False
        assert merged.dtype == "mixed"  # fell through from base

    def test_none_override_is_identity(self):
        base = EstimatorConfig(compute_covariance=False)
        assert base.merged(None) is base
        assert base.merged(EstimatorConfig()) is base

    def test_false_is_a_set_value(self):
        """``False`` must override ``True`` (tri-state, not truthiness)."""
        base = EstimatorConfig(compute_covariance=True)
        merged = base.merged(EstimatorConfig(compute_covariance=False))
        assert merged.compute_covariance is False


class TestResolve:
    def test_fills_global_defaults(self):
        resolved = EstimatorConfig().resolve()
        assert isinstance(resolved.backend, SerialBackend)
        assert resolved.compute_covariance is True
        assert resolved.plan_cache is repro.default_plan_cache()
        assert resolved.dtype is None

    def test_respects_default_compute_covariance(self):
        resolved = EstimatorConfig().resolve(
            default_compute_covariance=False
        )
        assert resolved.compute_covariance is False

    def test_call_overrides_instance_defaults(self):
        """The constructor-vs-call override logic, in one place."""
        instance = EstimatorConfig(compute_covariance=False)
        resolved = EstimatorConfig(compute_covariance=True).resolve(instance)
        assert resolved.compute_covariance is True
        # And the other way: unset call config defers to the instance.
        resolved = EstimatorConfig().resolve(instance)
        assert resolved.compute_covariance is False

    def test_plan_cache_must_be_a_cache(self):
        cache = repro.PlanCache()
        assert EstimatorConfig(plan_cache=cache).resolve().plan_cache is cache
        with pytest.raises(TypeError, match="PlanCache"):
            EstimatorConfig(plan_cache=False).resolve()

    def test_explicit_backend_survives(self):
        with ThreadPoolBackend(num_threads=2) as backend:
            resolved = EstimatorConfig(backend=backend).resolve()
            assert resolved.backend is backend


class TestDtype:
    def test_results_cast_to_requested_dtype(self):
        problem = repro.random_problem(k=4, seed=0, dims=2)
        result = repro.OddEvenSmoother().smooth(
            problem, config=EstimatorConfig(dtype=np.float32)
        )
        assert all(m.dtype == np.float32 for m in result.means)
        assert all(c.dtype == np.float32 for c in result.covariances)

    def test_batched_smooth_many_casts_too(self):
        problems = [repro.random_problem(k=k, seed=k, dims=2) for k in (3, 6)]
        results = repro.BatchSmoother().smooth_many(
            problems, config=EstimatorConfig(dtype=np.float32)
        )
        for r in results:
            assert all(m.dtype == np.float32 for m in r.means)
            assert all(c.dtype == np.float32 for c in r.covariances)

    def test_default_stays_float64(self):
        problem = repro.random_problem(k=4, seed=0, dims=2)
        result = repro.OddEvenSmoother().smooth(problem)
        assert all(m.dtype == np.float64 for m in result.means)
