"""Tests for the user-facing batched smoother.

Includes the acceptance check of the batch subsystem: 64+ random
sequences smoothed in one call must match the per-sequence odd-even
smoother's means and covariances to 1e-8.
"""

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.batch import BatchSmoother
from repro.core.smoother import OddEvenSmoother
from repro.kalman.rts import RTSSmoother
from repro.model.generators import random_problem, tracking_2d_problem
from repro.parallel.backend import (
    RecordingBackend,
    SerialBackend,
    ThreadPoolBackend,
)


def mixed_workload(count, seed=0):
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(count):
        k = int(rng.integers(1, 40))
        problems.append(
            random_problem(k=k, seed=seed + i, dims=3, random_cov=True)
        )
    return problems


class TestAcceptance:
    def test_64_sequences_match_per_sequence_oddeven(self):
        problems = mixed_workload(64)
        results = BatchSmoother().smooth_many(problems)
        ref = OddEvenSmoother()
        for problem, got in zip(problems, results):
            want = ref.smooth(problem)
            assert len(got.means) == problem.n_states
            for i in range(problem.n_states):
                np.testing.assert_allclose(
                    got.means[i], want.means[i], atol=1e-8, rtol=0
                )
                np.testing.assert_allclose(
                    got.covariances[i],
                    want.covariances[i],
                    atol=1e-8,
                    rtol=0,
                )
            assert got.residual_sq == pytest.approx(
                want.residual_sq, rel=1e-8, abs=1e-10
            )


class TestBehaviour:
    def test_results_in_caller_order(self):
        problems = mixed_workload(10, seed=3)
        results = BatchSmoother().smooth_many(problems)
        for problem, got in zip(problems, results):
            assert len(got.means) == problem.n_states
            assert got.algorithm == "batch-odd-even"
            assert got.diagnostics["batch"] >= 1

    def test_empty_workload(self):
        assert BatchSmoother().smooth_many([]) == []

    def test_single_problem_convenience(self):
        problem = random_problem(k=5, seed=2, dims=3)
        got = BatchSmoother().smooth(problem)
        want = OddEvenSmoother().smooth(problem)
        for a, b in zip(got.means, want.means):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_nc_variant_skips_covariances(self):
        results = BatchSmoother(compute_covariance=False).smooth_many(
            mixed_workload(5, seed=1)
        )
        assert all(r.covariances is None for r in results)
        assert all(r.algorithm == "batch-odd-even-nc" for r in results)

    def test_no_prior_problems_supported(self):
        problems = [
            random_problem(k=6, seed=s, dims=3, with_prior=False)
            for s in range(3)
        ]
        results = BatchSmoother().smooth_many(problems)
        ref = OddEvenSmoother()
        for problem, got in zip(problems, results):
            want = ref.smooth(problem)
            for i in range(problem.n_states):
                np.testing.assert_allclose(
                    got.means[i], want.means[i], atol=1e-8
                )

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            BatchSmoother(method="magic")

    def test_rank_deficient_sequence_is_attributed(self):
        from repro.model.steps import Evolution, Observation, Step

        # F = 0 leaves state 0 with zero coefficient everywhere.
        steps = [
            Step(state_dim=2),
            Step(
                state_dim=2,
                evolution=Evolution(F=np.zeros((2, 2))),
                observation=Observation(G=np.eye(2), o=np.zeros(2)),
            ),
        ]
        bad = __import__("repro").StateSpaceProblem(steps, prior=None)
        good = random_problem(k=1, seed=0, dims=2)
        with pytest.raises(
            np.linalg.LinAlgError, match=r"problem index\(es\) \[1\]"
        ):
            BatchSmoother().smooth_many([good, bad, good])


class TestAssociativeMethod:
    def test_matches_rts_per_sequence(self):
        problems = [
            random_problem(k=k, seed=k, dims=3, random_cov=True)
            for k in (4, 9, 4, 17)
        ]
        results = BatchSmoother(method="associative").smooth_many(
            problems
        )
        rts = RTSSmoother()
        for problem, got in zip(problems, results):
            want = rts.smooth(problem)
            assert got.algorithm == "batch-associative"
            for i in range(problem.n_states):
                np.testing.assert_allclose(
                    got.means[i], want.means[i], atol=1e-8, rtol=0
                )
                np.testing.assert_allclose(
                    got.covariances[i],
                    want.covariances[i],
                    atol=1e-8,
                    rtol=0,
                )

    def test_requires_prior_like_its_per_sequence_twin(self):
        problem = random_problem(k=4, seed=0, dims=3, with_prior=False)
        with pytest.raises(ValueError):
            BatchSmoother(method="associative").smooth_many([problem])


class TestBackends:
    def test_threadpool_backend_matches_serial(self):
        problems = mixed_workload(8, seed=5)
        serial = BatchSmoother().smooth_many(
            problems, config=EstimatorConfig(backend=SerialBackend())
        )
        with ThreadPoolBackend(3, block_size=1) as pool:
            threaded = BatchSmoother().smooth_many(
                problems, config=EstimatorConfig(backend=pool)
            )
        for a, b in zip(serial, threaded):
            for ma, mb in zip(a.means, b.means):
                np.testing.assert_allclose(ma, mb, atol=1e-12)

    def test_recording_backend_captures_batched_costs(self):
        problems = [
            tracking_2d_problem(k=15, seed=s)[0] for s in range(6)
        ]
        rec = RecordingBackend()
        BatchSmoother().smooth_many(
            problems, config=EstimatorConfig(backend=rec)
        )
        graph = rec.graph
        assert graph.phases, "batched run recorded no phases"
        flops = sum(t.flops for ph in graph.phases for t in ph.tasks)
        assert flops > 0
        names = {ph.name for ph in graph.phases}
        assert any(name.startswith("oddeven/") for name in names)
