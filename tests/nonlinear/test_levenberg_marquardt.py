"""Tests for the Levenberg–Marquardt nonlinear smoother."""

import numpy as np
import pytest

from repro.api import EstimatorConfig, SmootherBase
from repro.core.smoother import OddEvenSmoother
from repro.model.dense import dense_solve
from repro.model.generators import random_problem
from repro.model.nonlinear import coordinated_turn_problem, pendulum_problem
from repro.nonlinear import (
    GaussNewtonSmoother,
    LevenbergMarquardtSmoother,
    damp_problem,
)


class TestDamping:
    def test_zero_lambda_is_identity(self):
        p = random_problem(k=3, seed=0)
        ref = [np.zeros(n) for n in p.state_dims]
        assert damp_problem(p, ref, 0.0) is p

    def test_negative_lambda_rejected(self):
        p = random_problem(k=2, seed=1)
        ref = [np.zeros(n) for n in p.state_dims]
        with pytest.raises(ValueError):
            damp_problem(p, ref, -1.0)

    def test_damping_pulls_towards_reference(self):
        p = random_problem(k=4, seed=2)
        solution = dense_solve(p)
        ref = [np.zeros(n) for n in p.state_dims]
        heavily = dense_solve(damp_problem(p, ref, 1e8))
        for h, s, r in zip(heavily, solution, ref):
            # With huge damping the solution hugs the reference.
            assert np.linalg.norm(h - r) < np.linalg.norm(s - r)
            assert np.linalg.norm(h) < 1e-3

    def test_light_damping_barely_moves_solution(self):
        p = random_problem(k=4, seed=3)
        solution = dense_solve(p)
        damped = dense_solve(damp_problem(p, solution, 1e-8))
        for a, b in zip(damped, solution):
            assert np.allclose(a, b, atol=1e-6)

    def test_damping_rows_added_for_unobserved_states(self):
        p = random_problem(k=4, seed=4, obs_prob=0.0)
        ref = [np.zeros(n) for n in p.state_dims]
        damped = damp_problem(p, ref, 0.5)
        for step in damped.steps:
            assert step.observation is not None


class TestLMSolver:
    def test_converges_on_pendulum(self):
        problem, truth = pendulum_problem(k=100, seed=5)
        result = LevenbergMarquardtSmoother().smooth(problem)
        assert result.diagnostics["converged"]
        rmse = np.sqrt(np.mean((np.vstack(result.means) - truth) ** 2))
        assert rmse < 0.35

    def test_accepted_objectives_monotone(self):
        problem, _ = pendulum_problem(k=60, seed=6)
        result = LevenbergMarquardtSmoother().smooth(problem)
        objectives = result.diagnostics["trace"].objectives
        assert all(
            b <= a + 1e-9 for a, b in zip(objectives, objectives[1:])
        )

    def test_agrees_with_gauss_newton_on_easy_problem(self):
        problem, _ = pendulum_problem(k=50, seed=7)
        lm = LevenbergMarquardtSmoother().smooth(problem)
        gn = GaussNewtonSmoother().smooth(problem)
        assert lm.residual_sq == pytest.approx(gn.residual_sq, rel=1e-6)

    def test_coordinated_turn(self):
        problem, _ = coordinated_turn_problem(k=50, seed=8)
        result = LevenbergMarquardtSmoother().smooth(problem)
        assert result.diagnostics["converged"]

    def test_inner_runs_nc(self):
        """The damped inner solves never compute covariances — the
        optimization the paper's NC variants exist for (§5.4)."""

        calls = {"nc": 0, "cov": 0}

        class SpyInner(SmootherBase):
            name = "spy"

            def _smooth(self, problem, config):
                if config.compute_covariance:
                    calls["cov"] += 1
                else:
                    calls["nc"] += 1
                return OddEvenSmoother().smooth(problem, config=config)

        problem, _ = pendulum_problem(k=30, seed=9)
        LevenbergMarquardtSmoother(inner=SpyInner()).smooth(problem)
        assert calls["nc"] >= 1
        assert calls["cov"] == 1  # only the final covariance pass

    def test_skip_final_covariance(self):
        problem, _ = pendulum_problem(k=20, seed=10)
        result = LevenbergMarquardtSmoother().smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        assert result.covariances is None

    def test_covariances_are_those_of_the_undamped_linearization(self):
        """The iterations solve damped problems, but the reported
        covariances come from the undamped linearization at the
        solution (the damped ones differ here by about 0.15)."""
        from repro.batch import BatchSmoother

        problem, _ = pendulum_problem(k=30, seed=9)
        other, _ = pendulum_problem(k=30, seed=10)
        lm = LevenbergMarquardtSmoother(
            lambda0=1.0, lambda_down=1.0, max_iterations=3
        )
        for result in (
            lm.smooth(problem),
            lm.smooth_many([other, problem])[1],
        ):
            undamped = BatchSmoother().smooth(problem.linearize(result.means))
            for x, y in zip(result.covariances, undamped.covariances):
                assert np.array_equal(x, y)
