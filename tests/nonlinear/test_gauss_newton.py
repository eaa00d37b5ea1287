"""Tests for the Gauss–Newton iterated smoother."""

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.core.smoother import OddEvenSmoother
from repro.kalman.paige_saunders import PaigeSaundersSmoother
from repro.kalman.rts import RTSSmoother
from repro.model.dense import dense_solve
from repro.model.generators import random_problem
from repro.model.nonlinear import pendulum_problem
from repro.nonlinear.gauss_newton import GaussNewtonSmoother
from tests.nonlinear.test_ekf import linear_as_nonlinear


class TestOnLinearProblems:
    def test_one_step_solves_linear_problem(self):
        """GN on a linear problem converges in a single iteration."""
        p = random_problem(k=6, seed=0, dims=3, random_cov=True)
        nl = linear_as_nonlinear(p)
        result = GaussNewtonSmoother().smooth(nl)
        oracle = dense_solve(p)
        assert result.diagnostics["iterations"] <= 2
        for a, b in zip(result.means, oracle):
            assert np.allclose(a, b, atol=1e-8)


class TestOnPendulum:
    @pytest.fixture(scope="class")
    def solved(self):
        problem, truth = pendulum_problem(k=120, seed=2)
        return problem, truth, GaussNewtonSmoother().smooth(problem)

    def test_converges(self, solved):
        _p, _t, result = solved
        assert result.diagnostics["converged"]

    def test_objective_monotone_after_first_step(self, solved):
        _p, _t, result = solved
        objectives = result.diagnostics["trace"].objectives
        # Gauss-Newton may overshoot early; the tail must descend.
        assert objectives[-1] <= objectives[1] + 1e-9

    def test_improves_on_ekf(self, solved):
        from repro.nonlinear.ekf import extended_kalman_filter

        problem, truth, result = solved
        ekf = extended_kalman_filter(problem)
        rmse_gn = np.sqrt(np.mean((np.vstack(result.means) - truth) ** 2))
        rmse_ekf = np.sqrt(np.mean((np.vstack(ekf) - truth) ** 2))
        assert rmse_gn < rmse_ekf

    def test_covariances_computed_at_solution(self, solved):
        _p, _t, result = solved
        assert result.covariances is not None
        for cov in result.covariances:
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_stationary_point(self, solved):
        """Re-linearizing at the solution and solving changes nothing."""
        problem, _t, result = solved
        linear = problem.linearize(result.means)
        resolved = OddEvenSmoother(compute_covariance=False).smooth(linear)
        for a, b in zip(result.means, resolved.means):
            assert np.allclose(a, b, atol=1e-6)


class TestConfigurations:
    def test_inner_solver_choice_does_not_matter(self):
        problem, _ = pendulum_problem(k=40, seed=3)
        a = GaussNewtonSmoother(inner=OddEvenSmoother()).smooth(problem)
        b = GaussNewtonSmoother(inner=PaigeSaundersSmoother()).smooth(problem)
        for x, y in zip(a.means, b.means):
            assert np.allclose(x, y, atol=1e-7)

    def test_explicit_initial_trajectory(self):
        problem, truth = pendulum_problem(k=30, seed=1)
        result = GaussNewtonSmoother().smooth(
            problem, initial=list(truth)
        )
        assert result.diagnostics["converged"]

    def test_line_search_variant_monotone(self):
        """The line-search smoother (ref. [17]) has a monotone
        objective trace on the batch where full GN steps stall."""
        problem, _ = pendulum_problem(k=30, seed=4)
        ls = GaussNewtonSmoother(line_search=True, max_iterations=40).smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        objectives = ls.diagnostics["trace"].objectives
        assert all(
            b <= a + 1e-9 for a, b in zip(objectives, objectives[1:])
        )
        plain = GaussNewtonSmoother(max_iterations=40).smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        assert ls.residual_sq <= plain.residual_sq + 1e-6

    def test_line_search_matches_full_steps_on_easy_problem(self):
        problem, _ = pendulum_problem(k=40, seed=1)
        ls = GaussNewtonSmoother(line_search=True).smooth(problem)
        full = GaussNewtonSmoother().smooth(problem)
        assert ls.residual_sq == pytest.approx(full.residual_sq, rel=1e-6)

    def test_undamped_gn_can_stall_where_lm_succeeds(self):
        """Motivates LM (ref. [17]): full GN steps converge only
        linearly (or stall) on some strongly nonlinear batches."""
        from repro.nonlinear.levenberg_marquardt import (
            LevenbergMarquardtSmoother,
        )

        problem, _ = pendulum_problem(k=30, seed=4)
        gn = GaussNewtonSmoother(max_iterations=20).smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        lm = LevenbergMarquardtSmoother().smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        assert lm.residual_sq <= gn.residual_sq + 1e-9

    def test_skip_covariances(self):
        problem, _ = pendulum_problem(k=20, seed=5)
        result = GaussNewtonSmoother().smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        assert result.covariances is None

    def test_conventional_inner_under_nc_config(self):
        """An RTS inner cannot skip covariances; the NC request GN
        makes for its iteration solves must not trip that capability
        check."""
        problem, _ = pendulum_problem(k=8, seed=2)
        result = GaussNewtonSmoother(inner=RTSSmoother()).smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        assert result.diagnostics["converged"]
        assert result.covariances is None

    def test_max_iterations_respected(self):
        problem, _ = pendulum_problem(k=30, seed=6)
        result = GaussNewtonSmoother(max_iterations=1).smooth(problem)
        assert result.diagnostics["iterations"] == 1
