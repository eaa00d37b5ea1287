"""Iterated posterior-linearization smoother (IPLS) tests.

IPLS must (a) collapse to the linear solution on linear problems,
(b) agree with Gauss-Newton to 1e-8 on near-linear problems, and
(c) beat a single-pass EKF-linearized solve on genuinely nonlinear
tracking scenarios — that last gap is the whole reason the iterated
sigma-point smoother exists.
"""

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.kalman.paige_saunders import PaigeSaundersSmoother
from repro.model.generators import random_problem
from repro.model.nonlinear import (
    JacobianLinearizer,
    SigmaPointLinearizer,
    bearings_only_tunnel_problem,
    cubic_sensor_problem,
    pendulum_problem,
)
from repro.nonlinear.ekf import extended_kalman_filter
from repro.nonlinear.gauss_newton import GaussNewtonSmoother
from repro.nonlinear.ipls import (
    IPLSTrace,
    IteratedPosteriorLinearizationSmoother,
)
from tests.nonlinear.test_ekf import linear_as_nonlinear


def rmse(means, truth, dims=None):
    sel = slice(None) if dims is None else slice(0, dims)
    return np.sqrt(
        np.mean(
            [(m[sel] - t[sel]) @ (m[sel] - t[sel])
             for m, t in zip(means, truth)]
        )
    )


def near_linear_problem(k, eps, seed=0):
    """Stable 2-D linear dynamics perturbed by ``eps * sin`` terms."""
    from repro.model.nonlinear import (
        NonlinearProblem,
        NonlinearStep,
        pointwise,
    )
    from repro.model.steps import GaussianPrior

    rng = np.random.default_rng(seed)
    F = np.array([[0.9, 0.1], [-0.1, 0.9]])

    def evo_fn(x):
        return F @ x + eps * np.sin(x)

    def evo_jac(x):
        return F + eps * np.diag(np.cos(x))

    def obs_fn(x):
        return x + eps * np.sin(x)

    def obs_jac(x):
        return np.eye(2) + eps * np.diag(np.cos(x))

    truth = np.zeros((k + 1, 2))
    truth[0] = [1.0, -0.5]
    steps = []
    for i in range(k + 1):
        if i > 0:
            truth[i] = evo_fn(truth[i - 1]) + 0.1 * rng.standard_normal(2)
        o = obs_fn(truth[i]) + 0.2 * rng.standard_normal(2)
        steps.append(
            NonlinearStep(
                state_dim=2,
                evolution_fn=None if i == 0 else pointwise(evo_fn, evo_jac),
                evolution_cov=None if i == 0 else 0.01 * np.eye(2),
                observation_fn=pointwise(obs_fn, obs_jac),
                observation=o,
                observation_cov=0.04 * np.eye(2),
            )
        )
    prior = GaussianPrior(mean=truth[0], cov=0.5 * np.eye(2))
    return NonlinearProblem(steps, prior=prior)


def single_pass_ekf_solve(problem):
    """One EKF-trajectory linearization, one linear solve — the
    non-iterated baseline IPLS has to beat."""
    linear = problem.linearize(extended_kalman_filter(problem))
    return PaigeSaundersSmoother().smooth(linear).means


class TestOnLinearProblems:
    def test_matches_oracle_including_covariances(self):
        p = random_problem(k=20, seed=3, dims=3, random_cov=True)
        nl = linear_as_nonlinear(p)
        oracle = PaigeSaundersSmoother().smooth(p)
        result = IteratedPosteriorLinearizationSmoother().smooth(nl)
        assert result.diagnostics["iterations"] <= 3
        for a, b in zip(result.means, oracle.means):
            np.testing.assert_allclose(a, b, atol=1e-8)
        for a, b in zip(result.covariances, oracle.covariances):
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_matches_gauss_newton_on_near_linear_problem(self):
        """With an eps-small nonlinearity, sigma-point SLR and
        Jacobian linearization see the same local model (their fixed
        points differ at O(eps * P)), so IPLS and Gauss-Newton must
        agree to 1e-8."""
        problem = near_linear_problem(k=40, eps=1e-7, seed=4)
        ipls = IteratedPosteriorLinearizationSmoother(
            tol=1e-13, obj_tol=0.0
        ).smooth(problem)
        gn = GaussNewtonSmoother(tol=1e-13).smooth(problem)
        assert ipls.diagnostics["converged"]
        for a, b in zip(ipls.means, gn.means):
            np.testing.assert_allclose(a, b, atol=1e-8)


class TestOnPendulum:
    @pytest.fixture(scope="class")
    def solved(self):
        problem, truth = pendulum_problem(k=120, seed=2)
        result = IteratedPosteriorLinearizationSmoother().smooth(problem)
        return problem, truth, result

    def test_converges(self, solved):
        _p, _t, result = solved
        assert result.diagnostics["converged"]
        assert result.diagnostics["linearizer"] == "sigma-point"

    def test_trace_records_every_iteration(self, solved):
        _p, _t, result = solved
        trace = result.diagnostics["trace"]
        assert isinstance(trace, IPLSTrace)
        assert trace.iterations == result.diagnostics["iterations"]
        assert len(trace.step_norms) == trace.iterations
        assert trace.converged

    def test_beats_single_pass_ekf_linearization(self):
        """Averaged over realizations — a single seed's RMSE ordering
        is noise; the iterated re-linearization advantage is not."""
        gaps = []
        for seed in range(4):
            problem, truth = pendulum_problem(k=120, seed=seed)
            result = IteratedPosteriorLinearizationSmoother().smooth(
                problem
            )
            gaps.append(
                rmse(single_pass_ekf_solve(problem), truth)
                - rmse(result.means, truth)
            )
        assert np.mean(gaps) > 0

    def test_covariances_positive_definite(self, solved):
        _p, _t, result = solved
        assert result.covariances is not None
        for cov in result.covariances:
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_means_only_request_skips_covariances(self):
        problem, _ = pendulum_problem(k=30, seed=0)
        result = IteratedPosteriorLinearizationSmoother().smooth(
            problem, config=EstimatorConfig(compute_covariance=False)
        )
        assert result.covariances is None

    def test_initial_trajectory_honored(self):
        problem, truth = pendulum_problem(k=30, seed=0)
        s = IteratedPosteriorLinearizationSmoother()
        warm = s.smooth(problem, initial=list(truth))
        cold = s.smooth(problem)
        # Same fixed point from both starts...
        for a, b in zip(warm.means, cold.means):
            np.testing.assert_allclose(a, b, atol=1e-6)
        # ...and the truth-started run may not need more iterations.
        assert (
            warm.diagnostics["iterations"]
            <= cold.diagnostics["iterations"]
        )


class TestOnTunnel:
    def test_converges(self):
        problem, truth = bearings_only_tunnel_problem(k=60, seed=0)
        result = IteratedPosteriorLinearizationSmoother().smooth(problem)
        assert result.diagnostics["converged"]
        assert rmse(result.means, truth, dims=2) < 0.5

    def test_beats_single_pass_ekf_linearization(self):
        gaps = []
        for seed in range(6):
            problem, truth = bearings_only_tunnel_problem(k=60, seed=seed)
            result = IteratedPosteriorLinearizationSmoother().smooth(
                problem
            )
            gaps.append(
                rmse(single_pass_ekf_solve(problem), truth, dims=2)
                - rmse(result.means, truth, dims=2)
            )
        assert np.mean(gaps) > 0


class TestOnCubicSensor:
    def test_converges_with_jacobian_and_sigma_point(self):
        problem, _ = cubic_sensor_problem(k=50)
        slr = IteratedPosteriorLinearizationSmoother().smooth(problem)
        assert slr.diagnostics["converged"]

    def test_damping_tames_the_limit_cycle(self):
        """seed=2 drives undamped IPLS into the classic period-2
        oscillation; damping shrinks the oscillation instead of
        letting it persist at full amplitude."""
        problem, _ = cubic_sensor_problem(k=50, seed=2)
        undamped = IteratedPosteriorLinearizationSmoother(
            max_iterations=40
        ).smooth(problem)
        damped = IteratedPosteriorLinearizationSmoother(
            max_iterations=40, damping=0.5
        ).smooth(problem)
        u = undamped.diagnostics["trace"].objectives
        d = damped.diagnostics["trace"].objectives
        assert abs(d[-1] - d[-2]) < abs(u[-1] - u[-2])


class TestConfiguration:
    def test_jacobian_linearizer_variant(self):
        """linearizer=JacobianLinearizer() is iterated EKS; it agrees
        with Gauss-Newton's fixed point on the pendulum."""
        problem, _ = pendulum_problem(k=60, seed=1)
        jac = IteratedPosteriorLinearizationSmoother(
            linearizer=JacobianLinearizer(), tol=1e-13, obj_tol=0.0
        ).smooth(problem)
        gn = GaussNewtonSmoother(tol=1e-13).smooth(problem)
        assert jac.diagnostics["linearizer"] == "jacobian"
        for a, b in zip(jac.means, gn.means):
            np.testing.assert_allclose(a, b, atol=1e-7)
        assert jac.covariances is not None

    def test_registry_constructs_with_options(self):
        import repro

        s = repro.make_smoother("ipls", max_iterations=7, damping=0.8)
        assert isinstance(s, IteratedPosteriorLinearizationSmoother)
        assert s.max_iterations == 7
        assert s.capabilities.iterative

    def test_custom_sigma_parameters_forwarded(self):
        lin = SigmaPointLinearizer(alpha=0.5, beta=2.0, kappa=1.0)
        s = IteratedPosteriorLinearizationSmoother(linearizer=lin)
        problem, _ = pendulum_problem(k=20, seed=0)
        result = s.smooth(problem)
        assert result.diagnostics["converged"]

    def test_damping_validated(self):
        with pytest.raises(ValueError, match="damping"):
            IteratedPosteriorLinearizationSmoother(damping=0.0)
        with pytest.raises(ValueError, match="damping"):
            IteratedPosteriorLinearizationSmoother(damping=1.5)

    def test_algorithm_string_names_the_stack(self):
        problem, _ = pendulum_problem(k=10, seed=0)
        result = IteratedPosteriorLinearizationSmoother().smooth(problem)
        assert result.algorithm == "ipls[sigma-point+batch-odd-even]"

    def test_iterations_histogram_recorded(self):
        from repro import obs

        problem, _ = pendulum_problem(k=20, seed=0)
        IteratedPosteriorLinearizationSmoother().smooth(problem)
        hist = obs.get_registry().histogram("repro_ipls_iterations")
        assert hist.count == 1
