"""Tests for nonlinear models and their Gauss–Newton linearization."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.model.dense import dense_solve
from repro.model.generators import random_problem
from repro.model.nonlinear import (
    NonlinearFunction,
    NonlinearProblem,
    NonlinearStep,
    bearings_only_tunnel_problem,
    coordinated_turn_problem,
    cubic_sensor_problem,
    pendulum_problem,
    pointwise,
)
from repro.model.steps import GaussianPrior


class TestNonlinearFunction:
    def test_finite_difference_jacobian(self):
        f = NonlinearFunction(
            lambda x: np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)
        )
        jac = f.jac(np.array([2.0, 3.0]))
        assert np.allclose(jac, [[4.0, 0.0], [3.0, 2.0]], atol=1e-5)

    def test_analytic_jacobian_used(self):
        f = pointwise(lambda x: x**2, jacobian=lambda x: np.diag(2 * x))
        assert np.allclose(f.jac(np.array([1.0, 2.0])), np.diag([2.0, 4.0]))

    def test_finite_difference_runs_over_the_stack(self):
        """One pair of calls per column, each on the whole stack, and
        each stacked Jacobian is the one of its point alone."""
        calls = []

        def fn(x):
            calls.append(x.shape)
            x0, x1 = x[..., 0], x[..., 1]
            return np.stack([x0 * x0 * x1, x1 * x1], axis=-1)

        f = NonlinearFunction(fn)
        points = np.random.default_rng(0).normal(size=(5, 2))
        jac = f.jac(points)
        assert calls == [(5, 2)] * 4
        assert jac.shape == (5, 2, 2)
        for x, j in zip(points, jac):
            assert np.array_equal(j, f.jac(x))

    def test_one_point_function_points_to_pointwise(self):
        """A function of one point returns the wrong leading shape on a
        stack; the error names the adapter."""
        f = NonlinearFunction(lambda x: np.array([np.sin(x[0]), x[1]]))
        with pytest.raises(ValueError, match="pointwise"):
            f(np.zeros((5, 2)))
        jac = NonlinearFunction(lambda x: x, jacobian=lambda x: np.eye(2))
        with pytest.raises(ValueError, match="pointwise"):
            jac.jac(np.zeros((5, 2)))

    def test_pointwise_evaluates_one_point_per_call(self):
        calls = []

        def fn(x):
            calls.append(x.shape)
            return np.array([x[0] * x[1]])

        f = pointwise(fn, lambda x: np.array([x[1], x[0]]))
        points = np.arange(24.0).reshape(3, 4, 2)
        assert f(points).shape == (3, 4, 1)
        assert calls == [(2,)] * 12
        # One-point Jacobians of a scalar function may come back 1-D.
        assert f.jac(points).shape == (3, 4, 1, 2)
        assert f.jac(points[0, 0]).shape == (1, 2)


GENERATORS = {
    "pendulum": pendulum_problem,
    "coordinated-turn": coordinated_turn_problem,
    "bearings": bearings_only_tunnel_problem,
    "cubic": cubic_sensor_problem,
}


@pytest.mark.parametrize("factory", GENERATORS.values(), ids=GENERATORS.keys())
class TestBenchmarkModels:
    def test_analytic_jacobians_match_fd(self, factory):
        problem, truth = factory(k=5, seed=0)
        x = truth[2]
        step = problem.steps[3]
        evo_analytic = step.evolution_fn.jac(x)
        evo_fd = NonlinearFunction(step.evolution_fn.fn).jac(x)
        assert np.allclose(evo_analytic, evo_fd, atol=1e-4)
        obs_analytic = step.observation_fn.jac(x)
        obs_fd = NonlinearFunction(step.observation_fn.fn).jac(x)
        assert np.allclose(obs_analytic, obs_fd, atol=1e-4)

    def test_objective_nonnegative(self, factory):
        problem, truth = factory(k=8, seed=1)
        assert problem.objective(list(truth)) >= 0

    def test_steps_share_one_function_of_each_kind(self, factory):
        problem, _ = factory(k=6, seed=0)
        assert len({id(s.evolution_fn) for s in problem.steps[1:]}) == 1
        assert len({id(s.observation_fn) for s in problem.steps}) == 1

    @pytest.mark.parametrize("kind", ["evolution_fn", "observation_fn"])
    def test_stack_equals_one_point_evaluations(self, factory, kind):
        """The batched function and Jacobian of a random stack equal,
        bit for bit, their evaluations at one point at a time."""
        problem, truth = factory(k=6, seed=0)
        fn = getattr(problem.steps[1], kind)
        n = truth.shape[1]
        rng = np.random.default_rng(n)
        points = truth[3] + 0.5 * rng.normal(size=(64, n))
        values, jacobians = fn(points), fn.jac(points)
        assert values.shape[0] == 64 and jacobians.shape[::2] == (64, n)
        for x, y, j in zip(points, values, jacobians):
            assert np.array_equal(y, fn(x))
            assert np.array_equal(j, fn.jac(x))
        # Sigma points come as an (N, 2n + 1, n) stack.
        assert np.array_equal(fn(points.reshape(8, 8, n)), values.reshape(8, 8, -1))
        assert np.array_equal(
            fn.jac(points.reshape(8, 8, n)), jacobians.reshape(8, 8, -1, n)
        )


def with_pointwise_functions(problem: NonlinearProblem) -> NonlinearProblem:
    """The problem with each step's model functions wrapped to evaluate
    one point per call, one wrapper per step."""

    def one_point(fn):
        return None if fn is None else pointwise(fn.fn, fn.jacobian)

    steps = [
        dataclasses.replace(
            s,
            evolution_fn=one_point(s.evolution_fn),
            observation_fn=one_point(s.observation_fn),
        )
        for s in problem.steps
    ]
    return NonlinearProblem(steps, prior=problem.prior)


@pytest.mark.parametrize("name", ["gauss-newton", "levenberg-marquardt", "ipls"])
@pytest.mark.parametrize(
    "factory",
    [pendulum_problem, bearings_only_tunnel_problem],
    ids=["pendulum", "bearings"],
)
def test_smooth_equals_the_pointwise_smooth(name, factory):
    """Stacked evaluation changes no bit of an iterated smooth."""
    problem, _ = factory(k=16, seed=3)
    smoother = repro.make_smoother(name)
    stacked = smoother.smooth(problem)
    alone = smoother.smooth(with_pointwise_functions(problem))
    assert stacked.residual_sq == alone.residual_sq
    assert stacked.diagnostics["iterations"] == alone.diagnostics["iterations"]
    for a, b in zip(stacked.means, alone.means):
        assert np.array_equal(a, b)
    for a, b in zip(stacked.covariances, alone.covariances):
        assert np.array_equal(a, b)


class TestLinearize:
    def test_linear_system_linearizes_to_itself(self):
        """Linearizing an (affine) nonlinear wrapper of a linear problem
        reproduces the linear problem's solution in one step."""
        linear = random_problem(k=3, seed=2, dims=2)
        f_mats = [s.evolution.F if s.evolution else None for s in linear.steps]
        c_vecs = [s.evolution.c if s.evolution else None for s in linear.steps]
        steps = []
        for i, s in enumerate(linear.steps):
            evo_fn = None
            if i > 0:
                evo_fn = pointwise(
                    (lambda F: lambda x: F @ x)(f_mats[i]),
                    (lambda F: lambda x: F)(f_mats[i]),
                )
            obs = s.observation
            obs_fn = None
            if obs is not None:
                obs_fn = pointwise(
                    (lambda G: lambda x: G @ x)(obs.G),
                    (lambda G: lambda x: G)(obs.G),
                )
            steps.append(
                NonlinearStep(
                    state_dim=s.state_dim,
                    evolution_fn=evo_fn,
                    evolution_cov=None if i == 0 else np.eye(2),
                    c=c_vecs[i],
                    observation_fn=obs_fn,
                    observation=None if obs is None else obs.o,
                    observation_cov=None if obs is None else np.eye(obs.rows),
                )
            )
        nl = NonlinearProblem(steps, prior=linear.prior)
        anywhere = [np.ones(2) for _ in steps]
        relinearized = nl.linearize(anywhere)
        assert np.allclose(
            np.concatenate(dense_solve(relinearized)),
            np.concatenate(dense_solve(linear)),
            atol=1e-9,
        )

    def test_linearize_length_checked(self):
        problem, _ = pendulum_problem(k=3)
        with pytest.raises(ValueError, match="trajectory"):
            problem.linearize([np.zeros(2)])

    @pytest.mark.parametrize("method", ["linearize", "objective"])
    def test_trajectory_state_shapes_checked(self, method):
        """Equations are grouped by their steps' state dimensions, so a
        state of another shape is rejected, not stacked."""
        problem, truth = pendulum_problem(k=3)
        trajectory = list(truth)
        trajectory[2] = np.zeros(3)
        with pytest.raises(ValueError, match=r"trajectory state 2 has shape \(3,\)"):
            getattr(problem, method)(trajectory)


class TestValidation:
    def test_first_step_evolution_rejected(self):
        with pytest.raises(ValueError):
            NonlinearProblem(
                [
                    NonlinearStep(
                        state_dim=1,
                        evolution_fn=NonlinearFunction(lambda x: x),
                    )
                ]
            )

    def test_missing_evolution_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            NonlinearProblem(
                [NonlinearStep(state_dim=1), NonlinearStep(state_dim=1)]
            )

    def test_observation_without_function_rejected(self):
        problem, _ = pendulum_problem(k=5, seed=0)
        problem.steps[3].observation_fn = None
        with pytest.raises(
            ValueError,
            match="step 3 has an observation but no observation function",
        ):
            NonlinearProblem(problem.steps, prior=problem.prior)

    def test_observation_function_without_data_is_a_missing_observation(self):
        problem, truth = pendulum_problem(k=5, seed=0)
        problem.steps[3].observation = None
        linear = NonlinearProblem(problem.steps, prior=problem.prior).linearize(
            list(truth)
        )
        assert linear.steps[3].observation is None
        assert linear.steps[2].observation is not None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NonlinearProblem([])

    def test_prior_enters_objective(self):
        steps = [NonlinearStep(state_dim=1)]
        p0 = NonlinearProblem(
            steps, prior=GaussianPrior(mean=np.zeros(1))
        )
        assert p0.objective([np.array([2.0])]) == pytest.approx(4.0)
