"""Linearizer protocol: Jacobian vs sigma-point SLR, dtype honoring.

The sigma-point linearizer is statistical linear regression (SLR): it
must reproduce an affine function *exactly* for any valid unscented
parameterization (the property test below), collapse to the Jacobian
path on linear problems, and declare its covariance dependency so
callers can refuse to run it blind.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.nonlinear import (
    JacobianLinearizer,
    LinearizedFn,
    Linearizer,
    SigmaPointLinearizer,
    bearings_only_tunnel_problem,
    cubic_sensor_problem,
    pendulum_problem,
    pointwise,
)


def affine_fn(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return pointwise(lambda x: A @ x + b, lambda x: A)


class TestProtocol:
    def test_both_linearizers_satisfy_the_protocol(self):
        assert isinstance(JacobianLinearizer(), Linearizer)
        assert isinstance(SigmaPointLinearizer(), Linearizer)

    def test_needs_covariance_flags(self):
        assert JacobianLinearizer().needs_covariance is False
        assert SigmaPointLinearizer().needs_covariance is True

    def test_sigma_point_requires_a_covariance(self):
        fn = affine_fn(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="covariance"):
            SigmaPointLinearizer().linearize(fn, np.zeros(2), None)


class TestJacobianLinearizer:
    def test_matches_taylor_expansion(self):
        problem, _ = pendulum_problem(k=3, seed=0)
        fn = problem.steps[1].evolution_fn
        x0 = np.array([0.3, -0.1])
        lf = JacobianLinearizer().linearize(fn, x0)
        assert isinstance(lf, LinearizedFn)
        assert lf.omega is None
        np.testing.assert_allclose(lf.F, fn.jac(x0))
        np.testing.assert_allclose(lf.F @ x0 + lf.c, fn(x0))


class TestSigmaPointLinearizer:
    def test_weights_sum_to_one(self):
        lin = SigmaPointLinearizer(alpha=0.6, beta=2.0, kappa=1.0)
        _lam, w_mean, w_cov = lin.weights(4)
        assert w_mean.shape == (9,)
        np.testing.assert_allclose(w_mean.sum(), 1.0)
        # Covariance weights sum to 1 + (1 - alpha^2 + beta).
        np.testing.assert_allclose(
            w_cov.sum(), 1.0 + (1.0 - 0.6**2 + 2.0)
        )

    def test_degenerate_parameterization_rejected(self):
        with pytest.raises(ValueError, match="n \\+ lambda"):
            SigmaPointLinearizer(alpha=0.1, kappa=-2.0).weights(2)

    def test_sigma_points_reproduce_moments(self):
        rng = np.random.default_rng(7)
        mean = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        lin = SigmaPointLinearizer(alpha=0.9, beta=2.0, kappa=0.5)
        points = lin.sigma_points(mean, cov)
        _lam, w_mean, w_cov = lin.weights(3)
        np.testing.assert_allclose(w_mean @ points, mean, atol=1e-12)
        d = points - mean
        np.testing.assert_allclose(
            (d.T * w_cov) @ d, cov, atol=1e-12
        )

    @given(
        alpha=st.floats(0.2, 2.0),
        beta=st.floats(0.0, 3.0),
        kappa=st.floats(0.0, 3.0),
        seed=st.integers(0, 50),
    )
    def test_affine_exactness(self, alpha, beta, kappa, seed):
        """SLR recovers any affine map exactly, with zero residual
        covariance, for every valid unscented parameterization."""
        rng = np.random.default_rng(seed)
        n, m = 3, 2
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        mean = rng.normal(size=n)
        root = rng.normal(size=(n, n))
        cov = root @ root.T + 0.1 * np.eye(n)
        lin = SigmaPointLinearizer(alpha=alpha, beta=beta, kappa=kappa)
        lf = lin.linearize(affine_fn(A, b), mean, cov)
        np.testing.assert_allclose(lf.F, A, atol=1e-9)
        np.testing.assert_allclose(lf.c, b, atol=1e-9)
        assert np.max(np.abs(lf.omega)) < 1e-9

    def test_cubature_default_matches_spherical_rule(self):
        """alpha=1, beta=0, kappa=0 puts zero weight nowhere and is
        the spherical cubature rule: center weight 0, others 1/(2n)."""
        _lam, w_mean, w_cov = SigmaPointLinearizer().weights(2)
        np.testing.assert_allclose(w_mean[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(w_mean[1:], 0.25)
        np.testing.assert_allclose(w_cov, w_mean)

    def test_nonlinear_residual_is_psd(self):
        problem, _ = pendulum_problem(k=3, seed=1)
        fn = problem.steps[1].evolution_fn
        lf = SigmaPointLinearizer().linearize(
            fn, np.array([0.5, 0.2]), 0.3 * np.eye(2)
        )
        assert np.all(np.linalg.eigvalsh(lf.omega) >= -1e-12)


class TestLinearizeDispatch:
    def test_default_is_jacobian_path(self):
        problem, truth = pendulum_problem(k=10, seed=0)
        traj = [t for t in truth]
        a = problem.linearize(traj)
        b = problem.linearize(traj, linearizer=JacobianLinearizer())
        for sa, sb in zip(a.steps, b.steps):
            if sa.evolution is not None:
                assert np.array_equal(sa.evolution.F, sb.evolution.F)
                assert np.array_equal(sa.evolution.c, sb.evolution.c)
            assert np.array_equal(sa.observation.G, sb.observation.G)

    def test_sigma_point_needs_covariances(self):
        problem, truth = pendulum_problem(k=4, seed=0)
        with pytest.raises(ValueError, match="covariance"):
            problem.linearize(
                list(truth), linearizer=SigmaPointLinearizer()
            )

    def test_covariance_length_validated(self):
        problem, truth = pendulum_problem(k=4, seed=0)
        with pytest.raises(ValueError, match="covariances"):
            problem.linearize(
                list(truth),
                linearizer=SigmaPointLinearizer(),
                covariances=[np.eye(2)] * 2,
            )

    def test_sigma_point_linearization_solves(self):
        """A sigma-point linearized pendulum is a well-posed linear
        problem whose solution stays near the reference trajectory."""
        from repro.kalman.paige_saunders import PaigeSaundersSmoother

        problem, truth = pendulum_problem(k=30, seed=0)
        covs = [0.05 * np.eye(2) for _ in truth]
        linear = problem.linearize(
            list(truth),
            linearizer=SigmaPointLinearizer(),
            covariances=covs,
        )
        result = PaigeSaundersSmoother().smooth(linear)
        err = max(
            float(np.max(np.abs(m - t)))
            for m, t in zip(result.means, truth)
        )
        assert err < 1.0


class TestLinearizeDtype:
    def test_float32_request_honored_end_to_end(self):
        problem, truth = pendulum_problem(k=6, seed=0)
        linear = problem.linearize(list(truth), dtype=np.float32)
        for i, s in enumerate(linear.steps):
            if s.evolution is not None:
                assert s.evolution.F.dtype == np.float32, i
                assert s.evolution.c.dtype == np.float32, i
            assert s.observation.G.dtype == np.float32, i
            assert s.observation.o.dtype == np.float32, i
        assert linear.prior.mean.dtype == np.float32

    def test_default_stays_float64(self):
        problem, truth = pendulum_problem(k=6, seed=0)
        linear = problem.linearize(list(truth))
        for s in linear.steps:
            if s.evolution is not None:
                assert s.evolution.F.dtype == np.float64
            assert s.observation.G.dtype == np.float64

    def test_float32_close_to_float64(self):
        problem, truth = pendulum_problem(k=6, seed=0)
        a = problem.linearize(list(truth))
        b = problem.linearize(list(truth), dtype=np.float32)
        for sa, sb in zip(a.steps, b.steps):
            np.testing.assert_allclose(
                sa.observation.G, sb.observation.G, atol=1e-6
            )


class TestScenarios:
    def test_tunnel_shapes_and_observability(self):
        problem, truth = bearings_only_tunnel_problem(k=40, seed=0)
        assert truth.shape == (41, 4)
        assert len(problem.steps) == 41
        # Two stations -> two bearing rows per step.
        assert problem.steps[0].observation.shape == (2,)
        assert np.all(np.isfinite(truth))

    def test_tunnel_ekf_tracks(self):
        from repro.nonlinear.ekf import extended_kalman_filter

        problem, truth = bearings_only_tunnel_problem(k=60, seed=0)
        means = extended_kalman_filter(problem)
        rmse = np.sqrt(
            np.mean([(m[:2] - t[:2]) @ (m[:2] - t[:2])
                     for m, t in zip(means, truth)])
        )
        drift = np.sqrt(
            np.mean([(truth[0, :2] - t[:2]) @ (truth[0, :2] - t[:2])
                     for t in truth])
        )
        assert rmse < 0.5 * drift

    def test_cubic_sensor_shapes(self):
        problem, truth = cubic_sensor_problem(k=20, seed=0)
        assert truth.shape == (21, 1)
        assert len(problem.steps) == 21
        obj = problem.objective(list(truth))
        assert np.isfinite(obj)

    def test_cubic_sensor_jacobian_vanishes_at_origin(self):
        problem, _ = cubic_sensor_problem(k=2, seed=0)
        fn = problem.steps[0].observation_fn
        assert abs(fn.jac(np.zeros(1))[0, 0]) == 0.0
        # ... while SLR keeps a slope from the density's spread.
        lf = SigmaPointLinearizer().linearize(
            fn, np.zeros(1), 0.5 * np.eye(1)
        )
        assert np.all(np.isfinite(lf.F))
        assert np.all(np.linalg.eigvalsh(lf.omega) >= -1e-12)
