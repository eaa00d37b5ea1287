"""Tests for the incremental UltimateKalman-style API."""

import numpy as np
import pytest

from repro.api import EstimatorConfig, make_smoother
from repro.kalman.kf import KalmanFilter
from repro.kalman.rts import RTSSmoother
from repro.kalman.ultimate import UltimateKalman
from repro.model.dense import assemble_dense
from repro.model.generators import random_problem
from repro.parallel.backend import RecordingBackend


def drive(uk: UltimateKalman, problem, estimate_each=False):
    """Feed a batch problem through the incremental API."""
    estimates = []
    step0 = problem.steps[0]
    if step0.observation is not None:
        obs = step0.observation
        uk.observe(obs.G, obs.o, obs.L.covariance())
    if estimate_each and uk.is_determined():
        estimates.append(uk.estimate())
    for step in problem.steps[1:]:
        evo = step.evolution
        uk.evolve(evo.F, evo.c, evo.K.covariance(), H=evo.H)
        if step.observation is not None:
            obs = step.observation
            uk.observe(obs.G, obs.o, obs.L.covariance())
        if estimate_each and uk.is_determined():
            estimates.append(uk.estimate())
    return estimates


class TestFiltering:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_kalman_filter(self, seed):
        p = random_problem(k=12, seed=seed, dims=3, random_cov=True)
        kf = KalmanFilter().filter(p)
        uk = UltimateKalman(
            state_dim=3, prior=(p.prior.mean, p.prior.cov_matrix())
        )
        estimates = drive(uk, p, estimate_each=True)
        assert len(estimates) == 13
        for i, (mean, cov) in enumerate(estimates):
            assert np.allclose(mean, kf.means[i], atol=1e-8), i
            assert np.allclose(cov, kf.covariances[i], atol=1e-8), i

    def test_missing_observations(self):
        p = random_problem(k=10, seed=5, dims=2, obs_prob=0.4)
        kf = KalmanFilter().filter(p)
        uk = UltimateKalman(
            state_dim=2, prior=(p.prior.mean, p.prior.cov_matrix())
        )
        drive(uk, p)
        mean, cov = uk.estimate()
        assert np.allclose(mean, kf.means[-1], atol=1e-8)
        assert np.allclose(cov, kf.covariances[-1], atol=1e-8)

    def test_multiple_observations_per_step(self):
        uk = UltimateKalman(state_dim=2, prior=(np.zeros(2), np.eye(2)))
        uk.observe(np.eye(2), np.array([1.0, 0.0]))
        uk.observe(np.eye(2), np.array([0.0, 1.0]))
        mean, _cov = uk.estimate()
        # Prior at 0 plus two unit-weight observations: the mean is the
        # average of the three.
        assert np.allclose(mean, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)


class TestUnknownInitialState:
    def test_undetermined_until_enough_data(self):
        uk = UltimateKalman(state_dim=2)  # no prior
        assert not uk.is_determined()
        with pytest.raises(np.linalg.LinAlgError, match="not yet"):
            uk.estimate()
        uk.observe(np.array([[1.0, 0.0]]), np.array([3.0]))
        assert not uk.is_determined()  # one row for two unknowns
        uk.observe(np.array([[0.0, 1.0]]), np.array([4.0]))
        assert uk.is_determined()
        mean, _cov = uk.estimate()
        assert np.allclose(mean, [3.0, 4.0], atol=1e-12)

    def test_smoothing_without_prior(self):
        p = random_problem(k=8, seed=7, dims=3, with_prior=False)
        uk = UltimateKalman(state_dim=3)
        drive(uk, p)
        result = uk.smooth()
        oracle = assemble_dense(p).solve()
        for a, b in zip(result.means, oracle):
            assert np.allclose(a, b, atol=1e-8)


class TestSmoothing:
    def test_matches_batch(self):
        p = random_problem(k=15, seed=8, dims=3, random_cov=True)
        uk = UltimateKalman(
            state_dim=3, prior=(p.prior.mean, p.prior.cov_matrix())
        )
        drive(uk, p)
        result = uk.smooth()
        dense = assemble_dense(p)
        for a, b in zip(result.means, dense.solve()):
            assert np.allclose(a, b, atol=1e-8)
        for a, b in zip(result.covariances, dense.covariances()):
            assert np.allclose(a, b, atol=1e-8)

    def test_nc_smooth(self):
        p = random_problem(k=5, seed=9, dims=2)
        uk = UltimateKalman(
            state_dim=2, prior=(p.prior.mean, p.prior.cov_matrix())
        )
        drive(uk, p)
        assert uk.smooth(compute_covariance=False).covariances is None

    def test_nc_smooth_with_conventional_inner(self):
        """An RTS inner cannot skip covariances; an NC smooth still
        returns none instead of tripping its capability check."""
        p = random_problem(k=5, seed=4, dims=2)
        uk = UltimateKalman(
            state_dim=2,
            prior=(p.prior.mean, p.prior.cov_matrix()),
            smoother=RTSSmoother(),
        )
        drive(uk, p)
        assert uk.smooth(compute_covariance=False).covariances is None

    def test_config_backend_reaches_the_batch_smooth(self):
        """UltimateSmoother forwards the config's backend to the
        final batch smooth."""
        p = random_problem(k=5, seed=7, dims=2)
        backend = RecordingBackend()
        make_smoother("ultimate").smooth(
            p, config=EstimatorConfig(backend=backend)
        )
        assert backend.graph.n_tasks > 0

    def test_dimension_change(self):
        """Rectangular H through the incremental API."""
        uk = UltimateKalman(state_dim=2, prior=(np.zeros(2), np.eye(2)))
        uk.observe(np.eye(2), np.array([1.0, 2.0]))
        h = np.zeros((2, 3))
        h[:, :2] = np.eye(2)
        uk.evolve(F=np.eye(2), H=h)
        assert uk.current_dim == 3
        uk.observe(np.eye(3), np.array([1.0, 2.0, 5.0]))
        result = uk.smooth()
        assert result.means[1].shape == (3,)
        oracle = assemble_dense(uk.problem()).solve()
        for a, b in zip(result.means, oracle):
            assert np.allclose(a, b, atol=1e-9)


class TestValidation:
    def test_bad_state_dim(self):
        with pytest.raises(ValueError):
            UltimateKalman(state_dim=0)

    def test_evolve_dim_mismatch(self):
        uk = UltimateKalman(state_dim=2)
        with pytest.raises(ValueError, match="columns"):
            uk.evolve(F=np.eye(3))

    def test_observe_dim_mismatch(self):
        uk = UltimateKalman(state_dim=2)
        with pytest.raises(ValueError, match="columns"):
            uk.observe(np.eye(3), np.zeros(3))

    def test_current_index_advances(self):
        uk = UltimateKalman(state_dim=1)
        assert uk.current_index == 0
        uk.evolve(F=np.eye(1))
        assert uk.current_index == 1
