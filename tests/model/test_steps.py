"""Tests for the per-step model building blocks."""

import numpy as np
import pytest

from repro.linalg.cholesky import Whitener
from repro.model.steps import Evolution, GaussianPrior, Observation, Step


class TestEvolution:
    def test_defaults(self):
        evo = Evolution(F=np.eye(3))
        assert np.array_equal(evo.H, np.eye(3))
        assert np.array_equal(evo.c, np.zeros(3))
        assert evo.K.dim == 3
        assert evo.is_identity_h()

    def test_rectangular_h(self):
        evo = Evolution(F=np.ones((2, 3)), H=np.ones((2, 4)))
        assert evo.prev_dim == 3
        assert evo.state_dim == 4
        assert not evo.is_identity_h()

    def test_h_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            Evolution(F=np.ones((2, 2)), H=np.ones((3, 2)))

    def test_c_shape_mismatch(self):
        with pytest.raises(ValueError, match="c has shape"):
            Evolution(F=np.eye(2), c=np.zeros(3))

    def test_scalar_covariance(self):
        evo = Evolution(F=np.eye(2), K=4.0)
        assert np.allclose(evo.K.covariance(), 4.0 * np.eye(2))

    def test_matrix_covariance(self):
        k = np.diag([1.0, 2.0])
        evo = Evolution(F=np.eye(2), K=k)
        assert np.allclose(evo.K.covariance(), k)

    def test_whitener_passthrough(self):
        w = Whitener.identity(2)
        evo = Evolution(F=np.eye(2), K=w)
        assert evo.K is w

    def test_whitener_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Evolution(F=np.eye(2), K=Whitener.identity(3))


class TestObservation:
    def test_basic(self):
        obs = Observation(G=np.ones((2, 3)), o=np.zeros(2))
        assert obs.rows == 2 and obs.state_dim == 3

    def test_o_shape_mismatch(self):
        with pytest.raises(ValueError, match="o has shape"):
            Observation(G=np.eye(2), o=np.zeros(3))

    def test_1d_g_promoted(self):
        obs = Observation(G=np.array([1.0, 2.0]), o=np.array([0.5]))
        assert obs.G.shape == (1, 2)

    def test_infinite_variance_rejected(self):
        """Whitening by its infinite factor would drop the row."""
        with pytest.raises(
            np.linalg.LinAlgError,
            match="observation covariance L has a non-finite entry",
        ):
            Observation(G=np.eye(3), o=np.zeros(3), L=np.diag([np.inf, 1.0, 1.0]))


class TestGaussianPrior:
    def test_as_observation(self):
        prior = GaussianPrior(mean=np.array([1.0, 2.0]), cov=2.0)
        obs = prior.as_observation()
        assert np.array_equal(obs.G, np.eye(2))
        assert np.array_equal(obs.o, [1.0, 2.0])
        assert np.allclose(obs.L.covariance(), 2.0 * np.eye(2))

    def test_cov_matrix(self):
        prior = GaussianPrior(mean=np.zeros(2), cov=np.diag([2.0, 3.0]))
        assert np.allclose(prior.cov_matrix(), np.diag([2.0, 3.0]))


class TestStep:
    def test_valid(self):
        step = Step(
            state_dim=2,
            evolution=Evolution(F=np.ones((2, 3))),
            observation=Observation(G=np.eye(2), o=np.zeros(2)),
        )
        assert step.obs_dim == 2

    def test_rejects_bad_state_dim(self):
        with pytest.raises(ValueError, match="state_dim"):
            Step(state_dim=0)

    def test_rejects_evolution_dim_mismatch(self):
        with pytest.raises(ValueError, match="evolution H maps"):
            Step(state_dim=3, evolution=Evolution(F=np.eye(2)))

    def test_rejects_observation_dim_mismatch(self):
        with pytest.raises(ValueError, match="observation G"):
            Step(
                state_dim=3,
                observation=Observation(G=np.eye(2), o=np.zeros(2)),
            )

    def test_no_observation(self):
        assert Step(state_dim=2).obs_dim == 0
