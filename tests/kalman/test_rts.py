"""Tests for the RTS smoother baseline."""

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.kalman.rts import RTSSmoother
from repro.model.dense import assemble_dense
from repro.model.generators import random_problem, tracking_2d_problem


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed, assert_blocks_close):
        p = random_problem(k=8, seed=seed, dims=3, random_cov=True)
        dense = assemble_dense(p)
        result = RTSSmoother().smooth(p)
        assert_blocks_close(result.means, dense.solve(), tol=1e-8)
        assert_blocks_close(
            result.covariances, dense.covariances(), tol=1e-8
        )

    def test_missing_observations(self, assert_blocks_close):
        p = random_problem(k=12, seed=5, dims=2, obs_prob=0.4)
        result = RTSSmoother().smooth(p)
        assert_blocks_close(
            result.means, assemble_dense(p).solve(), tol=1e-8
        )

    def test_varying_dims(self, assert_blocks_close):
        p = random_problem(k=5, seed=6, dims=[2, 3, 2, 4, 3, 2])
        result = RTSSmoother().smooth(p)
        assert_blocks_close(
            result.means, assemble_dense(p).solve(), tol=1e-8
        )

    def test_tracking_workload(self, assert_blocks_close):
        p, _truth = tracking_2d_problem(k=30, seed=7)
        result = RTSSmoother().smooth(p)
        assert_blocks_close(
            result.means, assemble_dense(p).solve(), tol=1e-7
        )


class TestProperties:
    def test_smoothing_reduces_variance(self):
        """Smoothed covariance <= filtered covariance (in trace)."""
        from repro.kalman.kf import KalmanFilter

        p = random_problem(k=10, seed=8, dims=2)
        filt = KalmanFilter().filter(p)
        smoothed = RTSSmoother().smooth(p)
        for i in range(10):  # last state equal by construction
            assert (
                np.trace(smoothed.covariances[i])
                <= np.trace(filt.covariances[i]) + 1e-10
            )

    def test_last_state_matches_filter(self):
        from repro.kalman.kf import KalmanFilter

        p = random_problem(k=6, seed=9, dims=3)
        filt = KalmanFilter().filter(p)
        smoothed = RTSSmoother().smooth(p)
        assert np.allclose(smoothed.means[-1], filt.means[-1], atol=1e-10)

    def test_covariances_always_computed(self):
        """§5.4: RTS cannot skip covariances, so an NC request raises."""
        p = random_problem(k=3, seed=10, dims=2)
        result = RTSSmoother().smooth(p)
        assert result.covariances is not None
        assert result.algorithm == "kalman-rts"
        with pytest.raises(ValueError, match="supports_nc"):
            RTSSmoother().smooth(
                p, config=EstimatorConfig(compute_covariance=False)
            )

    def test_requires_prior(self):
        p = random_problem(k=2, seed=11, with_prior=False)
        with pytest.raises(ValueError, match="prior"):
            RTSSmoother().smooth(p)
