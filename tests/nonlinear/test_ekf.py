"""Tests for the extended Kalman filter."""

import numpy as np
import pytest

from repro.kalman.kf import KalmanFilter
from repro.model.generators import random_problem
from repro.model.nonlinear import (
    NonlinearProblem,
    NonlinearStep,
    pendulum_problem,
    pointwise,
)
from repro.nonlinear.ekf import extended_kalman_filter


def linear_as_nonlinear(p):
    """Wrap a linear problem as a NonlinearProblem (H = I)."""
    steps = []
    for i, s in enumerate(p.steps):
        evo_fn = None
        cov = None
        c = None
        if i > 0:
            f = s.evolution.F
            evo_fn = pointwise(
                (lambda F: lambda x: F @ x)(f), (lambda F: lambda x: F)(f)
            )
            cov = s.evolution.K.covariance()
            c = s.evolution.c
        obs_fn = obs = obs_cov = None
        if s.observation is not None:
            g = s.observation.G
            obs_fn = pointwise(
                (lambda G: lambda x: G @ x)(g), (lambda G: lambda x: G)(g)
            )
            obs = s.observation.o
            obs_cov = s.observation.L.covariance()
        steps.append(
            NonlinearStep(
                state_dim=s.state_dim,
                evolution_fn=evo_fn,
                evolution_cov=cov,
                c=c,
                observation_fn=obs_fn,
                observation=obs,
                observation_cov=obs_cov,
            )
        )
    return NonlinearProblem(steps, prior=p.prior)


class TestEKF:
    def test_reduces_to_kf_on_linear_problem(self):
        p = random_problem(k=8, seed=0, dims=3, random_cov=True)
        kf_means = KalmanFilter().filter(p).means
        ekf_means = extended_kalman_filter(linear_as_nonlinear(p))
        for a, b in zip(ekf_means, kf_means):
            assert np.allclose(a, b, atol=1e-9)

    def test_requires_prior(self):
        problem, _ = pendulum_problem(k=3)
        problem.prior = None
        with pytest.raises(ValueError, match="prior"):
            extended_kalman_filter(problem)

    def test_tracks_pendulum(self):
        problem, truth = pendulum_problem(k=150, seed=1)
        means = extended_kalman_filter(problem)
        rmse = np.sqrt(np.mean((np.vstack(means) - truth) ** 2))
        # Prior-only guess has RMSE ~ the signal scale; EKF must do
        # clearly better.
        baseline = np.sqrt(np.mean((truth - truth[0]) ** 2))
        assert rmse < 0.5 * baseline
