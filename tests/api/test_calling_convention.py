"""``smooth(problem, *, config=None, **options)`` and
``smooth_many(problems, *, config=None)`` are the only call forms."""

import pytest

import repro
from repro.linalg.xp import get_backend
from repro.parallel.backend import SerialBackend


def test_removed_call_forms_fail_loudly():
    problem = repro.random_problem(k=4, seed=0, dims=2)
    smoother = repro.OddEvenSmoother()
    with pytest.raises(TypeError, match="backend"):
        smoother.smooth(problem, backend=SerialBackend())
    with pytest.raises(TypeError, match="compute_covariance"):
        smoother.smooth(problem, compute_covariance=False)
    with pytest.raises(TypeError):
        repro.BatchSmoother().smooth_many([problem], SerialBackend())
    with pytest.raises(AttributeError, match="ALL_SMOOTHERS"):
        repro.ALL_SMOOTHERS
    with pytest.raises(ValueError, match="'mirror', 'numpy', 'torch'"):
        get_backend("jax")
    with pytest.raises(ValueError, match="supports_nc"):
        repro.BatchSmoother(method="associative", compute_covariance=False)
