"""Nonlinear smoothing via iterated linearization (paper §2.2, §5.4)."""

from .batched import IterateState, drive_batched
from .ekf import extended_kalman_filter
from .ipls import (
    GaussNewtonSmoother,
    IteratedPosteriorLinearizationSmoother,
    IterationTrace,
    LevenbergMarquardtSmoother,
    damp_problem,
)

__all__ = [
    "extended_kalman_filter",
    "drive_batched",
    "IterateState",
    "GaussNewtonSmoother",
    "IteratedPosteriorLinearizationSmoother",
    "LevenbergMarquardtSmoother",
    "IterationTrace",
    "damp_problem",
]
