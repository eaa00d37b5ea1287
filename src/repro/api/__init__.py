"""repro.api — the unified estimator surface.

The paper's thesis is that one least-squares formulation unifies the
Kalman filtering/smoothing variants behind orthogonal transformations
(Gargir & Toledo 2025), and the UltimateKalman line of work shows the
value of one flexible front-end over that machinery (Toledo 2022).
This package is that front-end for the whole repository:

* :class:`EstimatorConfig` — one frozen value for execution options
  (``backend``, ``compute_covariance``, ``dtype``, ``plan_cache``,
  ``array_module``) with a single resolution path;
* :class:`Smoother` / :class:`SmootherBase` — the protocol and ABC
  giving every algorithm the one ``smooth`` / ``smooth_many``
  surface;
* :class:`Capabilities` — per-algorithm functionality flags (paper
  §6's table as data), enforced at call time;
* :class:`SmootherRegistry` / :func:`make_smoother` /
  :func:`register_smoother` — the extensible catalog of every
  algorithm.
"""

from .base import (
    Capabilities,
    Smoother,
    SmootherBase,
    call_smoother_many,
)
from .config import EstimatorConfig, ServingConfig
from .registry import (
    SmootherRegistry,
    SmootherSpec,
    coerce_smoother,
    default_registry,
    make_smoother,
    register_smoother,
    registered_smoothers,
    smoother_spec,
)

__all__ = [
    "Capabilities",
    "EstimatorConfig",
    "ServingConfig",
    "Smoother",
    "SmootherBase",
    "SmootherRegistry",
    "SmootherSpec",
    "call_smoother_many",
    "coerce_smoother",
    "default_registry",
    "make_smoother",
    "register_smoother",
    "registered_smoothers",
    "smoother_spec",
]
