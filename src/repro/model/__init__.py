"""State-space problem definitions, generators, and dense oracles."""

from .dense import DenseSystem, assemble_dense, dense_covariance, dense_solve
from .generators import (
    constant_velocity_problem,
    dimension_change_problem,
    ill_conditioned_problem,
    random_orthonormal,
    random_orthonormal_problem,
    random_problem,
    tracking_2d_problem,
)
from .nonlinear import (
    JacobianLinearizer,
    LinearizedFn,
    Linearizer,
    NonlinearFunction,
    NonlinearProblem,
    NonlinearStep,
    SigmaPointLinearizer,
    as_nonlinear,
    bearings_only_tunnel_problem,
    coordinated_turn_problem,
    cubic_sensor_problem,
    pendulum_problem,
    pointwise,
)
from .problem import StateSpaceProblem, WhitenedProblem, WhitenedStep
from .simulate import (
    innovation_whiteness,
    nees,
    nees_consistent,
    simulate_problem,
)
from .steps import Evolution, GaussianPrior, Observation, Step

__all__ = [
    "DenseSystem",
    "assemble_dense",
    "dense_covariance",
    "dense_solve",
    "constant_velocity_problem",
    "dimension_change_problem",
    "ill_conditioned_problem",
    "random_orthonormal",
    "random_orthonormal_problem",
    "random_problem",
    "tracking_2d_problem",
    "JacobianLinearizer",
    "LinearizedFn",
    "Linearizer",
    "NonlinearFunction",
    "NonlinearProblem",
    "NonlinearStep",
    "SigmaPointLinearizer",
    "as_nonlinear",
    "bearings_only_tunnel_problem",
    "coordinated_turn_problem",
    "cubic_sensor_problem",
    "pendulum_problem",
    "pointwise",
    "StateSpaceProblem",
    "WhitenedProblem",
    "WhitenedStep",
    "innovation_whiteness",
    "nees",
    "nees_consistent",
    "simulate_problem",
    "Evolution",
    "GaussianPrior",
    "Observation",
    "Step",
]
