"""repro — Parallel-in-Time Kalman Smoothing Using Orthogonal Transformations.

A complete reproduction of Gargir & Toledo, IPDPS 2025
(arXiv:2502.11686): the odd-even parallel QR Kalman smoother with
SelInv covariance computation, the Paige–Saunders, RTS, and
Särkkä–García-Fernández baselines, a TBB-like parallel runtime with
calibrated machine simulation, and the full benchmark harness for every
table and figure in the paper's evaluation.

Every estimator presents one surface (see :mod:`repro.api`)::

    import repro

    problem = repro.random_orthonormal_problem(n=6, k=1000, seed=0)
    smoother = repro.make_smoother("odd-even")
    result = smoother.smooth(problem)
    print(result.means[0], result.covariances[0])

    config = repro.EstimatorConfig(compute_covariance=False)
    repro.make_smoother("batch-odd-even").smooth_many(
        [problem], config=config
    )

``repro.registered_smoothers()`` lists every algorithm — linear,
batched, and nonlinear — and ``repro.smoother_spec(name).capabilities``
tells a driver what each one supports.
"""

from . import obs
from .api import (
    Capabilities,
    EstimatorConfig,
    ServingConfig,
    Smoother,
    SmootherBase,
    SmootherRegistry,
    SmootherSpec,
    default_registry,
    make_smoother,
    register_smoother,
    registered_smoothers,
    smoother_spec,
)
from .batch import BatchSmoother, PlanCache, default_plan_cache
from .core import (
    NormalEquationsSmoother,
    OddEvenR,
    OddEvenSmoother,
    oddeven_back_substitute,
    oddeven_factorize,
    rollup_prefix,
    selinv_bidiagonal,
    selinv_oddeven,
    solve_window,
)
from .errors import ReorderBufferFullError, UnobservableStateError
from .kalman import (
    AssociativeSmoother,
    KalmanFilter,
    PaigeSaundersSmoother,
    RTSSmoother,
    SmootherResult,
    UltimateKalman,
    UltimateSmoother,
)
from .model import (
    Evolution,
    GaussianPrior,
    JacobianLinearizer,
    NonlinearProblem,
    Observation,
    SigmaPointLinearizer,
    StateSpaceProblem,
    Step,
    as_nonlinear,
    bearings_only_tunnel_problem,
    constant_velocity_problem,
    cubic_sensor_problem,
    dense_covariance,
    dense_solve,
    pendulum_problem,
    random_orthonormal_problem,
    random_problem,
    tracking_2d_problem,
)
from .nonlinear import (
    GaussNewtonSmoother,
    IteratedPosteriorLinearizationSmoother,
    LevenbergMarquardtSmoother,
    extended_kalman_filter,
)
from .parallel import (
    E5_2699V3,
    GOLD_6238R,
    GRAVITON3,
    RecordingBackend,
    SerialBackend,
    ThreadPoolBackend,
    greedy_schedule,
    work_stealing_schedule,
    worker_pool,
)
from .obs import MetricsRegistry, NullRegistry
from .stream import (
    AdaptiveBatchController,
    AsyncStreamServer,
    Emission,
    FixedLagSmoother,
    ShardedStreamServer,
    StreamServer,
    StreamStep,
)

__version__ = "1.1.0"


__all__ = [
    "Capabilities",
    "EstimatorConfig",
    "ServingConfig",
    "Smoother",
    "SmootherBase",
    "SmootherRegistry",
    "SmootherSpec",
    "default_registry",
    "make_smoother",
    "register_smoother",
    "registered_smoothers",
    "smoother_spec",
    "BatchSmoother",
    "PlanCache",
    "default_plan_cache",
    "NormalEquationsSmoother",
    "OddEvenR",
    "OddEvenSmoother",
    "oddeven_back_substitute",
    "oddeven_factorize",
    "rollup_prefix",
    "selinv_bidiagonal",
    "selinv_oddeven",
    "solve_window",
    "UnobservableStateError",
    "ReorderBufferFullError",
    "MetricsRegistry",
    "NullRegistry",
    "obs",
    "AdaptiveBatchController",
    "AsyncStreamServer",
    "Emission",
    "FixedLagSmoother",
    "ShardedStreamServer",
    "StreamServer",
    "StreamStep",
    "AssociativeSmoother",
    "KalmanFilter",
    "PaigeSaundersSmoother",
    "RTSSmoother",
    "SmootherResult",
    "UltimateKalman",
    "UltimateSmoother",
    "GaussNewtonSmoother",
    "IteratedPosteriorLinearizationSmoother",
    "LevenbergMarquardtSmoother",
    "extended_kalman_filter",
    "Evolution",
    "GaussianPrior",
    "JacobianLinearizer",
    "NonlinearProblem",
    "Observation",
    "SigmaPointLinearizer",
    "StateSpaceProblem",
    "Step",
    "as_nonlinear",
    "bearings_only_tunnel_problem",
    "constant_velocity_problem",
    "cubic_sensor_problem",
    "dense_covariance",
    "dense_solve",
    "pendulum_problem",
    "random_orthonormal_problem",
    "random_problem",
    "tracking_2d_problem",
    "RecordingBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "GRAVITON3",
    "GOLD_6238R",
    "E5_2699V3",
    "greedy_schedule",
    "work_stealing_schedule",
    "worker_pool",
    "__version__",
]
