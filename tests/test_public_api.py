"""API-surface snapshot: ``repro.__all__`` and the registry contents.

Pins the public surface so additions and removals are deliberate: a
failing diff here means the change must also update this snapshot (and
the README's API section).  Every exported name must resolve, and every
registry entry must construct.
"""

import pytest

import repro

EXPECTED_ALL = [
    # repro.api — the unified estimator surface
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
    # estimators
    "AssociativeSmoother",
    "BatchSmoother",
    "GaussNewtonSmoother",
    "IteratedPosteriorLinearizationSmoother",
    "KalmanFilter",
    "LevenbergMarquardtSmoother",
    "NormalEquationsSmoother",
    "OddEvenSmoother",
    "PaigeSaundersSmoother",
    "PlanCache",
    "default_plan_cache",
    "RTSSmoother",
    "UltimateKalman",
    "UltimateSmoother",
    "extended_kalman_filter",
    # odd-even machinery
    "OddEvenR",
    "oddeven_back_substitute",
    "oddeven_factorize",
    "rollup_prefix",
    "selinv_bidiagonal",
    "selinv_oddeven",
    "solve_window",
    # observability
    "MetricsRegistry",
    "NullRegistry",
    "obs",
    # streaming
    "AdaptiveBatchController",
    "AsyncStreamServer",
    "Emission",
    "FixedLagSmoother",
    "ShardedStreamServer",
    "StreamServer",
    "StreamStep",
    # model construction
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
    # results and errors
    "SmootherResult",
    "ReorderBufferFullError",
    "UnobservableStateError",
    # parallel runtime
    "E5_2699V3",
    "GOLD_6238R",
    "GRAVITON3",
    "RecordingBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "greedy_schedule",
    "work_stealing_schedule",
    "worker_pool",
    "__version__",
]

EXPECTED_REGISTRY = [
    "associative",
    "batch-associative",
    "batch-odd-even",
    "gauss-newton",
    "ipls",
    "kalman-rts",
    "levenberg-marquardt",
    "normal-equations",
    "odd-even",
    "paige-saunders",
    "ultimate",
]


def test_all_snapshot():
    assert sorted(repro.__all__) == sorted(EXPECTED_ALL)


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


@pytest.mark.parametrize("name", EXPECTED_ALL)
def test_every_export_resolves(name):
    assert getattr(repro, name) is not None


def test_registry_snapshot():
    assert repro.registered_smoothers() == EXPECTED_REGISTRY


def test_registry_spans_the_estimator_families():
    """≥ 8 entries covering linear, batched, and nonlinear smoothing."""
    specs = [repro.smoother_spec(n) for n in repro.registered_smoothers()]
    assert len(specs) >= 8
    assert any(s.capabilities.batched for s in specs)
    assert any(s.capabilities.iterative for s in specs)
    assert any(
        not s.capabilities.batched and not s.capabilities.iterative
        for s in specs
    )
