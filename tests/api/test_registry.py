"""SmootherRegistry: construction, capabilities, and extensibility."""

import pytest

import repro
from repro.api import (
    Capabilities,
    EstimatorConfig,
    SmootherBase,
    SmootherRegistry,
    default_registry,
    make_smoother,
    register_smoother,
    registered_smoothers,
    smoother_spec,
)

#: Every first-party algorithm the default registry must carry,
#: spanning linear, batched, and nonlinear estimators.
EXPECTED = [
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


class TestDefaultRegistry:
    def test_catalog(self):
        assert registered_smoothers() == EXPECTED
        assert len(default_registry()) == len(EXPECTED)

    @pytest.mark.parametrize("name", EXPECTED)
    def test_make_constructs_every_entry(self, name):
        smoother = make_smoother(name)
        assert isinstance(smoother, SmootherBase)
        assert smoother.name == name

    @pytest.mark.parametrize("name", EXPECTED)
    def test_spec_capabilities_match_instances(self, name):
        """The registry flags are the single source of truth — they
        must never drift from what the classes themselves declare."""
        spec = smoother_spec(name)
        assert spec.capabilities == make_smoother(name).capabilities
        assert spec.summary  # every entry documents itself

    def test_constructor_options_forwarded(self):
        smoother = make_smoother("odd-even", compute_covariance=False)
        assert smoother.compute_covariance is False
        batch = make_smoother("batch-odd-even", refine_steps=0)
        assert batch.refine_steps == 0

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="odd-even"):
            make_smoother("no-such-smoother")

    def test_entry_identity_options_cannot_be_overridden(self):
        """An entry's fixed options define its capability flags; an
        override would make the instance contradict its spec."""
        with pytest.raises(TypeError, match="fixed"):
            make_smoother("batch-odd-even", method="associative")

    def test_membership_and_iteration(self):
        registry = default_registry()
        assert "odd-even" in registry
        assert "no-such" not in registry
        assert list(registry) == EXPECTED


class TestExtensibility:
    def test_register_and_make_custom(self):
        class EchoSmoother(SmootherBase):
            name = "echo"
            capabilities = Capabilities(means_only=True)

            def _smooth(self, problem, config):
                from repro.kalman.result import SmootherResult

                return SmootherResult(
                    means=[s.state_dim * [0.0] for s in problem.steps],
                    covariances=None,
                    residual_sq=None,
                    algorithm="echo",
                )

        register_smoother(
            "echo", EchoSmoother, capabilities=EchoSmoother.capabilities
        )
        try:
            assert "echo" in default_registry()
            built = make_smoother("echo")
            assert isinstance(built, EchoSmoother)
            with pytest.raises(ValueError, match="already registered"):
                register_smoother("echo", EchoSmoother)
            # overwrite=True replaces the entry instead of raising.
            register_smoother("echo", EchoSmoother, overwrite=True)
        finally:
            default_registry().unregister("echo")
        assert "echo" not in default_registry()

    def test_isolated_registry(self):
        registry = SmootherRegistry()
        assert len(registry) == 0
        registry.register("mine", repro.OddEvenSmoother)
        assert isinstance(registry.make("mine"), repro.OddEvenSmoother)
        with pytest.raises(ValueError, match="mine"):
            registry.spec("other")

    def test_factory_must_be_callable(self):
        with pytest.raises(TypeError, match="callable"):
            SmootherRegistry().register("bad", factory=42)


class TestCapabilityEnforcement:
    def test_nc_request_on_conventional_smoother_raises(self):
        problem = repro.random_problem(k=3, seed=0, dims=2)
        for name in ("kalman-rts", "associative", "batch-associative"):
            with pytest.raises(ValueError, match="supports_nc"):
                make_smoother(name).smooth(
                    problem,
                    config=EstimatorConfig(compute_covariance=False),
                )

    def test_covariance_request_on_means_only_smoother_raises(self):
        problem = repro.random_problem(k=3, seed=0, dims=2)
        with pytest.raises(ValueError, match="means only"):
            make_smoother("normal-equations").smooth(
                problem, config=EstimatorConfig(compute_covariance=True)
            )

    def test_missing_prior_raises_named_error(self):
        problem = repro.random_problem(
            k=3, seed=0, dims=2, with_prior=False
        )
        for name in ("kalman-rts", "associative", "gauss-newton"):
            with pytest.raises(ValueError, match="prior"):
                make_smoother(name).smooth(problem)

    def test_admits_mirrors_enforcement(self):
        with_prior = repro.random_problem(k=3, seed=0, dims=2)
        without = repro.random_problem(
            k=3, seed=0, dims=2, with_prior=False
        )
        varying = repro.random_problem(k=2, seed=1, dims=[2, 3, 2])
        caps = smoother_spec("kalman-rts").capabilities
        assert caps.admits(with_prior) is None
        assert "prior" in caps.admits(without)
        assert caps.admits(varying) is not None
        qr = smoother_spec("odd-even").capabilities
        assert qr.admits(without) is None
        assert qr.admits(varying) is None

    def test_nonlinear_problem_needs_iterative_smoother(self):
        nl, _truth = repro.pendulum_problem(k=4, seed=0)
        assert repro.smoother_spec("odd-even").capabilities.admits(nl)
        assert repro.smoother_spec("kalman-rts").capabilities.admits(nl)
        assert (
            repro.smoother_spec("gauss-newton").capabilities.admits(nl)
            is None
        )
