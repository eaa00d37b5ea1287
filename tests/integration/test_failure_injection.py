"""Failure injection: every invalid input dies loudly and descriptively."""

import numpy as np
import pytest

from repro.core.smoother import OddEvenSmoother
from repro.errors import UnobservableStateError
from repro.kalman.associative import AssociativeSmoother
from repro.kalman.paige_saunders import PaigeSaundersSmoother
from repro.kalman.rts import RTSSmoother
from repro.kalman.ultimate import UltimateKalman
from repro.linalg.cholesky import Whitener
from repro.model.generators import random_problem
from repro.model.nonlinear import (
    NonlinearProblem,
    NonlinearStep,
    pointwise,
)
from repro.model.problem import StateSpaceProblem
from repro.model.steps import Evolution, GaussianPrior, Observation, Step
from repro.nonlinear.ekf import extended_kalman_filter
from repro.stream import FixedLagSmoother

ALL_SMOOTHERS = [
    OddEvenSmoother(),
    PaigeSaundersSmoother(),
    RTSSmoother(),
    AssociativeSmoother(),
]


class TestSingularCovariances:
    """§6: the QR-based smoothers require nonsingular K_i/L_i and must
    reject singular ones at construction with a clear message."""

    def test_singular_evolution_covariance(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            Evolution(F=np.eye(2), K=singular)

    def test_singular_observation_covariance(self):
        singular = np.zeros((2, 2))
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            Observation(G=np.eye(2), o=np.zeros(2), L=singular)

    def test_asymmetric_covariance(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="symmetric"):
            Evolution(F=np.eye(2), K=bad)

    def test_negative_scalar_variance(self):
        with pytest.raises((np.linalg.LinAlgError, ValueError)):
            Observation(G=np.eye(1), o=np.zeros(1), L=-1.0)


class TestRankDeficiency:
    @pytest.mark.parametrize(
        "smoother",
        [OddEvenSmoother(), PaigeSaundersSmoother()],
        ids=["odd-even", "paige-saunders"],
    )
    def test_undetermined_states_reported(self, smoother):
        p = random_problem(
            k=4, seed=0, obs_prob=0.0, with_prior=False
        )
        p.steps[0].observation = None
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            smoother.smooth(p)

    def test_underdetermined_observations_alone(self):
        # Only 1-d observations of a 3-d state, no prior, no evolution
        # info at step 0: underdetermined at column 0.
        steps = [
            Step(
                state_dim=3,
                observation=Observation(
                    G=np.ones((1, 3)), o=np.zeros(1)
                ),
            ),
            Step(state_dim=3, evolution=Evolution(F=np.eye(3))),
        ]
        p = StateSpaceProblem(steps)
        # Both states are underdetermined; must not return garbage.
        with pytest.raises(np.linalg.LinAlgError):
            OddEvenSmoother().smooth(p)


class TestDimensionMismatches:
    def test_evolution_chain_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            StateSpaceProblem(
                [
                    Step(state_dim=2),
                    Step(state_dim=3, evolution=Evolution(F=np.eye(3))),
                ]
            )

    def test_prior_mismatch(self):
        with pytest.raises(ValueError, match="prior"):
            StateSpaceProblem(
                [Step(state_dim=2)],
                prior=GaussianPrior(mean=np.zeros(5)),
            )


class TestResultErrors:
    def test_stddevs_on_nc_result(self):
        p = random_problem(k=3, seed=1)
        result = OddEvenSmoother(compute_covariance=False).smooth(p)
        with pytest.raises(ValueError, match="NC mode"):
            result.stddevs()

    def test_stacked_means_varying_dims(self):
        p = random_problem(k=2, seed=2, dims=[2, 3, 2])
        result = OddEvenSmoother(compute_covariance=False).smooth(p)
        with pytest.raises(ValueError, match="varying"):
            result.stacked_means()

    def test_stacked_means_uniform(self):
        p = random_problem(k=2, seed=3, dims=2)
        result = OddEvenSmoother(compute_covariance=False).smooth(p)
        assert result.stacked_means().shape == (3, 2)

    def test_stddevs_shape(self):
        p = random_problem(k=2, seed=4, dims=3)
        result = OddEvenSmoother().smooth(p)
        assert all(s.shape == (3,) for s in result.stddevs())


class TestUnobservableWindows:
    """Unobservable states/windows on the incremental paths raise a
    ValueError naming the step index, never a bare LAPACK error."""

    def test_estimate_names_undetermined_state(self):
        uk = UltimateKalman(state_dim=3)  # no prior
        uk.observe(np.ones((1, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="state 0"):
            uk.estimate()
        uk.evolve(F=np.eye(3))
        with pytest.raises(ValueError, match="state 1"):
            uk.estimate()
        # The specific subclass is catchable too (and is still a
        # LinAlgError for older callers).
        with pytest.raises(UnobservableStateError):
            uk.estimate()
        with pytest.raises(np.linalg.LinAlgError):
            uk.estimate()

    def test_incremental_smooth_names_window(self):
        uk = UltimateKalman(state_dim=2)  # no prior, 1-d observations
        uk.observe(np.eye(1, 2), np.zeros(1))
        uk.evolve(F=np.eye(2))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            uk.smooth()

    def test_fixed_lag_window_failure_names_global_steps(self):
        """After forgetting, the window indices named are global ones
        (the local window starts at 0 internally)."""
        fls = FixedLagSmoother(2, lag=2, auto_emit=False)
        rng = np.random.default_rng(0)
        for i in range(6):
            if i > 0:
                fls.evolve(F=np.eye(2))
            fls.observe(np.eye(2), rng.standard_normal(2))
        fls.flush_window()
        # Extend the rolled-up window with steps that destroy
        # observability: huge-noise evolutions and no observations
        # cannot happen (evolution chains keep rank) — instead shrink
        # into a wider state the old data cannot determine.
        h = np.zeros((2, 4))
        h[:, :2] = np.eye(2)
        fls.evolve(F=np.eye(2), H=h)  # 4-d state, only 2 rows of info
        # Window is global states [4, 6] after the rollup.
        with pytest.raises(ValueError, match=r"\[4, 6\]"):
            fls.flush_window()
        with pytest.raises(ValueError, match=r"\[4, 6\]"):
            fls.finalize()

    def test_ekf_singular_innovation_names_step(self):
        """A sensor whose linearization vanishes and whose noise
        covariance is zero makes the EKF innovation covariance
        singular at a known step; the error must say so instead of
        surfacing a LAPACK message."""
        identity = pointwise(lambda x: x, lambda x: np.eye(x.shape[0]))
        dead_sensor = pointwise(lambda x: np.zeros(1), lambda x: np.zeros((1, 2)))
        steps = [
            NonlinearStep(
                state_dim=2,
                observation_fn=identity,
                observation=np.zeros(2),
                observation_cov=np.eye(2),
            ),
            NonlinearStep(
                state_dim=2,
                evolution_fn=identity,
                evolution_cov=np.eye(2),
                observation_fn=dead_sensor,
                observation=np.zeros(1),
                observation_cov=np.zeros((1, 1)),
            ),
        ]
        problem = NonlinearProblem(
            steps,
            prior=GaussianPrior(mean=np.zeros(2), cov=np.eye(2)),
        )
        with pytest.raises(ValueError, match="step 1"):
            extended_kalman_filter(problem)
        with pytest.raises(UnobservableStateError, match="innovation"):
            extended_kalman_filter(problem)


class TestNaNPropagationGuard:
    """Non-finite data fails by step and field, never as NaN estimates.

    ``odd-even`` and ``batch-odd-even`` used to return all-NaN means for
    a NaN observation or control, and to blame a NaN or infinite matrix
    entry on a singular ``R`` block of another step.
    """

    def test_nan_observation_caught_at_solve(self):
        p = random_problem(k=3, seed=5, dims=2)
        p.steps[1].observation.o[0] = np.nan
        smoother = OddEvenSmoother(compute_covariance=False)
        with pytest.raises(ValueError, match="step 1 has a non-finite observation o"):
            smoother.smooth(p)

    CASES = {
        "observation o": lambda p: p.steps[6].observation.o.__setitem__(0, np.nan),
        "observation G": lambda p: p.steps[6].observation.G.__setitem__((0, 0), np.inf),
        "evolution F": lambda p: p.steps[6].evolution.F.__setitem__((1, 1), np.nan),
        "evolution H": lambda p: p.steps[6].evolution.H.__setitem__((2, 0), -np.inf),
        "evolution c": lambda p: p.steps[6].evolution.c.__setitem__(0, np.nan),
    }

    @staticmethod
    def poisoned(field):
        p = random_problem(k=12, seed=5, dims=3, random_cov=True)
        TestNaNPropagationGuard.CASES[field](p)
        return p

    @pytest.mark.parametrize("covariance", [True, False])
    @pytest.mark.parametrize("field", sorted(CASES))
    def test_odd_even_names_step_and_field(self, field, covariance):
        smoother = OddEvenSmoother(compute_covariance=covariance)
        with pytest.raises(ValueError, match=f"step 6 has a non-finite {field}"):
            smoother.smooth(self.poisoned(field))

    @pytest.mark.parametrize(
        "name", ["gauss-newton", "levenberg-marquardt", "ipls"]
    )
    @pytest.mark.parametrize("field", sorted(CASES))
    def test_iterated_smoothers_name_step_and_field(self, field, name):
        """A linear problem reaches GN, LM and IPLS as linear maps, which
        used to hide a non-finite ``F``, ``G`` or ``H`` until the EKF
        start or a solve failed on a singular matrix."""
        import repro

        smoother = repro.make_smoother(name)
        with pytest.raises(ValueError, match=f"step 6 has a non-finite {field}"):
            smoother.smooth(self.poisoned(field))

    @pytest.mark.parametrize(
        "name", ["gauss-newton", "levenberg-marquardt", "ipls"]
    )
    @pytest.mark.parametrize("field", sorted(CASES))
    def test_iterated_smooth_many_names_problem_and_smoother(self, field, name):
        import repro

        fleet = [random_problem(12, seed=1, dims=3, random_cov=True)]
        fleet.append(self.poisoned(field))
        with pytest.raises(
            ValueError,
            match=rf"problem index 1 .*step 6 has a non-finite {field}; "
            rf"the {name} smoother",
        ):
            repro.make_smoother(name).smooth_many(fleet)

    @pytest.mark.parametrize(
        "name, smoother",
        [
            ("batch-odd-even", "the batched odd-even smoother"),
            ("batch-associative", "the batched associative smoother"),
        ],
    )
    @pytest.mark.parametrize("field", sorted(CASES))
    def test_batch_smooth_names_the_smoother_not_an_index(self, field, name, smoother):
        """A single smooth is no workload: its error names the batched
        smoother and no problem index."""
        import repro

        with pytest.raises(
            ValueError,
            match=rf"^step 6 has a non-finite {field}; {smoother} needs finite data$",
        ):
            repro.make_smoother(name).smooth(self.poisoned(field))

    @pytest.mark.parametrize("dtype", [None, "mixed"])
    @pytest.mark.parametrize("field", sorted(CASES))
    def test_smooth_many_names_problem_step_and_field(self, field, dtype):
        from repro.api import EstimatorConfig
        from repro.batch import BatchSmoother

        fleet = [
            random_problem(12, seed=s, dims=3, random_cov=True)
            for s in (1, 2)
        ]
        fleet.insert(1, self.poisoned(field))
        with pytest.raises(
            ValueError,
            match=rf"problem index 1 .*step 6 has a non-finite {field}",
        ):
            BatchSmoother().smooth_many(
                fleet, config=EstimatorConfig(dtype=dtype)
            )

    @pytest.mark.parametrize("name", ["odd-even", "paige-saunders", "batch-odd-even"])
    @pytest.mark.parametrize(
        "field", ["observation covariance L", "evolution covariance K", "prior"]
    )
    def test_nonfinite_covariance_factor_is_named(self, field, name):
        """A factor whitener holds a NaN below its diagonal; the smoother
        names that covariance instead of a singular ``R`` block."""
        import repro

        p = random_problem(k=6, seed=5, dims=2)
        factor = Whitener(np.array([[1.0, 0.0], [np.nan, 1.0]]), kind="factor")
        if field == "prior":
            p.prior.cov = factor
            message = "the prior has a non-finite covariance"
        else:
            step = p.steps[3]
            if field.startswith("observation"):
                step.observation.L = factor
            else:
                step.evolution.K = factor
            message = f"step 3 has a non-finite {field}"
        with pytest.raises(ValueError, match=message):
            repro.make_smoother(name).smooth(p)

    def test_prior_mean(self):
        p = random_problem(k=5, seed=3, dims=2)
        p.prior.mean[1] = np.nan
        with pytest.raises(ValueError, match="prior has a non-finite mean"):
            OddEvenSmoother().smooth(p)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("observation o", "step 6 has a non-finite observation o"),
            ("evolution F", "step 6 has a non-finite evolution F"),
            ("prior mean", "prior has a non-finite mean"),
        ],
    )
    def test_batch_associative_names_problem_and_field(self, field, message):
        """The associative scans carry NaN through silently; the batched
        associative smoother must reject it like the odd-even one."""
        from repro.batch import BatchSmoother

        poisoned = random_problem(k=12, seed=5, dims=3, random_cov=True)
        if field == "prior mean":
            poisoned.prior.mean[0] = np.nan
        else:
            self.CASES[field](poisoned)
        fleet = [
            random_problem(12, seed=s, dims=3, random_cov=True)
            for s in (1, 2)
        ]
        fleet.insert(1, poisoned)
        with pytest.raises(
            ValueError,
            match=rf"problem index 1 .*{message}; .*associative smoother",
        ):
            BatchSmoother(method="associative").smooth_many(fleet)

    SCAN_SMOOTHERS = {
        "kalman-rts": "the RTS smoother",
        "associative": "the associative smoother",
        "normal-equations": "the normal-equations smoother",
        "ultimate": "the ultimate smoother",
    }

    @pytest.mark.parametrize("name", sorted(SCAN_SMOOTHERS))
    def test_other_smoothers_name_step_field_and_smoother(self, name):
        """The filter, the scans and cyclic reduction used to return NaN
        means for a NaN observation, without an error; the ultimate
        adapter named its inner odd-even smoother."""
        import repro

        p = random_problem(k=6, seed=5, dims=2)
        p.steps[3].observation.o[0] = np.nan
        message = (
            "step 3 has a non-finite observation o; "
            f"{self.SCAN_SMOOTHERS[name]} needs finite data"
        )
        with pytest.raises(ValueError, match=message):
            repro.make_smoother(name).smooth(p)

    @pytest.mark.parametrize("name", sorted(SCAN_SMOOTHERS))
    def test_other_smoothers_scan_no_healthy_problem(self, name, monkeypatch):
        import repro

        p = random_problem(k=9, seed=4, dims=2, random_cov=True)

        def fail(_self):
            raise AssertionError("scanned a healthy problem")

        monkeypatch.setattr(StateSpaceProblem, "nonfinite_field", fail)
        repro.make_smoother(name).smooth(p)

    def test_healthy_problem_scans_nothing(self, monkeypatch):
        """The step scan runs only after a non-finite result."""
        p = random_problem(k=9, seed=4, dims=2, random_cov=True)

        def fail(_self):
            raise AssertionError("scanned a healthy problem")

        monkeypatch.setattr(StateSpaceProblem, "nonfinite_field", fail)
        OddEvenSmoother().smooth(p)
        from repro.batch import BatchSmoother

        BatchSmoother().smooth_many([p, p])
