"""Batched iterate-and-regroup smoothing for the nonlinear family.

The contract under test: ``smooth_many`` over a fleet of nonlinear
problems performs ONE stacked linear solve per outer iteration (not
one per problem per iteration), keeps every per-problem damping and
convergence decision independent, and — for a uniform-length fleet —
returns results *bit-identical* to the per-problem ``smooth`` loop,
because ``smooth`` itself drives the same batched engine with a
workload of one and the stacked kernels are slice-invariant.
"""

import numpy as np
import pytest

import repro
from repro import obs
from repro.api import EstimatorConfig
from repro.batch.plan import PlanCache
from repro.model.nonlinear import pendulum_problem
from repro.nonlinear.gauss_newton import GaussNewtonSmoother
from repro.nonlinear.ipls import IteratedPosteriorLinearizationSmoother
from repro.nonlinear.levenberg_marquardt import LevenbergMarquardtSmoother

NONLINEAR_NAMES = ["gauss-newton", "ipls", "levenberg-marquardt"]


def stacked_solve_count():
    """How many times BatchSmoother.smooth_many ran in this test."""
    return obs.get_registry().counter(
        "repro_batch_smooth_many_total"
    ).value


def fleet(n, k=18):
    return [pendulum_problem(k, seed=seed)[0] for seed in range(n)]


class TestBitIdentity:
    def test_ipls_32_problems_bit_identical_to_loop(self):
        """The headline acceptance: a 32-problem uniform-length fleet
        smooths bit-for-bit like the per-problem loop."""
        problems = fleet(32)
        # A looser tolerance keeps the 32 solo smooths cheap; the
        # bit-identity claim is tolerance-independent.
        s = IteratedPosteriorLinearizationSmoother(tol=1e-6)
        batched = s.smooth_many(problems)
        looped = [s.smooth(p) for p in problems]
        for a, b in zip(batched, looped):
            assert a.diagnostics["iterations"] == b.diagnostics["iterations"]
            for x, y in zip(a.means, b.means):
                assert np.array_equal(x, y)
            for x, y in zip(a.covariances, b.covariances):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", NONLINEAR_NAMES)
    def test_slice_for_slice_agreement_with_smooth(self, name):
        """``smooth`` drives the same loop and inner smoother with a
        workload of one, so every slice is exact."""
        problems = fleet(6)
        s = repro.make_smoother(name)
        batched = s.smooth_many(problems)
        looped = [s.smooth(p) for p in problems]
        for a, b in zip(batched, looped):
            assert a.diagnostics["iterations"] == b.diagnostics["iterations"]
            for x, y in zip(a.means, b.means):
                assert np.array_equal(x, y)
            assert a.covariances is not None
            for x, y in zip(a.covariances, b.covariances):
                assert np.array_equal(x, y)


class TestOneStackedSolvePerIteration:
    def test_ipls_solve_count_is_max_iterations_not_sum(self):
        """32 problems converging after [n_0..n_31] iterations must
        cost max(n_i) stacked solves — the whole point of batching.
        A per-problem loop would cost sum(n_i)."""
        problems = fleet(32)
        s = IteratedPosteriorLinearizationSmoother(tol=1e-6)
        before = stacked_solve_count()
        results = s.smooth_many(problems)
        solves = stacked_solve_count() - before
        iters = [r.diagnostics["iterations"] for r in results]
        assert solves == max(iters)
        assert solves < sum(iters)

    def test_gn_adds_one_final_covariance_pass(self):
        problems = fleet(8)
        s = GaussNewtonSmoother()
        before = stacked_solve_count()
        results = s.smooth_many(problems)
        solves = stacked_solve_count() - before
        iters = [r.diagnostics["iterations"] for r in results]
        assert solves == max(iters) + 1

    def test_nc_inner_iterations_when_covariance_skipped(self):
        """Without a covariance request the sigma-point IPLS still
        needs per-iteration covariances (they feed the next SLR), but
        GN iterates in NC mode with no final pass at all."""
        problems = fleet(8)
        config = EstimatorConfig(compute_covariance=False)
        before = stacked_solve_count()
        results = GaussNewtonSmoother().smooth_many(
            problems, config=config
        )
        solves = stacked_solve_count() - before
        assert solves == max(
            r.diagnostics["iterations"] for r in results
        )
        assert all(r.covariances is None for r in results)


class TestPhaseExport:
    def test_each_phase_recorded_once_per_outer_iteration(self):
        """Linearization, the stacked inner solve and the absorb loop
        (which evaluates the objective) each time once per outer
        iteration, and all three reach the Prometheus export."""
        phases = {"linearize", "inner_solve", "absorb"}
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            results = IteratedPosteriorLinearizationSmoother().smooth_many(
                fleet(3)
            )
        outer = max(r.diagnostics["iterations"] for r in results)
        assert outer > 1
        for phase in phases:
            hist = registry.histogram(
                "repro_nonlinear_phase_seconds", smoother="ipls", phase=phase
            )
            assert hist.count == outer
        iteration = registry.histogram(
            "repro_nonlinear_iteration_seconds", smoother="ipls"
        )
        assert iteration.count == outer
        series = obs.parse_prometheus(obs.to_prometheus(registry))
        exported = {
            s["labels"]["phase"]
            for s in series["repro_nonlinear_phase_seconds_count"]
        }
        assert exported == phases


class TestPerProblemConvergenceMasks:
    def test_iteration_counts_are_independent(self):
        """A fleet mixing easy and hard problems: each result reports
        its own iteration count, identical to what the problem needs
        when smoothed alone."""
        problems = [
            pendulum_problem(30, seed=0, r=0.01)[0],   # easy
            pendulum_problem(30, seed=1)[0],
            pendulum_problem(30, seed=2, r=0.5)[0],    # hard
            pendulum_problem(30, seed=3)[0],
        ]
        s = IteratedPosteriorLinearizationSmoother()
        batched = s.smooth_many(problems)
        alone = [
            s.smooth(p).diagnostics["iterations"] for p in problems
        ]
        got = [r.diagnostics["iterations"] for r in batched]
        assert got == alone
        assert len(set(got)) > 1  # genuinely mixed difficulty

    def test_converged_problem_stops_updating(self):
        """Once a problem's mask flips, later outer iterations (run
        for the stragglers) must not perturb its trajectory: the
        batched result equals its solo result bitwise even though the
        batch kept iterating."""
        problems = [
            pendulum_problem(30, seed=0, r=0.01)[0],
            pendulum_problem(30, seed=2, r=0.5)[0],
        ]
        s = IteratedPosteriorLinearizationSmoother()
        batched = s.smooth_many(problems)
        solo = s.smooth(problems[0])
        assert (
            batched[0].diagnostics["iterations"]
            < batched[1].diagnostics["iterations"]
        )
        for x, y in zip(batched[0].means, solo.means):
            assert np.array_equal(x, y)

    def test_lm_damping_schedules_independent(self):
        problems = [
            pendulum_problem(30, seed=0, r=0.01)[0],
            pendulum_problem(30, seed=2, r=0.5)[0],
        ]
        results = LevenbergMarquardtSmoother().smooth_many(problems)
        lams = [r.diagnostics["final_lambda"] for r in results]
        traces = [r.diagnostics["trace"] for r in results]
        assert all(t.converged for t in traces)
        assert lams[0] != lams[1]


class TestEdgesAndDtype:
    @pytest.mark.parametrize("name", NONLINEAR_NAMES)
    def test_empty_workload(self, name):
        assert repro.make_smoother(name).smooth_many([]) == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, "mixed"])
    @pytest.mark.parametrize("name", NONLINEAR_NAMES)
    def test_singleton_fleet_equals_smooth(self, name, dtype):
        """``smooth`` keeps every field of the config: a float32
        ``smooth(p)`` must solve in float32, as ``smooth_many([p])``
        does, and take as many iterations; a ``"mixed"`` one solves in
        float32 and reports float64."""
        p = pendulum_problem(25, seed=7)[0]
        s = repro.make_smoother(name)
        config = EstimatorConfig(dtype=dtype)
        a = s.smooth_many([p], config=config)[0]
        b = s.smooth(p, config=config)
        assert a.diagnostics["iterations"] == b.diagnostics["iterations"]
        assert b.means[0].dtype == (np.float64 if dtype == "mixed" else dtype)
        for x, y in zip(a.means, b.means):
            assert np.array_equal(x, y)
        for x, y in zip(a.covariances, b.covariances):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", NONLINEAR_NAMES)
    def test_smooth_solves_in_the_configured_plan_cache(self, name):
        """``smooth`` hands its inner smoother the caller's plan cache,
        as ``smooth_many`` does; GN and LM used to drop it and build
        every iteration's plan in a private cache."""
        p = pendulum_problem(25, seed=7)[0]
        s = repro.make_smoother(name)
        solo, fleet_of_one = PlanCache(), PlanCache()
        s.smooth(p, config=EstimatorConfig(plan_cache=solo))
        s.smooth_many([p], config=EstimatorConfig(plan_cache=fleet_of_one))
        assert solo.hits > 0
        assert solo.stats() == fleet_of_one.stats()
    def test_mixed_precision_config(self):
        """dtype='mixed' re-linearizes in float64 (the refinement
        contract needs the true model) while the stacked solves run
        float32 + refine; results stay close to the float64 run."""
        problems = fleet(4)
        s = IteratedPosteriorLinearizationSmoother()
        ref = s.smooth_many(problems)
        got = s.smooth_many(
            problems, config=EstimatorConfig(dtype="mixed")
        )
        for a, b in zip(ref, got):
            assert b.means[0].dtype == np.float64
            for x, y in zip(a.means, b.means):
                np.testing.assert_allclose(x, y, atol=1e-6)

    def test_float32_request_yields_float32(self):
        problems = fleet(3)
        results = IteratedPosteriorLinearizationSmoother().smooth_many(
            problems,
            config=EstimatorConfig(
                dtype=np.float32, compute_covariance=False
            ),
        )
        for r in results:
            assert r.means[0].dtype == np.float32
