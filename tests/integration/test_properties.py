"""Property-based invariants on the end-to-end smoothers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import EstimatorConfig
from repro.core.smoother import OddEvenSmoother
from repro.kalman.paige_saunders import PaigeSaundersSmoother
from repro.model.generators import random_problem
from repro.parallel.backend import RecordingBackend
from repro.parallel.machine import GRAVITON3
from repro.parallel.scheduler import greedy_schedule

problems = st.builds(
    random_problem,
    k=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    dims=st.integers(min_value=1, max_value=4),
    random_cov=st.booleans(),
)


class TestOptimality:
    @given(problems)
    @settings(max_examples=15)
    def test_smoothed_trajectory_minimizes_objective(self, problem):
        """Any perturbation of the smoother output increases the
        generalized least-squares objective (paper eq. 4)."""
        result = OddEvenSmoother(compute_covariance=False).smooth(problem)
        base = problem.objective(result.means)
        rng = np.random.default_rng(0)
        for scale in (1e-3, 1e-1, 1.0):
            perturbed = [
                m + scale * rng.standard_normal(m.shape)
                for m in result.means
            ]
            assert problem.objective(perturbed) >= base

    @given(problems)
    @settings(max_examples=15)
    def test_residual_equals_objective(self, problem):
        result = OddEvenSmoother(compute_covariance=False).smooth(problem)
        assert np.isclose(
            result.residual_sq,
            problem.objective(result.means),
            rtol=1e-7,
            atol=1e-9,
        )


class TestCovariances:
    @given(problems)
    @settings(max_examples=10)
    def test_spd_and_symmetric(self, problem):
        result = OddEvenSmoother().smooth(problem)
        for cov in result.covariances:
            assert np.allclose(cov, cov.T, atol=1e-10)
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    @given(problems)
    @settings(max_examples=10)
    def test_two_qr_smoothers_agree(self, problem):
        a = OddEvenSmoother().smooth(problem)
        b = PaigeSaundersSmoother().smooth(problem)
        for x, y in zip(a.covariances, b.covariances):
            assert np.allclose(x, y, atol=1e-7)


class TestScheduleInvariants:
    @given(
        k=st.integers(min_value=4, max_value=40),
        block=st.sampled_from([1, 2, 5, 17]),
        cores=st.sampled_from([1, 3, 16, 64]),
    )
    @settings(max_examples=12)
    def test_simulated_time_within_brent_envelope(self, k, block, cores):
        """Greedy makespan obeys max(T1/p, span-ish) <= T <= T1/p + span
        over the *real recorded graph* of a smoother run (with the
        overhead terms added to both sides)."""
        problem = random_problem(k=k, seed=k, dims=2)
        backend = RecordingBackend(block_size=block)
        OddEvenSmoother().smooth(
            problem, config=EstimatorConfig(backend=backend)
        )
        graph = backend.graph
        sim = greedy_schedule(graph, GRAVITON3, cores)
        per_task = [
            GRAVITON3.task_seconds(
                t.flops, t.bytes_moved, t.kernel_calls,
                1 if ph.kind == "serial" else min(cores, max(len(ph.tasks), 1)),
            )
            for ph in graph.phases
            for t in ph.tasks
        ]
        total = sum(per_task)
        span = sum(
            max(
                (
                    GRAVITON3.task_seconds(
                        t.flops, t.bytes_moved, t.kernel_calls,
                        1 if ph.kind == "serial" else min(cores, max(len(ph.tasks), 1)),
                    )
                    for t in ph.tasks
                ),
                default=0.0,
            )
            if ph.kind != "serial"
            else sum(
                GRAVITON3.task_seconds(
                    t.flops, t.bytes_moved, t.kernel_calls, 1
                )
                for t in ph.tasks
            )
            for ph in graph.phases
        )
        barriers = sum(
            GRAVITON3.barrier_seconds(cores if ph.kind != "serial" else 1)
            for ph in graph.phases
        )
        assert sim.seconds >= max(total / cores, span) - 1e-12
        assert sim.seconds <= total / cores + span + barriers + 1e-12

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=10)
    def test_more_cores_hurt_at_most_by_barrier_costs(self, k):
        """Adding cores can only increase runtime through the (log p)
        barrier term — the computation itself never runs slower."""
        problem = random_problem(k=k, seed=k + 1, dims=2)
        backend = RecordingBackend(block_size=1)
        OddEvenSmoother().smooth(
            problem, config=EstimatorConfig(backend=backend)
        )
        graph = backend.graph
        pairs = [(1, 2), (2, 4), (4, 8), (8, 16)]
        for lo, hi in pairs:
            t_lo = greedy_schedule(graph, GRAVITON3, lo).seconds
            t_hi = greedy_schedule(graph, GRAVITON3, hi).seconds
            barrier_delta = sum(
                GRAVITON3.barrier_seconds(hi) - GRAVITON3.barrier_seconds(lo)
                for ph in graph.phases
                if ph.kind != "serial"
            )
            assert t_hi <= t_lo + barrier_delta + 1e-12
