"""Empirical verification of the §3.3 work/span asymptotics.

The paper's analysis:  ``T_1(k, n) = Theta(k n^3)`` and
``T_inf(k, n) = Theta(log k * n log n)`` for the odd-even
factorization, versus ``T_inf = Theta(k * n log n)`` for the
sequential Paige–Saunders algorithm.  These tests measure the recorded
flop work and flop span of real runs over doubling ``k`` and check the
growth laws (the ``n log n`` intra-kernel factor is constant here
because block operations are recorded as atomic tasks).
"""

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.core.smoother import OddEvenSmoother
from repro.kalman.paige_saunders import PaigeSaundersSmoother
from repro.model.generators import random_orthonormal_problem
from repro.parallel.backend import RecordingBackend

KS = [64, 128, 256, 512]


def record(smoother_factory, k, n=3):
    problem = random_orthonormal_problem(n=n, k=k, seed=0)
    backend = RecordingBackend(block_size=1)
    smoother_factory().smooth(
        problem, config=EstimatorConfig(backend=backend)
    )
    return backend.graph


@pytest.fixture(scope="module")
def oddeven_graphs():
    return {
        k: record(lambda: OddEvenSmoother(compute_covariance=False), k)
        for k in KS
    }


class TestWork:
    def test_work_linear_in_k(self, oddeven_graphs):
        """T_1 = Theta(k n^3): doubling k doubles the work."""
        works = [oddeven_graphs[k].work_flops for k in KS]
        for a, b in zip(works, works[1:]):
            assert 1.8 < b / a < 2.2

    def test_work_cubic_in_n(self):
        """Doubling n multiplies the work by ~8."""
        w3 = record(
            lambda: OddEvenSmoother(compute_covariance=False), 128, n=6
        ).work_flops
        w6 = record(
            lambda: OddEvenSmoother(compute_covariance=False), 128, n=12
        ).work_flops
        assert 5.0 < w6 / w3 < 10.0


class TestSpan:
    def test_oddeven_span_logarithmic_in_k(self, oddeven_graphs):
        """T_inf = Theta(log k ...): doubling k adds a constant."""
        spans = [oddeven_graphs[k].span_flops for k in KS]
        increments = [b - a for a, b in zip(spans, spans[1:])]
        # Increments per doubling are roughly equal (log growth), and
        # far below proportional growth.
        assert max(increments) < 0.35 * spans[0]
        for a, b in zip(spans, spans[1:]):
            assert b / a < 1.4

    def test_paige_saunders_span_linear_in_k(self):
        """The sequential baseline's critical path is Theta(k ...)."""
        spans = [
            record(
                lambda: PaigeSaundersSmoother(compute_covariance=False), k
            ).span_flops
            for k in (64, 128, 256)
        ]
        for a, b in zip(spans, spans[1:]):
            assert 1.8 < b / a < 2.2

    def test_parallelism_grows_with_k(self, oddeven_graphs):
        """T_1 / T_inf = Theta(k / log k): strictly increasing."""
        par = [oddeven_graphs[k].parallelism() for k in KS]
        assert all(b > a for a, b in zip(par, par[1:]))
        assert par[-1] > 4 * par[0]


class TestDepth:
    def test_recursion_depth_logarithmic(self):
        problem = random_orthonormal_problem(n=2, k=1023, seed=0)
        factor = OddEvenSmoother().factorize(problem)
        assert factor.depth() <= int(np.ceil(np.log2(1024))) + 1
