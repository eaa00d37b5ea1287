"""Tests for the OddEvenSmoother public API."""

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.core.smoother import OddEvenSmoother
from repro.model.dense import assemble_dense
from repro.model.generators import random_problem
from repro.parallel.backend import (
    RecordingBackend,
    SerialBackend,
    ThreadPoolBackend,
)
from repro.parallel.tally import measure_flops


class TestAPI:
    def test_full_smooth(self, assert_blocks_close):
        p = random_problem(k=10, seed=0, dims=3, random_cov=True)
        dense = assemble_dense(p)
        result = OddEvenSmoother().smooth(p)
        assert result.algorithm == "odd-even"
        assert_blocks_close(result.means, dense.solve(), tol=1e-8)
        assert_blocks_close(
            result.covariances, dense.covariances(), tol=1e-8
        )

    def test_nc_variant(self, assert_blocks_close):
        p = random_problem(k=10, seed=1, dims=3)
        nc = OddEvenSmoother(compute_covariance=False).smooth(p)
        assert nc.covariances is None
        assert nc.algorithm == "odd-even-nc"
        full = OddEvenSmoother().smooth(p)
        assert_blocks_close(nc.means, full.means, tol=1e-12)

    def test_nc_saves_work(self):
        p = random_problem(k=30, seed=2, dims=4)
        _f, t_full = measure_flops(OddEvenSmoother().smooth, p)
        _n, t_nc = measure_flops(
            OddEvenSmoother(compute_covariance=False).smooth, p
        )
        assert t_nc.flops < 0.75 * t_full.flops

    def test_per_call_override(self):
        p = random_problem(k=4, seed=3)
        smoother = OddEvenSmoother(compute_covariance=False)
        result = smoother.smooth(
            p, config=EstimatorConfig(compute_covariance=True)
        )
        assert result.covariances is not None

    def test_diagnostics(self):
        p = random_problem(k=31, seed=4, dims=2)
        result = OddEvenSmoother().smooth(p)
        assert result.diagnostics["levels"] >= 5
        assert result.diagnostics["nonzero_blocks"] > 31

    def test_residual_matches_objective(self):
        p = random_problem(k=12, seed=5, random_cov=True)
        result = OddEvenSmoother().smooth(p)
        assert result.residual_sq == pytest.approx(
            p.objective(result.means), rel=1e-8, abs=1e-10
        )

    def test_factorize_exposed(self):
        p = random_problem(k=6, seed=6)
        factor = OddEvenSmoother().factorize(p)
        assert factor.k == 6


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: SerialBackend(),
            lambda: ThreadPoolBackend(4, block_size=3),
            lambda: RecordingBackend(block_size=2),
        ],
        ids=["serial", "threads", "recording"],
    )
    def test_identical_results(self, backend_factory, assert_blocks_close):
        p = random_problem(k=21, seed=7, dims=3, random_cov=True)
        reference = OddEvenSmoother().smooth(p)
        with backend_factory() as backend:
            result = OddEvenSmoother().smooth(
                p, config=EstimatorConfig(backend=backend)
            )
        assert_blocks_close(result.means, reference.means, tol=1e-13)
        assert_blocks_close(
            result.covariances, reference.covariances, tol=1e-13
        )

    def test_block_size_does_not_change_results(self, assert_blocks_close):
        p = random_problem(k=17, seed=8, dims=2)
        results = []
        for bs in (1, 3, 10, 100):
            backend = RecordingBackend(block_size=bs)
            results.append(
                OddEvenSmoother().smooth(
                    p, config=EstimatorConfig(backend=backend)
                )
            )
        for r in results[1:]:
            assert_blocks_close(r.means, results[0].means, tol=1e-13)

    def test_recording_produces_phases(self):
        p = random_problem(k=15, seed=9, dims=2)
        backend = RecordingBackend(block_size=1)
        OddEvenSmoother().smooth(p, config=EstimatorConfig(backend=backend))
        names = [ph.name for ph in backend.graph.phases]
        assert any("stageA" in n for n in names)
        assert any("stageB" in n for n in names)
        assert any("stageC" in n for n in names)
        assert any("solve" in n for n in names)
        assert any("selinv" in n for n in names)
