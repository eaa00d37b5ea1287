"""Tests for the normal-equations cyclic-reduction ablation (paper §6)."""

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.core.normal_equations import (
    NormalEquationsSmoother,
    build_normal_equations,
)
from repro.core.smoother import OddEvenSmoother
from repro.model.dense import assemble_dense
from repro.model.generators import ill_conditioned_problem, random_problem


class TestAssembly:
    def test_tridiagonal_matches_dense(self):
        p = random_problem(k=5, seed=0, dims=3, random_cov=True)
        dense = assemble_dense(p)
        t_full = dense.a.T @ dense.a
        v_full = dense.a.T @ dense.b
        diag, sub, rhs = build_normal_equations(p.whiten())
        layout = dense.layout
        for i in range(6):
            sl = layout.slice(i)
            assert np.allclose(diag[i], t_full[sl, sl], atol=1e-10)
            assert np.allclose(rhs[i], v_full[sl], atol=1e-10)
            if i < 5:
                assert np.allclose(
                    sub[i],
                    t_full[layout.slice(i + 1), sl],
                    atol=1e-10,
                )


class TestSolver:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 6, 11, 20])
    def test_matches_oracle_when_well_conditioned(
        self, k, assert_blocks_close
    ):
        p = random_problem(k=k, seed=k, dims=3, random_cov=True)
        result = NormalEquationsSmoother().smooth(p)
        assert_blocks_close(
            result.means, assemble_dense(p).solve(), tol=1e-7
        )

    def test_no_covariance_support(self):
        p = random_problem(k=2, seed=1)
        with pytest.raises(ValueError, match="means only"):
            NormalEquationsSmoother().smooth(
                p, config=EstimatorConfig(compute_covariance=True)
            )

    def test_varying_dims(self, assert_blocks_close):
        p = random_problem(k=6, seed=2, dims=[2, 3, 2, 4, 2, 3, 2])
        result = NormalEquationsSmoother().smooth(p)
        assert_blocks_close(
            result.means, assemble_dense(p).solve(), tol=1e-7
        )


class TestInstability:
    def test_qr_beats_normal_equations_on_ill_conditioned_input(self):
        """The §6 claim: squaring the condition number costs accuracy.

        At covariance condition 1e12 (whitened-matrix condition ~1e6)
        the normal equations lose several more digits than the QR
        smoother on the same problem.
        """
        p = ill_conditioned_problem(n=4, k=30, cond=1e12, seed=0)
        reference = assemble_dense(p).solve()

        def err(means):
            return max(
                float(np.max(np.abs(m - r)))
                for m, r in zip(means, reference)
            )

        qr_err = err(
            OddEvenSmoother(compute_covariance=False).smooth(p).means
        )
        ne_err = err(NormalEquationsSmoother().smooth(p).means)
        assert qr_err < 1e-6
        assert ne_err > 1000 * qr_err

    def test_degradation_grows_with_condition(self):
        errors = []
        for cond in (1e2, 1e6, 1e10):
            p = ill_conditioned_problem(n=3, k=20, cond=cond, seed=1)
            reference = assemble_dense(p).solve()
            means = NormalEquationsSmoother().smooth(p).means
            errors.append(
                max(
                    float(np.max(np.abs(m - r)))
                    for m, r in zip(means, reference)
                )
            )
        assert errors[0] < errors[1] < errors[2]
