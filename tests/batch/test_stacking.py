"""Tests for padding, bucketing, and batched whitening/stacking."""

import numpy as np
import pytest

from repro.batch.stacking import (
    bucket_problems,
    pad_problem,
    padded_length,
    stack_whitened,
    structure_signature,
)
from repro.core.smoother import OddEvenSmoother
from repro.model.generators import random_problem, tracking_2d_problem


class TestPaddedLength:
    @pytest.mark.parametrize(
        "n,expect", [(1, 1), (2, 2), (3, 4), (5, 8), (64, 64), (65, 128)]
    )
    def test_next_power_of_two(self, n, expect):
        assert padded_length(n) == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            padded_length(0)


class TestPadProblem:
    def test_padding_is_exact(self):
        problem = random_problem(k=9, seed=4, dims=3, random_cov=True)
        padded = pad_problem(problem, 16)
        assert padded.n_states == 16
        ref = OddEvenSmoother().smooth(problem)
        got = OddEvenSmoother().smooth(padded)
        for i in range(problem.n_states):
            np.testing.assert_allclose(
                got.means[i], ref.means[i], atol=1e-10
            )
            np.testing.assert_allclose(
                got.covariances[i], ref.covariances[i], atol=1e-10
            )
        assert got.residual_sq == pytest.approx(ref.residual_sq)
        # Padded states replicate the last real state's estimate
        # (identity evolution with no observations).
        np.testing.assert_allclose(
            got.means[-1], ref.means[-1], atol=1e-10
        )

    def test_noop_and_rejection(self):
        problem = random_problem(k=3, seed=0)
        assert pad_problem(problem, 4) is problem
        with pytest.raises(ValueError):
            pad_problem(problem, 2)


class TestSignatureAndBuckets:
    def test_signature_ignores_values(self):
        a = random_problem(k=5, seed=1, dims=3)
        b = random_problem(k=5, seed=99, dims=3)
        assert structure_signature(a) == structure_signature(b)

    def test_signature_obs_rows_flag(self):
        a = random_problem(k=5, seed=1, dims=3)
        sparse = random_problem(k=5, seed=1, dims=3, obs_prob=0.3)
        assert structure_signature(a) == structure_signature(sparse)
        assert structure_signature(
            a, obs_rows=True
        ) != structure_signature(sparse, obs_rows=True)

    def test_heterogeneous_lengths_share_buckets(self):
        problems = [
            random_problem(k=k, seed=k, dims=3)
            for k in (5, 7, 4, 6, 7)  # 5..8 states, all pad to 8
        ]
        buckets = bucket_problems(problems)
        assert len(buckets) == 1
        assert buckets[0].batch == 5
        assert buckets[0].n_states == 8
        assert sorted(buckets[0].indices) == list(range(5))

    def test_different_dims_split_buckets(self):
        problems = [
            random_problem(k=3, seed=0, dims=2),
            random_problem(k=3, seed=0, dims=3),
        ]
        assert len(bucket_problems(problems)) == 2

    def test_members_are_padded_at_call_time(self):
        """A bucket records lengths only; ``members`` pads each problem
        to the bucket length when asked and leaves the inputs alone."""
        problems = [
            random_problem(k=k, seed=k, dims=3) for k in (5, 7, 4)
        ]
        lengths = [p.n_states for p in problems]
        (bucket,) = bucket_problems(problems)
        members = bucket.members(problems)
        assert [m.n_states for m in members] == [bucket.n_states] * 3
        for i, member in zip(bucket.indices, members):
            if lengths[i] == bucket.n_states:
                assert member is problems[i]  # nothing to pad
        assert [p.n_states for p in problems] == lengths
        assert bucket.n_states_orig == tuple(
            lengths[i] for i in bucket.indices
        )


class TestStackWhitened:
    def test_matches_per_problem_whitening(self):
        problems = [
            random_problem(k=6, seed=s, dims=3, random_cov=True)
            for s in range(4)
        ]
        stacked = stack_whitened(problems)
        for b, problem in enumerate(problems):
            white = problem.whiten()
            for i, ws in enumerate(white.steps):
                np.testing.assert_allclose(
                    stacked.steps[i].C[b], ws.C, atol=1e-12
                )
                np.testing.assert_allclose(
                    stacked.steps[i].rhs_C[b], ws.rhs_C, atol=1e-12
                )
                if ws.B is not None:
                    np.testing.assert_allclose(
                        stacked.steps[i].B[b], ws.B, atol=1e-12
                    )
                    np.testing.assert_allclose(
                        stacked.steps[i].D[b], ws.D, atol=1e-12
                    )
                    np.testing.assert_allclose(
                        stacked.steps[i].rhs_BD[b], ws.rhs_BD, atol=1e-12
                    )

    def test_zero_pads_missing_observations(self):
        dense = random_problem(k=6, seed=1, dims=2)
        sparse = random_problem(k=6, seed=2, dims=2, obs_prob=0.4)
        stacked = stack_whitened([dense, sparse])
        white_sparse = sparse.whiten()
        for i, ws in enumerate(white_sparse.steps):
            rows = ws.C.shape[0]
            got = stacked.steps[i].C[1]
            np.testing.assert_allclose(got[:rows], ws.C, atol=1e-12)
            # Padding rows are exactly zero (coefficients and RHS).
            assert np.all(got[rows:] == 0.0)
            assert np.all(stacked.steps[i].rhs_C[1][rows:] == 0.0)

    def test_tracking_workload_stacks(self):
        problems = [
            tracking_2d_problem(k=10, seed=s)[0] for s in range(3)
        ]
        stacked = stack_whitened(problems)
        assert stacked.steps[0].C.shape[0] == 3

    def test_shape_accessors_address_trailing_axes(self):
        problems = [
            tracking_2d_problem(k=3, seed=s)[0] for s in range(5)
        ]
        stacked = stack_whitened(problems)
        white = problems[0].whiten()
        # Batched accessors report per-sequence row counts, not the
        # batch size.
        for got, want in zip(stacked.steps, white.steps):
            assert got.obs_rows == want.obs_rows
            assert got.evo_rows == want.evo_rows
        assert stacked.total_rows() == white.total_rows()

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            stack_whitened([])
        with pytest.raises(ValueError):
            stack_whitened(
                [
                    random_problem(k=2, seed=0, dims=2),
                    random_problem(k=2, seed=0, dims=3),
                ]
            )
