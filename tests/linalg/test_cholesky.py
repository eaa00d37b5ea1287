"""Tests for Cholesky whitening operators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.linalg.cholesky import Whitener, spd_cholesky, spd_solve, whiten_each
from repro.model.steps import Evolution

sizes = st.integers(min_value=1, max_value=8)


def spd(n, seed=0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestSpdCholesky:
    @given(sizes)
    def test_factor_reconstructs(self, n):
        a = spd(n, seed=n)
        s = spd_cholesky(a)
        assert np.allclose(s @ s.T, a, atol=1e-9)
        assert np.allclose(s, np.tril(s))

    def test_rejects_asymmetric(self):
        with pytest.raises(np.linalg.LinAlgError, match="symmetric"):
            spd_cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            spd_cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            spd_cholesky(np.zeros((2, 3)))

    def test_empty(self):
        assert spd_cholesky(np.zeros((0, 0))).shape == (0, 0)

    def test_error_names_source(self):
        with pytest.raises(np.linalg.LinAlgError, match="covariance K"):
            spd_cholesky(-np.eye(2), what="covariance K")

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 0), np.nan), ((1, 0), np.nan), ((1, 1), -np.inf)],
        ids=["nan-diagonal", "nan-off-diagonal", "minus-inf-diagonal"],
    )
    def test_nonfinite_entry_is_named_as_such(self, entry, value):
        """A NaN fails the symmetry check and an infinite diagonal the
        factorization; neither is asymmetry or indefiniteness."""
        k = np.eye(2)
        k[entry] = value
        with pytest.raises(
            np.linalg.LinAlgError,
            match="evolution covariance K has a non-finite entry",
        ):
            Evolution(F=np.eye(2), K=k)

    def test_infinite_variance_is_rejected(self):
        """LAPACK factors a ``+inf`` variance into an infinite diagonal,
        which whitening would turn into a zero row."""
        with pytest.raises(
            np.linalg.LinAlgError, match="^K has a non-finite entry$"
        ):
            spd_cholesky(np.array([[np.inf, 0.0], [0.0, 1.0]]), "K")


class TestSpdCholeskyStack:
    """The ``(N, n, n)`` branch: same checks, same bits, named slices."""

    @given(
        n=sizes,
        count=st.integers(1, 6),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_slices_equal_single_factorizations(self, n, count, dtype):
        stack = np.stack([spd(n, seed=n + b) for b in range(count)]).astype(dtype)
        factors = spd_cholesky(stack)
        assert factors.dtype == dtype
        for b in range(count):
            assert np.array_equal(factors[b], spd_cholesky(stack[b]))

    def test_symmetry_tolerance_matches_single_matrix(self):
        a = spd(3)
        a[0, 1] += 1e-11 * abs(a[0, 1])  # within rtol=1e-10
        spd_cholesky(a)
        spd_cholesky(np.stack([a, a]))

    def test_error_names_every_failing_slice(self):
        stack = np.stack([np.eye(2), -np.eye(2), 2 * np.eye(2), np.diag([1.0, 0.0])])
        with pytest.raises(
            np.linalg.LinAlgError,
            match=r"covariance K in batch slice\(s\) \[1, 3\] is not positive definite",
        ) as info:
            spd_cholesky(stack, "covariance K")
        assert info.value.batch_slices == [1, 3]

    def test_error_uses_slice_names(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
        with pytest.raises(
            np.linalg.LinAlgError,
            match="observation covariance L at step 7 must be symmetric",
        ) as info:
            spd_cholesky(stack, "observation covariance L", names=["step 3", "step 7"])
        assert info.value.batch_slices == [1]

    def test_nonfinite_slices_are_named_as_such(self):
        """Whichever check fails first, every non-finite slice is named
        for that, not for asymmetry or indefiniteness."""
        stack = np.stack([np.eye(2)] * 4)
        stack[1, 0, 1] = 0.5  # asymmetric but finite
        stack[2, 0, 0] = np.nan
        stack[3, 1, 1] = -np.inf
        with pytest.raises(
            np.linalg.LinAlgError,
            match="K at step 2, step 3 has a non-finite entry",
        ) as info:
            spd_cholesky(stack, "K", names=[f"step {i}" for i in range(4)])
        assert info.value.batch_slices == [2, 3]
        stack[2, 0, 0] = 1.0
        with pytest.raises(
            np.linalg.LinAlgError, match=r"K in batch slice\(s\) \[2\] has a"
        ) as info:
            spd_cholesky(stack[[0, 2, 3]].copy(), "K")
        assert info.value.batch_slices == [2]

    def test_infinite_variance_is_rejected(self):
        stack = np.stack([np.eye(2)] * 3)
        stack[1, 0, 0] = np.inf
        with pytest.raises(
            np.linalg.LinAlgError, match="^K at step 1 has a non-finite entry$"
        ) as info:
            spd_cholesky(stack, "K", names=[f"step {i}" for i in range(3)])
        assert info.value.batch_slices == [1]

    def test_empty_and_nonsquare(self):
        assert spd_cholesky(np.zeros((0, 2, 2))).shape == (0, 2, 2)
        assert spd_cholesky(np.zeros((3, 0, 0))).shape == (3, 0, 0)
        with pytest.raises(ValueError, match="square"):
            spd_cholesky(np.zeros((2, 2, 3)))


class TestWhitenEach:
    @given(n=sizes, count=st.integers(1, 6))
    def test_rows_equal_single_whitening(self, n, count):
        covs = np.stack([spd(n, seed=3 * n + b) for b in range(count)])
        vectors = np.random.default_rng(n).standard_normal((count, n))
        white = whiten_each(spd_cholesky(covs), vectors)
        for b in range(count):
            assert np.array_equal(white[b], Whitener(covs[b]).whiten(vectors[b]))

    def test_float32_factors_whiten_float64_rows(self):
        covs = np.stack([spd(3, seed=b) for b in range(4)]).astype(np.float32)
        vectors = np.random.default_rng(0).standard_normal((4, 3))
        white = whiten_each(spd_cholesky(covs), vectors)
        assert white.dtype == np.float64
        for b in range(4):
            assert np.array_equal(white[b], Whitener(covs[b]).whiten(vectors[b]))


class TestWhitener:
    @given(sizes)
    def test_whitening_normalizes_covariance(self, n):
        """V K V^T = I, i.e. V^T V = K^{-1} as the paper requires."""
        k = spd(n, seed=n + 10)
        w = Whitener(k)
        v = w.whiten(np.eye(n))
        assert np.allclose(v @ k @ v.T, np.eye(n), atol=1e-8)

    def test_identity_kind_is_noop(self):
        w = Whitener.identity(3)
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(w.whiten(x), x)

    def test_scaled_identity(self):
        w = Whitener.scaled_identity(2, stddev=4.0)
        assert np.allclose(w.whiten(np.ones(2)), 0.25 * np.ones(2))
        assert np.allclose(w.covariance(), 16.0 * np.eye(2))

    def test_factor_kind(self):
        s = np.array([[2.0, 0.0], [1.0, 3.0]])
        w = Whitener(s, kind="factor")
        assert np.allclose(w.covariance(), s @ s.T)

    def test_factor_kind_rejects_bad_diagonal(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive diagonal"):
            Whitener(np.array([[0.0, 0.0], [1.0, 1.0]]), kind="factor")

    def test_factor_kind_rejects_nan_diagonal(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive diagonal"):
            Whitener(np.array([[np.nan, 0.0], [1.0, 1.0]]), kind="factor")

    def test_dim_mismatch_raises(self):
        w = Whitener(spd(3))
        with pytest.raises(ValueError, match="cannot whiten"):
            w.whiten(np.ones((4, 2)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown whitener kind"):
            Whitener(kind="bogus", dim=2)

    def test_scaled_identity_rejects_nonpositive(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive"):
            Whitener.scaled_identity(2, stddev=0.0)

    def test_identity_requires_dim(self):
        with pytest.raises(ValueError, match="dim"):
            Whitener(kind="identity")

    @given(sizes)
    def test_whitened_noise_is_standard(self, n):
        """Whitening samples of N(0, K) gives unit sample covariance."""
        k = spd(n, seed=n + 30)
        w = Whitener(k)
        rng = np.random.default_rng(n)
        chol = np.linalg.cholesky(k)
        samples = chol @ rng.standard_normal((n, 20000))
        white = w.whiten(samples)
        cov = white @ white.T / 20000
        assert np.allclose(cov, np.eye(n), atol=0.1)


class TestSpdSolve:
    @given(sizes)
    def test_solves(self, n):
        a = spd(n, seed=n + 40)
        b = np.random.default_rng(n).standard_normal((n, 2))
        assert np.allclose(a @ spd_solve(a, b), b, atol=1e-8)

    def test_vector_rhs(self):
        a = spd(4, seed=3)
        b = np.ones(4)
        assert np.allclose(a @ spd_solve(a, b), b, atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            spd_solve(-np.eye(3), np.ones(3))
