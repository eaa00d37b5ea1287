"""Tests for the Särkkä–García-Fernández associative smoother."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.api import EstimatorConfig
from repro.kalman.associative import (
    AssociativeSmoother,
    combine_filtering,
    combine_smoothing,
    make_filtering_element,
)
from repro.kalman.kf import KalmanFilter
from repro.kalman.standard_form import to_standard_form
from repro.model.dense import assemble_dense
from repro.model.generators import (
    dimension_change_problem,
    random_problem,
)


def elements_for(p):
    m0, p0, steps = to_standard_form(p)
    return [
        make_filtering_element(s, first=(i == 0), m0=m0, p0=p0)
        for i, s in enumerate(steps)
    ]


def elements_close(a, b, tol=1e-8):
    return all(
        np.allclose(x, y, atol=tol)
        for x, y in (
            (a.a, b.a),
            (a.b, b.b),
            (a.c, b.c),
            (a.eta, b.eta),
            (a.j, b.j),
        )
    )


class TestAssociativity:
    @given(st.integers(min_value=0, max_value=40))
    def test_filtering_combine_is_associative(self, seed):
        """(a1 x a2) x a3 == a1 x (a2 x a3) — the property the whole
        parallel-scan construction rests on (ref. [3])."""
        p = random_problem(k=3, seed=seed, dims=2, random_cov=True)
        e = elements_for(p)
        left = combine_filtering(combine_filtering(e[1], e[2]), e[3])
        right = combine_filtering(e[1], combine_filtering(e[2], e[3]))
        assert elements_close(left, right)

    @given(st.integers(min_value=0, max_value=40))
    def test_smoothing_combine_is_associative(self, seed):
        from repro.kalman.associative import make_smoothing_element

        p = random_problem(k=3, seed=seed + 100, dims=2, random_cov=True)
        m0, p0, steps = to_standard_form(p)
        filt = KalmanFilter().filter(p)
        elems = [
            make_smoothing_element(
                filt.means[i],
                filt.covariances[i],
                steps[i + 1] if i < 3 else None,
            )
            for i in range(4)
        ]
        left = combine_smoothing(
            combine_smoothing(elems[0], elems[1]), elems[2]
        )
        right = combine_smoothing(
            elems[0], combine_smoothing(elems[1], elems[2])
        )
        assert np.allclose(left.e, right.e, atol=1e-8)
        assert np.allclose(left.g, right.g, atol=1e-8)
        assert np.allclose(left.ell, right.ell, atol=1e-8)


class TestFilteringScan:
    @pytest.mark.parametrize("seed", range(3))
    def test_prefix_gives_kalman_filter(self, seed):
        """Lemma 7 of ref. [3]: the prefix products are the filter."""
        p = random_problem(k=7, seed=seed, dims=3, random_cov=True)
        kf = KalmanFilter().filter(p)
        means = AssociativeSmoother().filter_means(p)
        for m_scan, m_kf in zip(means, kf.means):
            assert np.allclose(m_scan, m_kf, atol=1e-8)


class TestSmoother:
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9, 16])
    def test_matches_oracle(self, k, assert_blocks_close):
        p = random_problem(k=k, seed=k + 20, dims=3, random_cov=True)
        dense = assemble_dense(p)
        result = AssociativeSmoother().smooth(p)
        assert_blocks_close(result.means, dense.solve(), tol=1e-7)
        assert_blocks_close(
            result.covariances, dense.covariances(), tol=1e-7
        )

    def test_parallel_equals_sequential_scan(self, assert_blocks_close):
        p = random_problem(k=13, seed=30, dims=3)
        par = AssociativeSmoother(parallel=True).smooth(p)
        seq = AssociativeSmoother(parallel=False).smooth(p)
        assert_blocks_close(par.means, seq.means, tol=1e-9)
        assert_blocks_close(par.covariances, seq.covariances, tol=1e-9)

    def test_missing_observations(self, assert_blocks_close):
        p = random_problem(k=15, seed=31, dims=2, obs_prob=0.3)
        result = AssociativeSmoother().smooth(p)
        assert_blocks_close(
            result.means, assemble_dense(p).solve(), tol=1e-7
        )

    def test_covariance_cannot_be_skipped(self):
        """§5.4: the scans carry covariances, so there is no NC
        variant to ask for."""
        p = random_problem(k=8, seed=32, dims=2)
        assert AssociativeSmoother().smooth(p).covariances is not None
        with pytest.raises(ValueError, match="supports_nc"):
            AssociativeSmoother().smooth(
                p, config=EstimatorConfig(compute_covariance=False)
            )

    def test_requires_prior(self):
        p = random_problem(k=2, seed=33, with_prior=False)
        with pytest.raises(ValueError, match="prior"):
            AssociativeSmoother().smooth(p)

    def test_rejects_rectangular_h(self):
        p = dimension_change_problem(k=5)
        with pytest.raises(ValueError, match="rectangular H"):
            AssociativeSmoother().smooth(p)

    def test_work_overhead_vs_sequential_scan(self):
        """The parallel scan does roughly 2x the combines."""
        from repro.parallel.tally import measure_flops

        p = random_problem(k=64, seed=34, dims=3)
        _a, t_par = measure_flops(
            AssociativeSmoother(parallel=True).smooth, p
        )
        _b, t_seq = measure_flops(
            AssociativeSmoother(parallel=False).smooth, p
        )
        assert 1.2 < t_par.flops / t_seq.flops < 2.5
