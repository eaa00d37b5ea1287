"""Cross-backend agreement for the stacked smoothers.

Every installed backend must agree with the Paige–Saunders oracle to
1e-6 and replay bit-identically from the plan cache.  The "mirror"
backend (numpy in disguise, always installed) additionally proves via
its call counters that the kernels actually routed through the
namespace shim rather than falling back to hard ``np.*`` calls.
"""

import importlib.util

import numpy as np
import pytest

import repro
from repro.api import EstimatorConfig
from repro.batch import BatchSmoother
from repro.batch.plan import PlanCache
from repro.core.stacked import STACK_SLICES
from repro.kalman.associative import AssociativeSmoother
from repro.kalman.paige_saunders import PaigeSaundersSmoother
from repro.linalg.xp import mirror_call_counts, reset_mirror_counts

BACKENDS = ["mirror"] + (
    ["torch"] if importlib.util.find_spec("torch") is not None else []
)


@pytest.fixture(scope="module")
def problems():
    return [repro.random_problem(k=k, seed=s, dims=2)
            for s, k in enumerate((5, 5, 7, 9))]


@pytest.fixture(scope="module")
def oracle(problems):
    smoother = PaigeSaundersSmoother()
    return [smoother.smooth(p) for p in problems]


@pytest.fixture(scope="module")
def long_fleet():
    """Mixed state dims, missing observations and sequences longer than
    ``STACK_SLICES``: the odd-even stage groups span runs and stacks, so
    the engine's gathers concatenate as well as slice."""
    k = STACK_SLICES + 21
    dims = [2 + (i * 5) % 3 for i in range(k + 1)]
    fleet = [
        repro.random_problem(
            k, seed=s, dims=dims, obs_prob=0.7, random_cov=True
        )
        for s in (1, 2)
    ]
    fleet.append(
        repro.random_problem(2 * STACK_SLICES + 11, seed=3, obs_prob=0.7)
    )
    return fleet


def assert_matches_oracle(results, oracle, atol=1e-6):
    for res, ref in zip(results, oracle):
        assert all(type(m) is np.ndarray for m in res.means)
        for i in range(len(ref.means)):
            np.testing.assert_allclose(
                res.means[i], ref.means[i], atol=atol
            )
            if res.covariances is not None:
                np.testing.assert_allclose(
                    res.covariances[i], ref.covariances[i], atol=atol
                )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["odd-even", "associative"])
class TestBatchSmootherBackends:
    def test_agrees_with_oracle(self, method, backend, problems, oracle):
        sm = BatchSmoother(method=method)
        cfg = EstimatorConfig(
            array_module=backend, plan_cache=PlanCache()
        )
        assert_matches_oracle(sm.smooth_many(problems, config=cfg), oracle)
        assert sm.last_diagnostics["array_backend"] == backend

    def test_plan_replay_is_bit_identical(
        self, method, backend, problems, oracle
    ):
        sm = BatchSmoother(method=method)
        cfg = EstimatorConfig(
            array_module=backend, plan_cache=PlanCache()
        )
        first = sm.smooth_many(problems, config=cfg)
        replay = sm.smooth_many(problems, config=cfg)
        assert sm.last_diagnostics["plan_cache"]["hit"] is True
        for a, b in zip(first, replay):
            for i in range(len(a.means)):
                np.testing.assert_array_equal(a.means[i], b.means[i])

    def test_matches_numpy_run(self, method, backend, problems, oracle):
        """Backend runs agree with the plain-numpy run to 1e-6
        (bit-identical for mirror, which *is* numpy)."""
        sm = BatchSmoother(method=method)
        base = sm.smooth_many(problems)
        cfg = EstimatorConfig(
            array_module=backend, plan_cache=PlanCache()
        )
        routed = sm.smooth_many(problems, config=cfg)
        assert_fn = (
            np.testing.assert_array_equal
            if backend == "mirror"
            else lambda a, b: np.testing.assert_allclose(a, b, atol=1e-6)
        )
        for r, b in zip(routed, base):
            for i in range(len(r.means)):
                assert_fn(r.means[i], b.means[i])


@pytest.mark.parametrize("backend", BACKENDS)
class TestLongMixedFleet:
    def test_agrees_with_oracle(self, backend, long_fleet):
        oracle = [PaigeSaundersSmoother().smooth(p) for p in long_fleet]
        cfg = EstimatorConfig(array_module=backend, plan_cache=PlanCache())
        results = BatchSmoother().smooth_many(long_fleet, config=cfg)
        assert_matches_oracle(results, oracle)

    def test_replays_bit_for_bit(self, backend, long_fleet):
        """A plan-cache replay repeats the first run's bits and, on the
        mirror, its routed calls; the mirror's bits are numpy's."""
        sm = BatchSmoother()
        cfg = EstimatorConfig(array_module=backend, plan_cache=PlanCache())
        runs, counts = [], []
        for _ in range(2):
            reset_mirror_counts()
            runs.append(sm.smooth_many(long_fleet, config=cfg))
            counts.append(mirror_call_counts())
        reset_mirror_counts()
        assert sm.last_diagnostics["plan_cache"]["hit"] is True
        expected = [runs[0]]
        if backend == "mirror":
            assert counts[0] == counts[1]
            assert counts[0].get("linalg.qr", 0) > 0
            expected.append(sm.smooth_many(long_fleet))
        for reference in expected:
            for res, ref in zip(runs[1], reference):
                for name in ("means", "covariances"):
                    for a, b in zip(getattr(res, name), getattr(ref, name)):
                        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
class TestAssociativeSmootherBackends:
    def test_agrees_with_oracle(self, backend, problems, oracle):
        sm = AssociativeSmoother()
        cfg = EstimatorConfig(array_module=backend)
        for problem, ref in zip(problems, oracle):
            res = sm.smooth(problem, config=cfg)
            for i in range(len(ref.means)):
                np.testing.assert_allclose(
                    res.means[i], ref.means[i], atol=1e-6
                )
                np.testing.assert_allclose(
                    res.covariances[i], ref.covariances[i], atol=1e-6
                )


class TestMirrorProvesRouting:
    @pytest.mark.parametrize("method", ["odd-even", "associative"])
    def test_stacked_kernels_route_through_the_namespace(
        self, method, problems
    ):
        """Stacking runs on the host; everything after it must run in
        the selected namespace."""
        reset_mirror_counts()
        sm = BatchSmoother(method=method)
        cfg = EstimatorConfig(
            array_module="mirror", plan_cache=PlanCache()
        )
        sm.smooth_many(problems, config=cfg)
        counts = mirror_call_counts()
        assert counts, f"{method}: no calls routed through the shim"
        # Both paths lean on batched solves; their absence means a
        # kernel regressed to hard np.* calls.
        assert counts.get("linalg.solve", 0) > 0
        reset_mirror_counts()

    def test_numpy_run_never_touches_the_mirror(self, problems):
        reset_mirror_counts()
        BatchSmoother().smooth_many(problems)
        assert mirror_call_counts() == {}


class TestNumpyOnlyEnvironmentsUnaffected:
    def test_default_config_reports_numpy(self, problems):
        sm = BatchSmoother()
        sm.smooth_many(problems)
        assert sm.last_diagnostics["array_backend"] == "numpy"

    def test_mixed_precision_composes_with_backends(self, problems, oracle):
        sm = BatchSmoother()
        cfg = EstimatorConfig(
            array_module="mirror", dtype="mixed", plan_cache=PlanCache()
        )
        results = sm.smooth_many(problems, config=cfg)
        for res, ref in zip(results, oracle):
            assert res.diagnostics["solve_dtype"] == "float32"
            for i in range(len(ref.means)):
                np.testing.assert_allclose(
                    res.means[i], ref.means[i], atol=1e-4
                )
