"""Float32 stays float32 through the per-sequence sweeps.

Regression tests for the float64-promotion sweep: empty carries,
``np.zeros``/``np.eye`` workspaces, and ``np.asarray(..., dtype=float)``
coercions used to silently promote a float32 pipeline back to float64,
bypassing :func:`repro.linalg.triangular.as_working_dtype`.
"""

import numpy as np
import pytest

import repro
from repro.api import EstimatorConfig
from repro.core.orthogonal_cov import covariance_factors_orthogonal
from repro.core.solve import oddeven_back_substitute
from repro.core.oddeven_qr import oddeven_factorize
from repro.kalman.kf import kf_predict, kf_update
from repro.kalman.paige_saunders import paige_saunders_factorize
from repro.kalman.standard_form import StandardStep
from repro.model.problem import StateSpaceProblem, WhitenedProblem, WhitenedStep
from repro.model.steps import (
    Evolution,
    GaussianPrior,
    Observation,
    Step,
)


def _float32_white(k=5, dims=2, seed=3) -> WhitenedProblem:
    """A whitened problem with every block cast to float32."""
    white = repro.random_problem(k=k, seed=seed, dims=dims).whiten()
    steps = []
    for ws in white.steps:
        step = WhitenedStep(
            index=ws.index,
            n=ws.n,
            C=ws.C.astype(np.float32),
            rhs_C=ws.rhs_C.astype(np.float32),
        )
        if ws.B is not None:
            step.B = ws.B.astype(np.float32)
            step.D = ws.D.astype(np.float32)
            step.rhs_BD = ws.rhs_BD.astype(np.float32)
        steps.append(step)
    return WhitenedProblem(steps=steps)


class TestFloat32SweepsStayFloat32:
    def test_paige_saunders_factor_blocks(self):
        factor = paige_saunders_factorize(_float32_white())
        assert all(d.dtype == np.float32 for d in factor.diag)
        assert all(o.dtype == np.float32 for o in factor.offdiag)
        assert all(r.dtype == np.float32 for r in factor.rhs)

    def test_orthogonal_covariance_factors(self):
        factor = paige_saunders_factorize(_float32_white())
        for c in covariance_factors_orthogonal(factor):
            assert c.dtype == np.float32

    def test_oddeven_solution_states(self):
        factor = oddeven_factorize(_float32_white())
        states = oddeven_back_substitute(factor)
        assert all(u.dtype == np.float32 for u in states)

    def test_kf_joseph_update(self):
        n = 3
        step = StandardStep(
            n=n,
            G=np.eye(n, dtype=np.float32),
            o=np.ones(n, dtype=np.float32),
            R=np.eye(n, dtype=np.float32),
        )
        m = np.zeros(n, dtype=np.float32)
        p = np.eye(n, dtype=np.float32)
        m_new, p_new = kf_update(m, p, step)
        assert m_new.dtype == np.float32
        assert p_new.dtype == np.float32

    def test_kf_predict(self):
        n = 3
        step = StandardStep(
            n=n,
            F=np.eye(n, dtype=np.float32),
            c=np.zeros(n, dtype=np.float32),
            Q=np.eye(n, dtype=np.float32),
        )
        m, p = kf_predict(
            np.ones(n, dtype=np.float32),
            np.eye(n, dtype=np.float32),
            step,
        )
        assert m.dtype == np.float32
        assert p.dtype == np.float32


class TestConfigDtypeOnPerSequenceSmoothers:
    def test_paige_saunders_float32_outputs(self):
        """A non-batched smoother honors dtype=float32 end to end."""
        problem = repro.random_problem(k=5, seed=1, dims=2)
        result = repro.PaigeSaundersSmoother().smooth(
            problem, config=EstimatorConfig(dtype=np.float32)
        )
        assert all(m.dtype == np.float32 for m in result.means)
        assert all(c.dtype == np.float32 for c in result.covariances)

    def test_float64_unchanged(self):
        """The default pipeline is untouched by the dtype fixes."""
        problem = repro.random_problem(k=5, seed=1, dims=2)
        base = repro.PaigeSaundersSmoother().smooth(problem)
        assert all(m.dtype == np.float64 for m in base.means)
        again = repro.PaigeSaundersSmoother().smooth(problem)
        for a, b in zip(base.means, again.means):
            np.testing.assert_array_equal(a, b)


class TestFloat32ProblemsSmoothInFloat32:
    @staticmethod
    def problem(observe_first: bool, prior: bool = False):
        """Six float32 steps, step 0 observed or not, with or without a
        float32 prior."""
        rng = np.random.default_rng(7)

        def draw(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        steps = []
        for i in range(6):
            evo = None
            if i:
                f = (np.eye(2) + 0.1 * draw(2, 2)).astype(np.float32)
                evo = Evolution(F=f, c=draw(2))
            obs = None
            if i or observe_first:
                obs = Observation(G=draw(2, 2), o=draw(2))
            steps.append(Step(state_dim=2, evolution=evo, observation=obs))
        if prior:
            return StateSpaceProblem(steps, prior=GaussianPrior(draw(2)))
        return StateSpaceProblem(steps)

    @pytest.mark.parametrize("observe_first", [True, False])
    def test_odd_even_keeps_float32(self, observe_first):
        """An unobserved first step's empty block takes the problem's
        working dtype, which the factorization then works in."""
        problem = self.problem(observe_first)
        assert problem.whiten().steps[0].C.dtype == np.float32
        result = repro.make_smoother("odd-even").smooth(problem)
        assert all(m.dtype == np.float32 for m in result.means)
        assert all(c.dtype == np.float32 for c in result.covariances)


    @pytest.mark.parametrize("name", ["odd-even", "paige-saunders"])
    @pytest.mark.parametrize("observe_first", [True, False])
    def test_a_float32_prior_keeps_float32(self, name, observe_first):
        """The prior's rows are built in its mean's dtype."""
        problem = self.problem(observe_first, prior=True)
        result = repro.make_smoother(name).smooth(problem)
        assert all(m.dtype == np.float32 for m in result.means)
        assert all(c.dtype == np.float32 for c in result.covariances)
