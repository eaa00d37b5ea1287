"""Iterated posterior-linearization smoothing on the batched engine.

Yaghoobi, Corenflos, Hassan & Särkkä ("Parallel Iterated Extended and
Sigma-point Kalman Smoothers") turn nonlinear smoothing into a
fixed-point iteration over *linear* smoothing problems: linearize
every model function by statistical linear regression (SLR) against
the current smoothed marginals ``N(m_i, P_i)``, solve the resulting
linear-Gaussian problem exactly, and repeat around the new posterior.
Unlike Gauss–Newton's point linearization, SLR produces the best
affine fit over the whole marginal *plus* a residual covariance that
inflates the step noise — so the iteration accounts for how wrong the
linear model is where the posterior actually lives.

:class:`IteratedPosteriorLinearizationSmoother` runs that iteration
with any :class:`~repro.model.nonlinear.Linearizer` (sigma-point SLR
by default; the Jacobian linearizer recovers the iterated extended
Kalman smoother) and drives every inner solve through the stacked
:class:`~repro.batch.BatchSmoother` kernels via the shared
:func:`~repro.nonlinear.batched.drive_batched` driver.  ``smooth`` is
literally a workload of one, so ``smooth_many`` over N problems is
bit-identical to the per-problem loop while issuing ONE stacked
linear solve per outer iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..api import Capabilities, EstimatorConfig, SmootherBase, coerce_smoother
from ..api.base import _cast_result
from ..kalman.result import SmootherResult
from ..model.nonlinear import Linearizer, SigmaPointLinearizer
from .batched import IterateState, drive_batched, linearize_dtype
from .ekf import extended_kalman_filter
from .gauss_newton import _inner_nc

__all__ = ["IteratedPosteriorLinearizationSmoother", "IPLSTrace"]


@dataclass
class IPLSTrace:
    """Per-iteration objectives and damped step norms."""

    objectives: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.step_norms)


class IteratedPosteriorLinearizationSmoother(SmootherBase):
    """Iterated posterior-linearization (sigma-point) smoother.

    Parameters
    ----------
    linearizer:
        :class:`~repro.model.nonlinear.Linearizer` producing the
        per-iteration affine surrogates.  Defaults to
        :class:`~repro.model.nonlinear.SigmaPointLinearizer` (cubature
        weights); pass a
        :class:`~repro.model.nonlinear.JacobianLinearizer` for the
        iterated extended Kalman smoother on the same driver.
    inner:
        Linear smoother for the inner solves — any
        :class:`~repro.api.Smoother` or registered name; defaults to
        ``BatchSmoother(method="odd-even")``.  ``smooth`` and
        ``smooth_many`` both drive it through
        :func:`~repro.nonlinear.batched.drive_batched`, one
        ``smooth_many`` call per outer iteration.  Statistical
        linearizers need the smoothed covariances every iteration, so
        the inner runs with covariances on; point linearizers iterate
        in NC mode with one final covariance pass.
    max_iterations, tol, obj_tol:
        Outer iterations stop when the damped relative step norm falls
        below ``tol`` *or* the objective change falls below
        ``obj_tol`` (relative), whichever first.
    damping:
        Step damping ``gamma`` in ``(0, 1]``: the next trajectory is
        ``u + gamma (solution - u)``.  ``1.0`` (default) is the plain
        posterior-linearization fixed-point step; smaller values trade
        speed for robustness on strongly nonlinear problems.
    """

    name = "ipls"
    capabilities = Capabilities(
        needs_prior=True, supports_rectangular_obs=False, iterative=True
    )

    def __init__(
        self,
        linearizer: Linearizer | None = None,
        inner=None,
        max_iterations: int = 25,
        tol: float = 1e-9,
        obj_tol: float = 1e-12,
        damping: float = 1.0,
    ):
        self.linearizer = (
            linearizer if linearizer is not None else SigmaPointLinearizer()
        )
        if inner is None:
            from ..batch.smoother import BatchSmoother

            inner = BatchSmoother(method="odd-even")
        self.inner = coerce_smoother(inner)
        if not 0.0 < damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {damping}")
        self.max_iterations = max_iterations
        self.tol = tol
        self.obj_tol = obj_tol
        self.damping = damping

    def smooth_many(
        self,
        problems,
        *,
        config: EstimatorConfig | None = None,
    ) -> list[SmootherResult]:
        """One stacked inner solve per outer iteration over the fleet.

        Bit-identical to ``[self.smooth(p) for p in problems]`` — the
        stacked kernels are slice-exact in the batch size and every
        damping/convergence decision is per-problem — but the
        linearized problems of all active (non-converged) problems
        share each iteration's plan-cached batched solve.
        """
        problems = list(problems)
        if not problems:
            return []
        resolved = self._resolve(problems[0], config)
        for p in problems[1:]:
            self._resolve(p, config)
        return [
            _cast_result(r, resolved.output_dtype)
            for r in drive_batched(self, problems, resolved)
        ]

    def _smooth(
        self,
        problem,
        config: EstimatorConfig,
        *,
        initial: list[np.ndarray] | None = None,
    ) -> SmootherResult:
        return drive_batched(self, [problem], config, initials=[initial])[0]

    # ------------------------------------------------------------------
    # drive_batched hooks
    # ------------------------------------------------------------------
    def _batch_iteration_covariance(self):
        if self.linearizer.needs_covariance:
            return True
        return _inner_nc(self.inner)

    def _batch_final_cov_pass(self) -> bool:
        # SLR iterations already carry the smoothed covariances of the
        # final linearized problem; only point linearizers need a
        # dedicated pass.
        return not self.linearizer.needs_covariance

    def _batch_begin(self, problem, config, initial) -> IterateState:
        if self.linearizer.needs_covariance:
            means, covariances = extended_kalman_filter(
                problem, return_covariances=True
            )
        else:
            means, covariances = extended_kalman_filter(problem), None
        trajectory = (
            [np.asarray(x, dtype=float) for x in initial]
            if initial is not None
            else means
        )
        state = IterateState(
            problem=problem, trajectory=trajectory, covariances=covariances
        )
        trace = IPLSTrace()
        state.objective = state.objective_at(trajectory)
        trace.objectives.append(state.objective)
        state.extra["trace"] = trace
        return state

    def _batch_emit(self, state: IterateState, config):
        return state.linearize(
            linearizer=self.linearizer,
            covariances=state.covariances,
            dtype=linearize_dtype(config),
        )

    _batch_emit_final = _batch_emit

    def _batch_absorb(self, state: IterateState, result, config) -> None:
        trace: IPLSTrace = state.extra["trace"]
        means = [np.asarray(m, dtype=float) for m in result.means]
        new_traj = [
            t + self.damping * (m - t)
            for t, m in zip(state.trajectory, means)
        ]
        step = np.sqrt(
            sum(
                float((a - b) @ (a - b))
                for a, b in zip(new_traj, state.trajectory)
            )
        )
        scale = np.sqrt(sum(float(a @ a) for a in new_traj))
        new_obj = state.objective_at(new_traj)
        obj_change = abs(state.objective - new_obj)
        state.trajectory = new_traj
        if result.covariances is not None:
            state.covariances = [
                np.asarray(c, dtype=float) for c in result.covariances
            ]
        state.objective = new_obj
        trace.step_norms.append(step)
        trace.objectives.append(new_obj)
        if step <= self.tol * max(scale, 1.0) or (
            obj_change <= self.obj_tol * max(abs(new_obj), 1.0)
        ):
            trace.converged = True
            state.done = True

    def _batch_result(
        self, state: IterateState, covariances, config
    ) -> SmootherResult:
        trace: IPLSTrace = state.extra["trace"]
        covs = covariances
        if covs is None and config.compute_covariance:
            covs = state.covariances
        if not config.compute_covariance:
            covs = None
        obs.get_registry().histogram("repro_ipls_iterations").observe(
            trace.iterations
        )
        return SmootherResult(
            means=state.trajectory,
            covariances=covs,
            residual_sq=trace.objectives[-1],
            algorithm=(
                f"ipls[{self.linearizer.name}"
                f"+{self.inner.name}]"
            ),
            diagnostics={
                "iterations": trace.iterations,
                "converged": trace.converged,
                "linearizer": self.linearizer.name,
                "trace": trace,
            },
        )
