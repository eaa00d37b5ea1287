"""The iterated Kalman smoother as Gauss–Newton (paper §2.2, ref. [16]).

Each iteration linearizes the nonlinear problem at the current
trajectory and solves the resulting *linear* Kalman smoothing problem
— with any of the linear smoothers in this package as the inner solver.
Bell (1994) showed this is exactly Gauss–Newton on the maximum-
likelihood objective (paper eq. 4).  The inner solves never need
covariances, which is why the NC variants exist (§5.4); covariances of
the final trajectory come from one extra covariance pass at the
solution.

Through the :mod:`repro.api` surface this smoother also accepts
*linear* :class:`~repro.model.problem.StateSpaceProblem` inputs (lifted
via :func:`~repro.model.nonlinear.as_nonlinear`), on which it converges
in one exact step — so it participates in the registry-driven
agreement suite like every other estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase, coerce_smoother
from ..api.base import _cast_result
from ..kalman.result import SmootherResult
from ..model.nonlinear import NonlinearProblem
from .batched import IterateState, drive_batched, linearize_dtype
from .ekf import extended_kalman_filter

__all__ = ["GaussNewtonSmoother", "GaussNewtonTrace"]


def _inner_nc(inner) -> bool | None:
    """The NC request for an inner smoother's iteration solves.

    ``False`` (skip covariances) when the inner supports the NC
    variant — the optimization the paper's §5.4 is about.  ``None``
    (unset, let the inner do its thing) for smoothers like RTS that
    carry covariances intrinsically, so using them as the inner solver
    keeps working instead of tripping the capability check on an
    internally generated request.
    """
    return False if inner.capabilities.supports_nc else None


@dataclass
class GaussNewtonTrace:
    """Per-iteration objective values and step norms."""

    objectives: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.step_norms)


class GaussNewtonSmoother(SmootherBase):
    """Iterated nonlinear Kalman smoother (Gauss–Newton steps).

    Parameters
    ----------
    inner:
        Linear smoother for the inner solves — any
        :class:`~repro.api.Smoother` or a registered name; defaults to
        ``BatchSmoother(method="odd-even")``.  ``smooth`` and
        ``smooth_many`` both drive it through
        :func:`~repro.nonlinear.batched.drive_batched`: each outer
        iteration solves the linearized problems of every
        not-yet-converged problem in ONE ``smooth_many`` call, in NC
        mode where the inner supports it, and one final pass computes
        the covariances.
    max_iterations, tol:
        Stop when the relative step norm falls below ``tol`` or after
        ``max_iterations`` linearizations.
    line_search:
        ``True`` enables Armijo backtracking along the Gauss–Newton
        direction — the "line-search extended Kalman smoother" of
        Särkkä & Svensson (paper ref. [17]).  Full steps can diverge or
        cycle on strongly nonlinear batches; damped steps guarantee a
        monotone objective.
    armijo_c, backtrack:
        Sufficient-decrease constant and step-shrink factor for the
        line search.
    """

    name = "gauss-newton"
    capabilities = Capabilities(
        needs_prior=True, supports_rectangular_obs=False, iterative=True
    )

    def __init__(
        self,
        inner=None,
        max_iterations: int = 25,
        tol: float = 1e-9,
        line_search: bool = False,
        armijo_c: float = 1e-4,
        backtrack: float = 0.5,
        min_step: float = 1e-8,
    ):
        if inner is None:
            from ..batch.smoother import BatchSmoother

            inner = BatchSmoother(method="odd-even")
        self.inner = coerce_smoother(inner)
        self.max_iterations = max_iterations
        self.tol = tol
        self.line_search = line_search
        self.armijo_c = armijo_c
        self.backtrack = backtrack
        self.min_step = min_step

    def initial_trajectory(
        self, problem: NonlinearProblem
    ) -> list[np.ndarray]:
        """EKF forward pass (the paper's suggested initializer)."""
        return extended_kalman_filter(problem)

    def _smooth(
        self,
        problem,
        config: EstimatorConfig,
        *,
        initial: list[np.ndarray] | None = None,
    ) -> SmootherResult:
        return drive_batched(self, [problem], config, initials=[initial])[0]

    def smooth_many(
        self,
        problems,
        *,
        config: EstimatorConfig | None = None,
    ) -> list[SmootherResult]:
        """Batched Gauss–Newton: one stacked inner solve per iteration.

        Every not-yet-converged problem's linearization joins a single
        ``inner.smooth_many`` call per outer iteration, while the line
        search and the convergence test stay per problem.  Slice ``j``
        equals ``smooth(problems[j])``, which drives the same loop with
        a workload of one.
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

    # ------------------------------------------------------------------
    # drive_batched hooks (see repro.nonlinear.batched)
    # ------------------------------------------------------------------
    def _batch_iteration_covariance(self):
        return _inner_nc(self.inner)

    def _batch_final_cov_pass(self) -> bool:
        return True

    def _batch_begin(self, problem, config, initial):
        trajectory = (
            [np.asarray(x, dtype=float) for x in initial]
            if initial is not None
            else self.initial_trajectory(problem)
        )
        state = IterateState(problem=problem, trajectory=trajectory)
        trace = GaussNewtonTrace()
        state.objective = state.objective_at(trajectory)
        trace.objectives.append(state.objective)
        state.extra["trace"] = trace
        return state

    def _batch_emit(self, state, config):
        return state.linearize(dtype=linearize_dtype(config))

    _batch_emit_final = _batch_emit

    def _batch_absorb(self, state, result, config) -> None:
        trace: GaussNewtonTrace = state.extra["trace"]
        trajectory = state.trajectory
        means = [np.asarray(m, dtype=float) for m in result.means]
        direction = [a - b for a, b in zip(means, trajectory)]
        alpha = 1.0
        new_traj = means
        if self.line_search:
            # Armijo backtracking on the true nonlinear objective: the
            # GN direction is a descent direction of eq. (4), so a
            # sufficient-decrease step always exists.
            current_obj = state.objective
            while alpha >= self.min_step:
                candidate = [
                    t + alpha * d for t, d in zip(trajectory, direction)
                ]
                cand_obj = state.objective_at(candidate)
                if cand_obj <= current_obj - self.armijo_c * alpha * sum(
                    float(d @ d) for d in direction
                ):
                    new_traj = candidate
                    break
                alpha *= self.backtrack
            else:
                # No acceptable step: (numerical) stationarity.
                trace.converged = True
                state.done = True
                return
        num = alpha * np.sqrt(sum(float(d @ d) for d in direction))
        den = np.sqrt(sum(float(a @ a) for a in new_traj))
        state.trajectory = new_traj
        state.objective = state.objective_at(new_traj)
        trace.step_norms.append(num)
        trace.objectives.append(state.objective)
        if num <= self.tol * max(den, 1.0):
            trace.converged = True
            state.done = True

    def _batch_result(self, state, covariances, config) -> SmootherResult:
        trace: GaussNewtonTrace = state.extra["trace"]
        return SmootherResult(
            means=state.trajectory,
            covariances=covariances,
            residual_sq=trace.objectives[-1],
            algorithm=f"gauss-newton[{self.inner.name}]",
            diagnostics={
                "iterations": trace.iterations,
                "converged": trace.converged,
                "trace": trace,
            },
        )
