"""Levenberg–Marquardt nonlinear Kalman smoothing (paper §5.4, ref. [17]).

Särkkä & Svensson (2020) stabilize the iterated smoother by damping:
each iteration solves the linearized problem *augmented with a
regularization observation* ``sqrt(lambda) I (u_i - u^0_i) = 0`` on
every state, then accepts or rejects the step based on the true
objective and adapts ``lambda``.

This is the workload the paper's NC variants are optimized for: the
damped inner problems are solved many times and never need covariance
matrices, so the Odd-Even NC / Paige–Saunders NC configurations skip
the SelInv phase entirely (§5.4, §6) — an optimization the RTS and
Associative smoothers cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api import Capabilities, EstimatorConfig, SmootherBase, coerce_smoother
from ..api.base import _cast_result
from ..kalman.result import SmootherResult
from ..model.problem import StateSpaceProblem
from ..model.steps import Observation, Step
from .batched import IterateState, drive_batched, linearize_dtype
from .ekf import extended_kalman_filter
from .gauss_newton import _inner_nc

__all__ = ["LevenbergMarquardtSmoother", "damp_problem", "LMTrace"]


def damp_problem(
    linear: StateSpaceProblem,
    reference: list[np.ndarray],
    lam: float,
) -> StateSpaceProblem:
    """Augment a linearized problem with LM damping observations.

    Adds, for every state ``i``, the observation ``I u_i = u^0_i`` with
    covariance ``(1/lambda) I`` — equivalently appending
    ``sqrt(lambda)(u_i - u^0_i)`` rows to the least-squares system.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        return linear
    steps = []
    for i, step in enumerate(linear.steps):
        n = step.state_dim
        ref = np.asarray(reference[i], dtype=float)
        damp = Observation(G=np.eye(n), o=ref, L=(1.0 / lam) * np.eye(n))
        if step.observation is None:
            merged = damp
        else:
            obs = step.observation
            # Stack the real observation rows with the damping rows;
            # the joint covariance is block diagonal, expressed here by
            # whitening each block with its own factor.
            g = np.vstack([obs.G, damp.G])
            o = np.concatenate([obs.o, damp.o])
            l_top = obs.L.covariance()
            l_cov = np.zeros((g.shape[0], g.shape[0]))
            m = obs.rows
            l_cov[:m, :m] = l_top
            l_cov[m:, m:] = damp.L.covariance()
            merged = Observation(G=g, o=o, L=l_cov)
        steps.append(
            Step(
                state_dim=n,
                evolution=step.evolution,
                observation=merged,
            )
        )
    return StateSpaceProblem(steps, prior=linear.prior)


@dataclass
class LMTrace:
    """Per-iteration record of the damping schedule."""

    objectives: list[float] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.accepted)


class LevenbergMarquardtSmoother(SmootherBase):
    """Damped iterated smoother with NC inner solves.

    Parameters
    ----------
    inner:
        Linear smoother for the damped subproblems — any
        :class:`~repro.api.Smoother` or a registered name; defaults to
        ``BatchSmoother(method="odd-even")``.  ``smooth`` and
        ``smooth_many`` both drive it through
        :func:`~repro.nonlinear.batched.drive_batched`: each outer
        iteration solves the damped problems of every not-yet-converged
        problem in ONE ``smooth_many`` call, in NC mode where the inner
        supports it, and one final pass computes the covariances of the
        *undamped* linearization at the solution.
    lambda0, lambda_up, lambda_down:
        Initial damping and the multiplicative adaptation factors on
        rejected/accepted steps.
    """

    name = "levenberg-marquardt"
    capabilities = Capabilities(
        needs_prior=True, supports_rectangular_obs=False, iterative=True
    )

    def __init__(
        self,
        inner=None,
        max_iterations: int = 50,
        tol: float = 1e-9,
        lambda0: float = 1e-2,
        lambda_up: float = 10.0,
        lambda_down: float = 0.1,
        max_lambda: float = 1e12,
    ):
        if inner is None:
            from ..batch.smoother import BatchSmoother

            inner = BatchSmoother(method="odd-even")
        self.inner = coerce_smoother(inner)
        self.max_iterations = max_iterations
        self.tol = tol
        self.lambda0 = lambda0
        self.lambda_up = lambda_up
        self.lambda_down = lambda_down
        self.max_lambda = max_lambda

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
        """Batched LM: one stacked damped solve per outer iteration.

        Each problem keeps its own damping schedule and accept/reject
        decisions; only the inner linear solves are stacked (see
        :func:`~repro.nonlinear.batched.drive_batched`).  Slice ``j``
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
            else extended_kalman_filter(problem)
        )
        state = IterateState(problem=problem, trajectory=trajectory)
        trace = LMTrace()
        state.objective = state.objective_at(trajectory)
        trace.objectives.append(state.objective)
        state.extra["trace"] = trace
        state.extra["lam"] = self.lambda0
        return state

    def _batch_emit(self, state, config):
        linear = state.linearize(dtype=linearize_dtype(config))
        return damp_problem(linear, state.trajectory, state.extra["lam"])

    def _batch_emit_final(self, state, config):
        return state.linearize(dtype=linearize_dtype(config))

    def _batch_absorb(self, state, result, config) -> None:
        trace: LMTrace = state.extra["trace"]
        lam = state.extra["lam"]
        candidate = [np.asarray(m, dtype=float) for m in result.means]
        new_obj = state.objective_at(candidate)
        current_obj = state.objective
        if new_obj <= current_obj:
            step_norm = np.sqrt(
                sum(
                    float((a - b) @ (a - b))
                    for a, b in zip(candidate, state.trajectory)
                )
            )
            state.trajectory = candidate
            improvement = current_obj - new_obj
            state.objective = new_obj
            lam = max(lam * self.lambda_down, 1e-12)
            trace.accepted.append(True)
            trace.objectives.append(new_obj)
            trace.lambdas.append(lam)
            scale = np.sqrt(sum(float(a @ a) for a in candidate))
            if step_norm <= self.tol * max(scale, 1.0) or (
                improvement <= self.tol * max(new_obj, 1.0)
            ):
                trace.converged = True
                state.done = True
        else:
            lam *= self.lambda_up
            trace.accepted.append(False)
            trace.objectives.append(current_obj)
            trace.lambdas.append(lam)
            if lam > self.max_lambda:
                state.done = True
        state.extra["lam"] = lam

    def _batch_result(self, state, covariances, config) -> SmootherResult:
        trace: LMTrace = state.extra["trace"]
        return SmootherResult(
            means=state.trajectory,
            covariances=covariances,
            residual_sq=state.objective,
            algorithm=f"levenberg-marquardt[{self.inner.name}]",
            diagnostics={
                "iterations": trace.iterations,
                "converged": trace.converged,
                "final_lambda": state.extra["lam"],
                "trace": trace,
            },
        )
