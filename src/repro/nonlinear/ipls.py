"""Iterated nonlinear smoothing: one outer loop, three step rules.

Each outer iteration linearizes the nonlinear problem along the current
trajectory, solves the resulting *linear* Kalman smoothing problem with
an inner linear smoother, and steps towards its solution.  With
Jacobian linearization this is Gauss–Newton on the maximum-likelihood
objective (Bell 1994; paper eq. 4, §2.2, ref. [16]).  Yaghoobi,
Corenflos, Hassan & Särkkä ("Parallel Iterated Extended and Sigma-point
Kalman Smoothers") write the iterated extended smoother and the
posterior-linearization smoother as the same iteration with another
linearization.  :class:`IteratedSmoother` is that iteration;
:class:`GaussNewtonSmoother`, :class:`LevenbergMarquardtSmoother` and
:class:`IteratedPosteriorLinearizationSmoother` are its presets and
differ only in the linearizer and the step rule.  All run their inner
solves through :func:`~repro.nonlinear.batched.drive_batched`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..api import Capabilities, EstimatorConfig, SmootherBase, coerce_smoother
from ..api.base import _cast_result
from ..kalman.result import SmootherResult
from ..model.nonlinear import JacobianLinearizer, Linearizer, SigmaPointLinearizer
from ..model.problem import StateSpaceProblem
from ..model.steps import Observation, Step

# perfbench's traced pass times these two by patching this module's
# bindings, so the loop calls them through the names imported here.
from .batched import IterateState, drive_batched, linearize_dtype
from .ekf import extended_kalman_filter

__all__ = [
    "IteratedSmoother",
    "IterationTrace",
    "GaussNewtonSmoother",
    "LevenbergMarquardtSmoother",
    "IteratedPosteriorLinearizationSmoother",
    "damp_problem",
]


@dataclass
class IterationTrace:
    """Per-iteration record of one iterated smooth.

    ``objectives[0]`` is the objective at the start and
    ``objectives[i]`` the one after outer iteration ``i``;
    ``step_norms`` holds the norm of every step taken.
    Levenberg–Marquardt also records, per iteration, the damping after
    its update (``lambdas``) and whether the step was ``accepted``.
    """

    objectives: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1


def _norm(vectors) -> float:
    return np.sqrt(sum(float(v @ v) for v in vectors))


class IteratedSmoother(SmootherBase):
    """The outer loop the iterated smoothers share.

    Parameters
    ----------
    linearizer:
        :class:`~repro.model.nonlinear.Linearizer` producing the
        per-iteration affine surrogates.
    inner:
        Linear smoother for the inner solves — any
        :class:`~repro.api.Smoother` or a registered name; ``None``
        selects ``"batch-odd-even"``, ``BatchSmoother(method="odd-even")``.
    max_iterations, tol, obj_tol:
        Stop after ``max_iterations`` inner solves, or once the step
        norm falls below ``tol`` relative to the new trajectory's norm
        or, unless ``obj_tol`` is ``None``, the objective changes by
        less than ``obj_tol`` relative to the new objective.

    Under a point linearizer the inner solves run in NC mode, the
    workload the paper's NC variants are optimized for (§5.4), and one
    final pass computes the covariances at the solution; a statistical
    linearizer regresses against the smoothed marginals, so each of its
    inner solves carries them.  Linear
    :class:`~repro.model.problem.StateSpaceProblem` inputs are lifted
    via :func:`~repro.model.nonlinear.as_nonlinear`.  Subclasses supply
    the step rule, :meth:`_step`.
    """

    capabilities = Capabilities(
        needs_prior=True, supports_rectangular_obs=False, iterative=True
    )

    def __init__(
        self,
        linearizer: Linearizer,
        inner,
        max_iterations: int,
        tol: float,
        obj_tol: float | None,
    ):
        self.linearizer = linearizer
        self.inner = coerce_smoother(
            "batch-odd-even" if inner is None else inner
        )
        self.max_iterations = max_iterations
        self.tol = tol
        self.obj_tol = obj_tol

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
        """One stacked inner solve per outer iteration over the fleet.

        Every not-yet-converged problem's linearization joins a single
        ``inner.smooth_many`` call per outer iteration, while the step
        rule and the convergence test stay per problem.  Slice ``j``
        equals ``smooth(problems[j])``, which drives the same loop with
        a workload of one.
        """
        problems = list(problems)
        if not problems:
            return []
        resolved = [self._resolve(p, config) for p in problems][0]
        return [
            _cast_result(r, resolved.output_dtype)
            for r in drive_batched(self, problems, resolved)
        ]

    def _step(self, state: IterateState, means: list[np.ndarray]):
        """The step from ``state`` towards the inner solution ``means``.

        Returns the next iterate's ``(trajectory, objective,
        step_norm)``, or ``None`` to keep the current one; a rule that
        returns ``None`` records the iteration in ``state.trace``
        itself and may end the iteration (``state.done``).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # drive_batched hooks (see repro.nonlinear.batched)
    # ------------------------------------------------------------------
    def _batch_iteration_covariance(self):
        # ``None`` leaves inners that cannot skip covariances (RTS) at
        # their default instead of tripping their capability check.
        if self.linearizer.needs_covariance:
            return True
        return False if self.inner.capabilities.supports_nc else None

    def _batch_final_cov_pass(self) -> bool:
        return not self.linearizer.needs_covariance

    def _batch_begin(self, problem, initial) -> IterateState:
        covariances = None
        if self.linearizer.needs_covariance:
            trajectory, covariances = extended_kalman_filter(
                problem, return_covariances=True
            )
        elif initial is None:
            trajectory = extended_kalman_filter(problem)
        if initial is not None:
            trajectory = [np.asarray(x, dtype=float) for x in initial]
        state = IterateState(
            problem=problem, trajectory=trajectory, covariances=covariances
        )
        state.objective = state.objective_at(trajectory)
        state.trace = IterationTrace(objectives=[state.objective])
        return state

    def _batch_emit(self, state: IterateState, config) -> StateSpaceProblem:
        return state.problem.linearize(
            state.trajectory,
            linearizer=self.linearizer,
            covariances=state.covariances,
            dtype=linearize_dtype(config),
            groups=state.groups,
        )

    # Bound to this class's emit: a subclass that changes the iteration
    # emit (LM's damping) still ends with the plain linearization.
    _batch_emit_final = _batch_emit

    def _batch_absorb(self, state: IterateState, result) -> None:
        if self.linearizer.needs_covariance:
            state.covariances = [
                np.asarray(c, dtype=float) for c in result.covariances
            ]
        means = [np.asarray(m, dtype=float) for m in result.means]
        step = self._step(state, means)
        if step is None:
            return
        trajectory, objective, step_norm = step
        converged = step_norm <= self.tol * max(_norm(trajectory), 1.0) or (
            self.obj_tol is not None
            and abs(state.objective - objective)
            <= self.obj_tol * max(abs(objective), 1.0)
        )
        state.trajectory, state.objective = trajectory, objective
        state.trace.step_norms.append(step_norm)
        state.trace.objectives.append(objective)
        if converged:
            state.trace.converged = state.done = True

    def _batch_result(
        self, state: IterateState, covariances, config
    ) -> SmootherResult:
        trace = state.trace
        if covariances is None and config.compute_covariance:
            # no final pass: the last SLR iteration's covariances
            covariances = state.covariances
        reg = obs.get_registry()
        reg.histogram("repro_nonlinear_iterations", smoother=self.name).observe(
            trace.iterations
        )
        # inc(0) exports the series while every problem converges
        reg.counter("repro_nonlinear_nonconverged_total", smoother=self.name).inc(
            0.0 if trace.converged else 1.0
        )
        return SmootherResult(
            means=state.trajectory,
            covariances=covariances,
            residual_sq=state.objective,
            algorithm=f"{self.name}[{self.inner.name}]",
            diagnostics={
                "iterations": trace.iterations,
                "converged": trace.converged,
                "trace": trace,
            },
        )


class GaussNewtonSmoother(IteratedSmoother):
    """Iterated nonlinear Kalman smoother (Gauss–Newton steps).

    Jacobian linearization at the current trajectory; the step is the
    full Gauss–Newton step or an Armijo backtracking step along it.

    Parameters
    ----------
    inner, max_iterations, tol:
        As :class:`IteratedSmoother`; ``tol`` bounds the relative step
        norm (there is no objective test).
    line_search:
        ``True`` enables Armijo backtracking along the Gauss–Newton
        direction — the "line-search extended Kalman smoother" of
        Särkkä & Svensson (paper ref. [17]).  Full steps can diverge or
        cycle on strongly nonlinear batches; damped steps guarantee a
        monotone objective.
    armijo_c, backtrack, min_step:
        Sufficient-decrease constant in ``(0, 1)``, step-shrink factor
        in ``(0, 1)`` and the shortest step tried (``> 0``).  A search
        that finds no acceptable step stops at the current iterate as
        converged (numerical stationarity).
    """

    name = "gauss-newton"

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
        if not 0.0 < armijo_c < 1.0:
            raise ValueError(f"armijo_c must be in (0, 1), got {armijo_c}")
        if not 0.0 < backtrack < 1.0:
            raise ValueError(f"backtrack must be in (0, 1), got {backtrack}")
        if not min_step > 0.0:
            raise ValueError(f"min_step must be > 0, got {min_step}")
        super().__init__(JacobianLinearizer(), inner, max_iterations, tol, None)
        self.line_search = line_search
        self.armijo_c = armijo_c
        self.backtrack = backtrack
        self.min_step = min_step

    def _step(self, state, means):
        direction = [m - t for m, t in zip(means, state.trajectory)]
        if not self.line_search:
            return means, state.objective_at(means), _norm(direction)
        # Armijo backtracking on the true nonlinear objective: the GN
        # direction is a descent direction of eq. (4), so a
        # sufficient-decrease step always exists.
        squared = sum(float(d @ d) for d in direction)
        alpha = 1.0
        while alpha >= self.min_step:
            candidate = [t + alpha * d for t, d in zip(state.trajectory, direction)]
            objective = state.objective_at(candidate)
            if objective <= state.objective - self.armijo_c * alpha * squared:
                return candidate, objective, alpha * np.sqrt(squared)
            alpha *= self.backtrack
        state.trace.converged = state.done = True
        return None


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


class LevenbergMarquardtSmoother(IteratedSmoother):
    """Damped iterated smoother with NC inner solves.

    Each iteration solves the linearized problem *augmented with a
    regularization observation* ``sqrt(lambda) I (u_i - u^0_i) = 0`` on
    every state (:func:`damp_problem`), accepts the step only if the
    true objective does not rise, and adapts ``lambda``.  The reported
    covariances are those of the *undamped* linearization at the
    solution.  Convergence is the shared test with ``obj_tol = tol``,
    checked on accepted steps.

    Parameters
    ----------
    inner, max_iterations, tol:
        As :class:`IteratedSmoother`.
    lambda0, lambda_up, lambda_down:
        Initial damping and the multiplicative adaptation factors on
        rejected/accepted steps.
    max_lambda:
        Damping beyond which the iteration gives up (not converged).
    """

    name = "levenberg-marquardt"

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
        super().__init__(JacobianLinearizer(), inner, max_iterations, tol, tol)
        self.lambda0 = lambda0
        self.lambda_up = lambda_up
        self.lambda_down = lambda_down
        self.max_lambda = max_lambda

    def _lam(self, state: IterateState) -> float:
        """The current damping: ``lambda0``, then the schedule's last."""
        lambdas = state.trace.lambdas
        return lambdas[-1] if lambdas else self.lambda0

    def _batch_emit(self, state, config):
        linear = super()._batch_emit(state, config)
        return damp_problem(linear, state.trajectory, self._lam(state))

    def _step(self, state, means):
        trace = state.trace
        objective = state.objective_at(means)
        if objective <= state.objective:
            trace.lambdas.append(max(self._lam(state) * self.lambda_down, 1e-12))
            trace.accepted.append(True)
            step = [m - t for m, t in zip(means, state.trajectory)]
            return means, objective, _norm(step)
        trace.lambdas.append(self._lam(state) * self.lambda_up)
        trace.accepted.append(False)
        trace.objectives.append(state.objective)
        state.done = trace.lambdas[-1] > self.max_lambda
        return None

    def _batch_result(self, state, covariances, config):
        result = super()._batch_result(state, covariances, config)
        result.diagnostics["final_lambda"] = self._lam(state)
        return result


class IteratedPosteriorLinearizationSmoother(IteratedSmoother):
    """Iterated posterior-linearization (sigma-point) smoother.

    Linearizes every model function by statistical linear regression
    against the current smoothed marginals, solves the linear-Gaussian
    problem exactly, and repeats around the new posterior.  Unlike
    Gauss–Newton's point linearization, SLR produces the best affine
    fit over the whole marginal *plus* a residual covariance that
    inflates the step noise, so the iteration accounts for how wrong
    the linear model is where the posterior actually lives.

    Parameters
    ----------
    linearizer:
        Defaults to :class:`~repro.model.nonlinear.SigmaPointLinearizer`
        (cubature weights); a
        :class:`~repro.model.nonlinear.JacobianLinearizer` gives the
        iterated extended Kalman smoother.
    inner, max_iterations, tol, obj_tol:
        As :class:`IteratedSmoother`.
    damping:
        Step damping ``gamma`` in ``(0, 1]``: the next trajectory is
        ``u + gamma (solution - u)``.  ``1.0`` (default) is the plain
        posterior-linearization fixed-point step; smaller values trade
        speed for robustness on strongly nonlinear problems.
    """

    name = "ipls"

    def __init__(
        self,
        linearizer: Linearizer | None = None,
        inner=None,
        max_iterations: int = 25,
        tol: float = 1e-9,
        obj_tol: float = 1e-12,
        damping: float = 1.0,
    ):
        if not 0.0 < damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {damping}")
        if linearizer is None:
            linearizer = SigmaPointLinearizer()
        super().__init__(linearizer, inner, max_iterations, tol, obj_tol)
        self.damping = damping

    def _step(self, state, means):
        new = [t + self.damping * (m - t) for t, m in zip(state.trajectory, means)]
        step = [a - b for a, b in zip(new, state.trajectory)]
        return new, state.objective_at(new), _norm(step)

    def _batch_result(self, state, covariances, config):
        result = super()._batch_result(state, covariances, config)
        result.algorithm = f"ipls[{self.linearizer.name}+{self.inner.name}]"
        result.diagnostics["linearizer"] = self.linearizer.name
        return result
