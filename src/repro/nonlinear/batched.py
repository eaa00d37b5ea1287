"""Shared iterate-and-regroup driver for batched nonlinear smoothing.

The iterated smoothers (Gauss–Newton, Levenberg–Marquardt, IPLS) all
have the same outer shape: linearize every problem at its current
iterate, solve the linear problems, absorb the solutions, repeat until
convergence.  Run over a workload of N problems, the naive form issues
N separate inner solves per outer iteration; this driver regroups them
so each outer iteration is ONE ``call_smoother_many`` on the owner's
``inner`` smoother — by default the linearized problems of every
not-yet-converged problem go through the stacked, plan-cached
:class:`~repro.batch.BatchSmoother` kernels together, and the
plan cache, ``xp`` array backend, and mixed-precision apply for free.

Per-problem decisions (step damping, accept/reject, convergence) are
computed host-side from each problem's own slice, and converged
problems drop out of subsequent stacked solves (the convergence mask).
Each problem's equation groups and factored model covariances are
built once per call (:attr:`IterateState.groups`) and shared by all of
its linearizations and objective evaluations.  Every outer iteration
records ``repro_nonlinear_phase_seconds`` samples for its three
phases: ``linearize``, ``inner_solve`` and ``absorb``.
Because the stacked kernels are bit-identical per slice regardless of
batch size, slice ``j`` of a workload of N is *bit-identical* to
running problem ``j`` alone through the same driver — which is exactly
how every iterated smoother's ``smooth`` is implemented (a workload of
one), so its ``smooth_many`` is bit-for-bit the per-problem loop.

The hooks live on :class:`~repro.nonlinear.ipls.IteratedSmoother`:

``_batch_begin(problem, initial)``
    Build the per-problem :class:`IterateState` (initial trajectory,
    objective, trace).
``_batch_emit(state, config)``
    The linearized (possibly damped) linear problem for this outer
    iteration.
``_batch_absorb(state, result)``
    Fold one inner solution back into the state; set ``state.done``
    when converged (or exhausted).
``_batch_iteration_covariance()`` / ``_batch_final_cov_pass()``
    Whether iteration solves carry covariances (IPLS threads them into
    the next statistical linearization) and whether a final dedicated
    covariance pass is needed (the NC-iterating Gauss–Newton family).
``_batch_emit_final(state, config)``
    The *undamped* linearization at the converged trajectory for that
    final covariance pass (LM's iteration emits are damped).
``_batch_result(state, covariances, config)``
    The finished :class:`~repro.kalman.result.SmootherResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import obs
from ..api import EstimatorConfig, call_smoother_many
from ..core.smoother import reject_nonfinite
from ..model.nonlinear import EquationGroups, NonlinearProblem, as_nonlinear
from ..model.problem import StateSpaceProblem

__all__ = ["IterateState", "drive_batched", "linearize_dtype"]


def linearize_dtype(config: EstimatorConfig):
    """The dtype linearized model matrices materialize in (``None`` =
    float64).

    A plain ``float32`` request produces float32 model matrices — the
    caller asked for a single-precision model.  The mixed-precision
    spellings (``"mixed"``/``"float32-refined"``) keep float64
    matrices: their contract is a float32 *solve* refined against the
    full-precision model, which the batched inner handles itself.
    """
    d = config.dtype
    if d is None or isinstance(d, str):
        return None
    return np.float32 if np.dtype(d) == np.float32 else None


@dataclass
class IterateState:
    """Per-problem mutable state threaded through the outer iterations."""

    problem: NonlinearProblem
    trajectory: list[np.ndarray]
    #: smoothed marginal covariances (posterior-linearization only)
    covariances: list[np.ndarray] | None = None
    #: current nonlinear objective value
    objective: float = float("inf")
    #: converged or exhausted: drop out of subsequent stacked solves
    done: bool = False
    #: the smooth's :class:`~repro.nonlinear.ipls.IterationTrace`
    trace: Any = None
    #: the problem's equation groups and factored model covariances,
    #: built once per smooth call and shared by all of its iterations
    groups: EquationGroups = field(init=False)

    def __post_init__(self):
        self.groups = self.problem.equation_groups()

    def objective_at(self, trajectory: list[np.ndarray]) -> float:
        """The problem's objective at ``trajectory``."""
        return self.problem.objective(trajectory, groups=self.groups)


def drive_batched(
    owner,
    problems,
    config: EstimatorConfig,
    *,
    initials=None,
) -> list:
    """Run ``owner``'s outer iteration over all problems in lock-step.

    ``config`` must already be resolved.  Results are in the caller's
    order; each problem iterates until its own convergence test passes
    or ``owner.max_iterations`` is reached, exactly as if it were
    alone.  ``smooth`` passes its ``initial=`` as ``initials``; without
    them (``smooth_many``) a non-finite input error names its index.
    """
    lifted = []
    for j, p in enumerate(problems):
        try:
            lifted.append(as_nonlinear(p))
        except ValueError as exc:
            where = [j] if initials is None else None
            name = f"the {owner.name} smoother"
            reject_nonfinite([p], exc, indices=where, smoother=name)
            raise
    problems = lifted
    if initials is None:
        initials = [None] * len(problems)
    states = [
        owner._batch_begin(p, init) for p, init in zip(problems, initials)
    ]
    inner = owner.inner
    inner_config = EstimatorConfig(
        backend=config.backend,
        compute_covariance=owner._batch_iteration_covariance(),
        dtype=config.dtype,
        plan_cache=config.plan_cache,
        array_module=config.array_module,
    )
    reg = obs.get_registry()

    def phase(name: str):
        return reg.span("repro_nonlinear_phase", smoother=owner.name, phase=name)

    for _ in range(owner.max_iterations):
        active = [s for s in states if not s.done]
        if not active:
            break
        with reg.span("repro_nonlinear_iteration", smoother=owner.name):
            with phase("linearize"):
                linears = [owner._batch_emit(s, config) for s in active]
            with phase("inner_solve"):
                results = call_smoother_many(inner, linears, config=inner_config)
        with phase("absorb"):
            for state, result in zip(active, results):
                owner._batch_absorb(state, result)
    covariances: list = [None] * len(states)
    if config.compute_covariance and owner._batch_final_cov_pass():
        finals = call_smoother_many(
            inner,
            [owner._batch_emit_final(s, config) for s in states],
            config=inner_config.replace(compute_covariance=True),
        )
        covariances = [f.covariances for f in finals]
    return [
        owner._batch_result(state, cov, config)
        for state, cov in zip(states, covariances)
    ]
