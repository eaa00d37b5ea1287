"""Model functions are called once per equation group, not per point.

``NonlinearProblem.linearize`` (Jacobian and sigma-point) and
``.objective`` hand each model function the stack of all of its points
in one shape group.  The number of calls therefore does not depend on
the number of steps ``k``; evaluating one point per call makes
``(2n + 1) k`` calls per sigma-point linearization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.nonlinear import (
    NonlinearFunction,
    SigmaPointLinearizer,
    pendulum_problem,
)

SHORT, LONG = 8, 64


class Counting:
    """A batched model function (or Jacobian) that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def counted_problem(k: int, analytic: bool):
    """A pendulum problem whose steps share one counted evolution and
    one counted observation function (finite-difference Jacobians
    unless ``analytic``)."""
    problem, truth = pendulum_problem(k, seed=k)
    counters = []

    def counted(fn: NonlinearFunction) -> NonlinearFunction:
        parts = [Counting(fn.fn), Counting(fn.jacobian) if analytic else None]
        counters.extend(p for p in parts if p is not None)
        return NonlinearFunction(*parts)

    evolution = counted(problem.steps[1].evolution_fn)
    observation = counted(problem.steps[0].observation_fn)
    for i, step in enumerate(problem.steps):
        step.observation_fn = observation
        if i > 0:
            step.evolution_fn = evolution
    return problem, list(truth), counters


OPERATIONS = {
    "jacobian": lambda p, t: p.linearize(t),
    "sigma-point": lambda p, t: p.linearize(
        t,
        linearizer=SigmaPointLinearizer(),
        covariances=[0.01 * np.eye(2)] * len(t),
    ),
    "objective": lambda p, t: p.objective(t),
}


def calls(k: int, operation: str, analytic: bool) -> list[int]:
    problem, trajectory, counters = counted_problem(k, analytic)
    OPERATIONS[operation](problem, trajectory)
    return [c.calls for c in counters]


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("operation", OPERATIONS)
def test_model_function_calls_do_not_grow_with_steps(operation, analytic):
    short = calls(SHORT, operation, analytic)
    assert sum(short) > 0
    assert calls(LONG, operation, analytic) == short
