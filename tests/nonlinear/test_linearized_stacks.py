"""Iterations build no per-equation objects as problems grow.

``NonlinearProblem.linearize`` returns its linear problem as one stack
per equation group (``StateSpaceProblem.from_groups``), and the batched
smoother whitens those stacks directly.  An iterated smooth of a fleet
therefore builds the same number of ``Whitener``, ``Evolution``,
``Observation`` and ``Step`` objects whatever the number of steps ``k``;
unpacking each linearization into one object per equation multiplies
them by ``k`` and by the number of outer iterations.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.model.nonlinear as nl
from repro.api import EstimatorConfig
from repro.linalg.cholesky import Whitener
from repro.model.nonlinear import bearings_only_tunnel_problem, pendulum_problem
from repro.model.steps import Evolution, Observation, Step
from repro.nonlinear.ipls import GaussNewtonSmoother

SHORT, LONG = 8, 64

#: the per-equation constructors an iteration must not call
CONSTRUCTORS = {
    "Whitener": (Whitener, "__init__"),
    "Evolution": (Evolution, "__post_init__"),
    "Observation": (Observation, "__post_init__"),
    "Step": (Step, "__post_init__"),
}


def fleet(k: int):
    return [pendulum_problem(k, seed=s)[0] for s in (1, 2)] + [
        bearings_only_tunnel_problem(k, seed=s)[0] for s in (3, 4)
    ]


def constructions(monkeypatch, name: str, k: int) -> dict[str, int]:
    """Calls of each constructor while ``name`` smooths a fleet."""
    problems = fleet(k)
    counts = dict.fromkeys(CONSTRUCTORS, 0)
    for label, (cls, attr) in CONSTRUCTORS.items():

        def counted(self, *args, _inner=cls.__dict__[attr], _label=label, **kw):
            counts[_label] += 1
            return _inner(self, *args, **kw)

        monkeypatch.setattr(cls, attr, counted)
    try:
        repro.make_smoother(name).smooth_many(problems)
    finally:
        monkeypatch.undo()
    return counts


@pytest.mark.parametrize("name", ["ipls", "gauss-newton"])
def test_iterations_build_no_per_equation_objects(monkeypatch, name):
    assert constructions(monkeypatch, name, SHORT) == constructions(
        monkeypatch, name, LONG
    )


def test_float32_model_factors_are_factored_once_per_smooth(monkeypatch):
    """A float32 Gauss–Newton smooth casts and factors each group's
    model covariances once, not once per outer iteration."""
    problem, _ = pendulum_problem(20, seed=3)
    calls = []
    inner = nl.spd_cholesky

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("what"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(nl, "spd_cholesky", counted)
    counts = {}
    for iterations in (2, 6):
        calls.clear()
        # tol=0 never converges, so the smooth makes every iteration
        smoother = GaussNewtonSmoother(max_iterations=iterations, tol=0.0)
        result = smoother.smooth(problem, config=EstimatorConfig(dtype=np.float32))
        assert result.diagnostics["iterations"] == iterations
        counts[iterations] = len(calls)
    # both groups' float64 factors, then their float32 factors
    assert counts[2] == counts[6] == 4
