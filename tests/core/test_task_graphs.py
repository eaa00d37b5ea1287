"""The odd-even engine records the same task graph however it executes.

The paper's figures (``benchmarks/``, ``results/fig*.json``) replay task
graphs recorded by :class:`~repro.parallel.backend.RecordingBackend`:
one phase per stage of each level, one task per block of columns, each
task carrying the flops, bytes and kernel calls of its block
operations.  The engine may run a level in any grouping, but the graph
it records must stay the one below.

``data/oddeven_task_graphs.json`` holds the graphs of :func:`cases` as
the per-column engine recorded them.  Regenerate it, only from a tree
whose recorded graphs are known to be right, with::

    PYTHONPATH=src python tests/core/test_task_graphs.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import EstimatorConfig
from repro.batch import BatchSmoother
from repro.core.smoother import OddEvenSmoother
from repro.model.generators import random_problem
from repro.model.problem import StateSpaceProblem
from repro.model.steps import Evolution, GaussianPrior, Observation, Step
from repro.parallel.backend import RecordingBackend

DATA = Path(__file__).parent / "data" / "oddeven_task_graphs.json"
BLOCK_SIZES = (1, 3)


def rectangular_h_problem(k: int = 11, seed: int = 4) -> StateSpaceProblem:
    """Two-dimensional states under tall (3x2) and wide (1x2) ``H``.

    Every state with a wide evolution, and every third state, is
    observed in full, so the problem keeps full column rank.
    """
    rng = np.random.default_rng(seed)
    steps = [
        Step(
            state_dim=2,
            observation=Observation(
                G=rng.standard_normal((2, 2)), o=rng.standard_normal(2)
            ),
        )
    ]
    for i in range(1, k + 1):
        rows = 3 if i % 2 else 1
        evo = Evolution(
            F=rng.standard_normal((rows, 2)),
            H=rng.standard_normal((rows, 2)),
            c=rng.standard_normal(rows),
        )
        obs = None
        if rows == 1 or i % 3 == 0:
            obs = Observation(
                G=rng.standard_normal((2, 2)), o=rng.standard_normal(2)
            )
        steps.append(Step(state_dim=2, evolution=evo, observation=obs))
    return StateSpaceProblem(
        steps, prior=GaussianPrior(mean=rng.standard_normal(2))
    )


def mixed_fleet() -> list[StateSpaceProblem]:
    """Mixed lengths, dims and missing observations: several buckets."""
    spec = [(5, 2), (9, 3), (12, 3), (3, 2), (9, 2), (16, 3)]
    return [
        random_problem(
            k, seed=40 + s, dims=n, obs_prob=0.7, random_cov=True
        )
        for s, (k, n) in enumerate(spec)
    ]


def _single(problem, covariance: bool):
    def run(backend):
        OddEvenSmoother(compute_covariance=covariance).smooth(
            problem, config=EstimatorConfig(backend=backend)
        )

    return run


def _fleet(dtype):
    def run(backend):
        BatchSmoother().smooth_many(
            mixed_fleet(), config=EstimatorConfig(backend=backend, dtype=dtype)
        )

    return run


def cases() -> dict:
    """Name -> callable running one smooth on a given backend."""
    singles = {
        "missing-random-cov": random_problem(
            13, seed=3, dims=3, obs_prob=0.5, random_cov=True
        ),
        "varying-dims": random_problem(
            10, seed=9, dims=[2, 4, 3, 1, 5, 2, 3, 4, 2, 3, 1]
        ),
        "rectangular-h": rectangular_h_problem(),
        "k0": random_problem(0, seed=1, dims=3),
        "k1": random_problem(1, seed=2, dims=3),
        "k2": random_problem(2, seed=3, dims=2, random_cov=True),
    }
    out = {}
    for name, problem in singles.items():
        out[f"odd-even/{name}"] = _single(problem, True)
        out[f"odd-even-nc/{name}"] = _single(problem, False)
    out["batch-odd-even/float64"] = _fleet(None)
    out["batch-odd-even/mixed"] = _fleet("mixed")
    return out


def record(run, block_size: int) -> list:
    """``[[phase name, kind, [[flops, bytes, kernel calls, items], ...]]]``."""
    backend = RecordingBackend(block_size=block_size)
    run(backend)
    return [
        [
            phase.name,
            phase.kind,
            [
                [t.flops, t.bytes_moved, t.kernel_calls, t.items]
                for t in phase.tasks
            ],
        ]
        for phase in backend.graph.phases
    ]


def record_all() -> dict:
    return {
        f"{name}@{bs}": record(run, bs)
        for name, run in cases().items()
        for bs in BLOCK_SIZES
    }


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DATA.read_text())


def test_every_case_is_recorded(expected):
    assert sorted(expected) == sorted(
        f"{name}@{bs}" for name in cases() for bs in BLOCK_SIZES
    )


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("name", sorted(cases()))
def test_graph_matches_recorded(expected, name, block_size):
    got = record(cases()[name], block_size)
    want = expected[f"{name}@{block_size}"]
    assert [p[0] for p in got] == [p[0] for p in want]
    for (phase, kind, tasks), (_, want_kind, want_tasks) in zip(got, want):
        assert kind == want_kind, phase
        assert tasks == want_tasks, phase


def test_mixed_run_records_refinement_phases(expected):
    """The mixed fleet covers the rt-solve and ``cov_refine`` phases."""
    mixed = [p[0] for p in expected["batch-odd-even/mixed@1"]]
    plain = [p[0] for p in expected["batch-odd-even/float64@1"]]
    assert any(n.startswith("oddeven/rtsolve/") for n in mixed)
    assert not any(n.startswith("oddeven/rtsolve/") for n in plain)
    # each bucket factors twice: float32 for the means, float64 again
    # for the covariances
    buckets = plain.count("oddeven/L0/stageA")
    assert buckets > 1
    assert mixed.count("oddeven/L0/stageA") == 2 * buckets


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record_all(), indent=None) + "\n")
    print(f"wrote {DATA}")
