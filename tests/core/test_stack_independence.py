"""A sequence's results do not depend on what it is stacked with.

The odd-even engine factors each level's columns in stacked calls whose
leading axis flattens the group's columns and the batch's sequences,
cut into chunks of at most ``STACK_SLICES`` slices.  Every kernel
computes a slice from that slice alone, so one sequence factored on its
own and the same sequence stacked with others give the same bits — the
property that keeps IPLS ``smooth`` equal to ``smooth_many`` and plan
replays exact.  Errors must name the sequence within its stack, never a
flattened group-times-batch index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchSmoother
from repro.batch.stacking import stack_whitened
from repro.core.oddeven_qr import oddeven_factorize
from repro.core.selinv import selinv_oddeven
from repro.core.solve import oddeven_back_substitute
from repro.core.stacked import STACK_SLICES
from repro.model.generators import random_problem
from repro.model.problem import WhitenedProblem, WhitenedStep


def fleet(k: int, count: int, **kw):
    return [
        random_problem(k, seed=100 + s, dims=2, random_cov=True, **kw)
        for s in range(count)
    ]


def slice_of(white: WhitenedProblem, b: int) -> WhitenedProblem:
    """Sequence ``b`` of a batched whitened problem, as 2-D blocks."""
    steps = []
    for ws in white.steps:
        step = WhitenedStep(
            index=ws.index, n=ws.n, C=ws.C[b], rhs_C=ws.rhs_C[b]
        )
        if ws.B is not None:
            step.B, step.D, step.rhs_BD = ws.B[b], ws.D[b], ws.rhs_BD[b]
        steps.append(step)
    return WhitenedProblem(steps=steps)


@pytest.mark.parametrize("k", [12, 2 * STACK_SLICES + 37])
def test_alone_and_stacked_are_bit_identical(k):
    """Slice 2 of a 5-sequence stack equals the sequence factored alone.

    At the longer length, level 0 holds more columns than one stacked
    call takes, so the two runs cut their chunks at different slices.
    """
    white = stack_whitened(fleet(k, 5))
    alone = slice_of(white, 2)

    f_stack = oddeven_factorize(white)
    f_alone = oddeven_factorize(alone)
    assert f_stack.levels == f_alone.levels
    if k > STACK_SLICES:
        assert len(f_alone.levels[0]) > STACK_SLICES
    for col, row in f_alone.rows.items():
        other = f_stack.rows[col]
        np.testing.assert_array_equal(row.diag, other.diag[2])
        np.testing.assert_array_equal(row.rhs, other.rhs[2])
        assert row.offdiag_cols() == other.offdiag_cols()
        for (_c, a), (_d, b) in zip(row.offdiag, other.offdiag):
            np.testing.assert_array_equal(a, b[2])

    means_stack = oddeven_back_substitute(f_stack)
    means_alone = oddeven_back_substitute(f_alone)
    for a, b in zip(means_alone, means_stack):
        np.testing.assert_array_equal(a, b[2])

    cov_stack = selinv_oddeven(f_stack)
    cov_alone = selinv_oddeven(f_alone)
    for a, b in zip(cov_alone.diagonal, cov_stack.diagonal):
        np.testing.assert_array_equal(a, b[2])
    for key, block in cov_alone.cross.items():
        np.testing.assert_array_equal(block, cov_stack.cross[key][2])


COLUMN = 6  # an even column inside level 0's stage groups


def _zero_state(problem, column: int, components) -> None:
    """Remove every equation's hold on some components of one state."""
    step = problem.steps[column]
    step.observation.G[:, components] = 0.0
    step.evolution.H[:, components] = 0.0
    problem.steps[column + 1].evolution.F[:, components] = 0.0


@pytest.mark.parametrize(
    "components", [[0, 1], [0]], ids=["singular-diagonal", "rank-deficient"]
)
def test_failure_names_the_sequence_and_its_problem(components):
    problems = fleet(20, 3)
    _zero_state(problems[1], COLUMN, components)
    white = stack_whitened(problems)
    factor = oddeven_factorize(white)
    with pytest.raises(np.linalg.LinAlgError) as excinfo:
        oddeven_back_substitute(factor)
    message = str(excinfo.value)
    assert f"R[{COLUMN},{COLUMN}] is singular" in message
    assert "batch slice(s) [1]" in message
    assert excinfo.value.batch_slices == [1]
    with pytest.raises(np.linalg.LinAlgError) as excinfo:
        selinv_oddeven(factor)
    assert excinfo.value.batch_slices == [1]

    with pytest.raises(np.linalg.LinAlgError) as excinfo:
        BatchSmoother().smooth_many(problems)
    message = str(excinfo.value)
    assert f"R[{COLUMN},{COLUMN}] is singular" in message
    assert "batch slice(s) [1]" in message
    assert "problem index(es) [1]" in message


def test_single_sequence_failure_has_no_batch_slices():
    problem = fleet(20, 1)[0]
    _zero_state(problem, COLUMN, [0])
    with pytest.raises(np.linalg.LinAlgError) as excinfo:
        oddeven_back_substitute(oddeven_factorize(problem))
    assert f"R[{COLUMN},{COLUMN}] is singular" in str(excinfo.value)
    assert "batch slice" not in str(excinfo.value)
