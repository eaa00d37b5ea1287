"""Padding, bucketing and stacking of independent problems.

The batched eliminations need every sequence in a stack to share one
block structure: the same number of states, the same per-state
dimensions, and the same observation/evolution row counts at every
step.  This module turns an arbitrary mixed workload into such stacks:

1. :func:`pad_problem` appends *unobserved* identity-evolution steps to
   bring a sequence up to a target length.  The padding is exact: the
   appended whitened rows ``[-I  I] [u_k; u_{k+1}] = 0`` are exactly
   satisfiable by ``u_{k+1} = u_k``, so they contribute nothing to the
   least-squares residual and — because the new unknowns appear in no
   other row — the Schur complement onto the original unknowns is
   untouched.  Original means, covariances, and the residual are
   mathematically unchanged.
2. :func:`padded_length` buckets lengths to powers of two so a mixed
   stream of lengths produces a handful of buckets instead of one per
   distinct length (at most 2x padding overhead).
3. :func:`bucket_problems` groups problems by the
   :func:`structure_signature` they have once padded and records each
   group as a :class:`Bucket`: member indices, real lengths and the
   padded length.  A bucket holds no problems or arrays;
   :meth:`Bucket.members` pads its members when they are stacked.
4. :func:`stack_whitened` whitens a group's blocks in one stacked call
   per block shape, across every member and step, and keeps them as
   per-shape stacks with the batch axis after the group axis (the
   convention in :mod:`repro.batch`): the batched
   :class:`~repro.model.problem.WhitenedProblem` the odd-even
   factorization consumes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg.cholesky import Whitener
from ..model.problem import (
    EquationStack,
    StateSpaceProblem,
    WhitenedProblem,
    whiten_problems,
)
from ..model.steps import Evolution, Step

__all__ = [
    "Bucket",
    "bucket_problems",
    "pad_problem",
    "padded_length",
    "stack_whitened",
    "structure_signature",
]


def structure_signature(
    problem: StateSpaceProblem, obs_rows: bool = False
) -> tuple:
    """Hashable per-step block-shape summary of a problem.

    Two problems with equal signatures can be stacked: state dimensions
    and evolution row counts must match exactly, while observation row
    counts may differ — a short observation block is zero-padded to the
    stack's per-step maximum (a ``0 · u = 0`` row is exactly
    satisfiable, so it changes neither the estimates nor the residual).
    That flexibility is what lets sequences of different lengths (whose
    padded tails are unobserved) and sequences with missing
    observations share one bucket.  Pass ``obs_rows=True`` to include
    the observation row counts (with the prior folded into step 0,
    exactly as :meth:`StateSpaceProblem.whiten` folds it) for an exact
    shape fingerprint.
    """
    evo_rows, observed = problem.row_counts()
    dims = problem.state_dims
    if not obs_rows:
        return tuple(zip(dims, evo_rows))
    if problem.prior is not None:
        observed = [observed[0] + problem.prior.dim] + observed[1:]
    return tuple(zip(dims, evo_rows, observed))


def padded_length(n_states: int) -> int:
    """The bucketed target length: next power of two >= ``n_states``."""
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    out = 1
    while out < n_states:
        out *= 2
    return out


def pad_problem(
    problem: StateSpaceProblem, n_states_target: int
) -> StateSpaceProblem:
    """Append unobserved identity-evolution steps up to the target length.

    Each appended step carries ``u_{i} = I u_{i-1}`` with unit noise
    covariance and no observation; the smoothed estimates of the
    original states (and the residual) are unchanged, and the padded
    states simply replicate the last original state's estimate.  A
    problem held as stacks is padded with one more evolution stack.
    """
    have = problem.n_states
    if n_states_target < have:
        raise ValueError(
            f"cannot pad a {have}-state problem down to {n_states_target}"
        )
    if n_states_target == have:
        return problem
    dims = problem.state_dims
    n_last = dims[-1]
    count = n_states_target - have
    if problem.evolution_stacks is not None:
        pad = EquationStack(
            "evolution covariance K",
            tuple(range(have, n_states_target)),
            np.broadcast_to(np.eye(n_last), (count, n_last, n_last)),
            np.broadcast_to(np.zeros(n_last), (count, n_last)),
            [Whitener.identity(n_last)] * count,
        )
        return StateSpaceProblem.from_groups(
            dims + [n_last] * count,
            problem.evolution_stacks + [pad],
            problem.observation_stacks,
            problem.prior,
        )
    extra = [
        Step(state_dim=n_last, evolution=Evolution(F=np.eye(n_last)))
        for _ in range(count)
    ]
    return StateSpaceProblem(
        list(problem.steps) + extra, prior=problem.prior
    )


@dataclass(frozen=True)
class Bucket:
    """One stackable group of a workload's problems.

    ``indices[b]`` is the position of member ``b`` in the caller's
    problem list and ``n_states_orig[b]`` its real length.  Every
    member is padded to ``n_states`` states when stacked; states past
    its real length are trimmed when unpacking.  ``signature`` is the
    grouping key (the power-of-two *length-bucket* signature), while
    ``n_states`` is only the bucket's longest member, which may be
    shorter than the length bucket.
    """

    signature: tuple
    indices: tuple[int, ...]
    n_states_orig: tuple[int, ...]
    n_states: int

    @property
    def batch(self) -> int:
        return len(self.indices)

    def members(
        self, problems: list[StateSpaceProblem]
    ) -> list[StateSpaceProblem]:
        """The bucket's problems from ``problems``, padded, in bucket order."""
        return [pad_problem(problems[i], self.n_states) for i in self.indices]


def bucket_problems(
    problems: list[StateSpaceProblem],
    exact_obs: bool = False,
) -> list[Bucket]:
    """Group problems into stackable buckets (insertion-ordered).

    Problems are *grouped* by the signature they would have when
    padded to the power-of-two length bucket of their state count,
    which merges heterogeneous lengths into shared buckets whenever
    their per-step structure allows it — but each group is then padded
    only to its own longest member, so a uniform-length workload (or a
    singleton) pays no padding overhead at all.  Observation row
    counts need not match within a bucket (short blocks are
    zero-padded when stacking) unless ``exact_obs=True`` — the
    associative method stacks raw standard forms and needs identical
    observation shapes.  Problems whose structure still differs fall
    into their own (possibly singleton) buckets — batching is a
    throughput optimization, never a functional restriction.
    """
    groups: dict[tuple, list[int]] = {}
    for idx, problem in enumerate(problems):
        sig = structure_signature(problem, obs_rows=exact_obs)
        # Signature the problem would have after padding to its
        # power-of-two length bucket (each padding step adds one
        # unobserved identity evolution of the last state's dim).
        n_last = sig[-1][0]
        entry = (n_last, n_last, 0) if exact_obs else (n_last, n_last)
        sig = sig + (entry,) * (
            padded_length(problem.n_states) - problem.n_states
        )
        groups.setdefault(sig, []).append(idx)
    buckets = []
    for sig, indices in groups.items():
        lengths = tuple(problems[i].n_states for i in indices)
        buckets.append(
            Bucket(
                signature=sig,
                indices=tuple(indices),
                n_states_orig=lengths,
                n_states=max(lengths),
            )
        )
    return buckets


def stack_whitened(problems: list[StateSpaceProblem]) -> WhitenedProblem:
    """Whiten and stack all problems on a leading batch axis — batched.

    All problems must share one :func:`structure_signature` (callers go
    through :func:`bucket_problems` and :meth:`Bucket.members`);
    otherwise a ``ValueError`` is raised.  The result is a
    :class:`WhitenedProblem` whose per-shape stacks carry the batch
    axis after the group axis (``(S, B, rows, cols)``) — the batched
    input form of :func:`repro.core.oddeven_qr.oddeven_factorize`.

    Every block of every member is whitened by its own whitener, in one
    stacked call per block shape across all members and steps
    (:func:`~repro.model.problem.whiten_problems`), in float64.  Short
    observation blocks are padded with zero rows after whitening.
    Member ``b``'s slice equals ``problems[b].whiten()`` of float64 data
    bit for bit wherever their observation row counts agree.
    """
    if not problems:
        raise ValueError("cannot stack an empty problem list")
    return whiten_problems(problems, np.float64)
