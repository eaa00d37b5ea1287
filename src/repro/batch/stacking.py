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
3. :func:`bucket_problems` groups padded problems by their
   :func:`structure_signature`; each group can be stacked.
4. :func:`stack_whitened` whitens each problem of a group and stacks
   the whitened blocks on the leading batch axis (the convention in
   :mod:`repro.batch`), yielding the batched
   :class:`~repro.model.problem.WhitenedProblem` the odd-even
   factorization consumes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from ..linalg.cholesky import Whitener, stack_whiten, stack_whiten_prepared
from ..linalg.xp import get_namespace
from ..model.problem import (
    StateSpaceProblem,
    WhitenedProblem,
    WhitenedStep,
)
from ..model.steps import Evolution, Step

__all__ = [
    "Bucket",
    "BucketLayout",
    "StepLayout",
    "bucket_problems",
    "build_bucket_layout",
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
    sig = []
    for i, step in enumerate(problem.steps):
        evo_rows = 0 if step.evolution is None else step.evolution.rows
        entry: tuple = (step.state_dim, evo_rows)
        if obs_rows:
            rows = step.obs_dim
            if i == 0 and problem.prior is not None:
                rows += problem.prior.dim
            entry += (rows,)
        sig.append(entry)
    return tuple(sig)


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
    states simply replicate the last original state's estimate.
    """
    have = problem.n_states
    if n_states_target < have:
        raise ValueError(
            f"cannot pad a {have}-state problem down to {n_states_target}"
        )
    if n_states_target == have:
        return problem
    n_last = problem.steps[-1].state_dim
    extra = [
        Step(state_dim=n_last, evolution=Evolution(F=np.eye(n_last)))
        for _ in range(n_states_target - have)
    ]
    return StateSpaceProblem(
        list(problem.steps) + extra, prior=problem.prior
    )


@dataclass
class Bucket:
    """One stackable group of (padded) problems.

    ``indices[b]`` is the position of slice ``b`` in the caller's
    original problem list; ``n_states_orig[b]`` is how many leading
    states of the padded result are real (the rest are padding and get
    trimmed when unpacking).  ``signature`` is the grouping key (the
    power-of-two *length-bucket* signature); the stored problems are
    padded only to the bucket's longest member, which may be shorter.
    """

    signature: tuple
    indices: list[int]
    problems: list[StateSpaceProblem]
    n_states_orig: list[int]

    @property
    def batch(self) -> int:
        return len(self.problems)

    @property
    def n_states(self) -> int:
        """Actual (padded) state count of the stacked problems."""
        return self.problems[0].n_states


def bucket_problems(
    problems: list[StateSpaceProblem],
    pad: bool = True,
    exact_obs: bool = False,
) -> list[Bucket]:
    """Group problems into stackable buckets (insertion-ordered).

    With ``pad=True`` (the default) problems are *grouped* by the
    signature they would have when padded to the power-of-two length
    bucket of their state count, which merges heterogeneous lengths
    into shared buckets whenever their per-step structure allows it —
    but each group is then padded only to its own longest member, so a
    uniform-length workload (or a singleton) pays no padding overhead
    at all.  Observation row counts need not match within a bucket
    (short blocks are zero-padded when stacking) unless
    ``exact_obs=True`` — the associative method stacks raw standard
    forms and needs identical observation shapes.  Problems whose
    structure still differs fall into their own (possibly singleton)
    buckets — batching is a throughput optimization, never a
    functional restriction.
    """
    groups: dict[tuple, list[int]] = {}
    for idx, problem in enumerate(problems):
        sig = structure_signature(problem, obs_rows=exact_obs)
        if pad:
            # Signature the problem would have after padding to its
            # power-of-two length bucket (each padding step adds one
            # unobserved identity evolution of the last state's dim).
            n_last = problem.steps[-1].state_dim
            entry = (n_last, n_last, 0) if exact_obs else (n_last, n_last)
            sig = sig + (entry,) * (
                padded_length(problem.n_states) - problem.n_states
            )
        groups.setdefault(sig, []).append(idx)
    buckets = []
    for sig, indices in groups.items():
        lengths = [problems[i].n_states for i in indices]
        target = max(lengths) if pad else lengths[0]
        buckets.append(
            Bucket(
                signature=sig,
                indices=indices,
                problems=[
                    pad_problem(problems[i], target) for i in indices
                ],
                n_states_orig=lengths,
            )
        )
    return buckets


def _row_whitener(pieces: list[Whitener], pad_rows: int = 0) -> Whitener:
    """One whitener covering stacked row blocks (block-diagonal factor).

    ``pad_rows`` extra unit-covariance rows cover the zero-padding that
    aligns observation row counts across a stack (zero rows whiten to
    zero rows under any unit factor).
    """
    if pad_rows:
        pieces = pieces + [Whitener.identity(pad_rows)]
    if len(pieces) == 1:
        return pieces[0]
    rows = sum(w.dim for w in pieces)
    if all(w.is_unit for w in pieces):
        return Whitener.identity(rows)
    return Whitener(
        block_diag(*[w.factor_matrix() for w in pieces]),
        kind="factor",
        what="stacked row covariance",
    )


@dataclass
class StepLayout:
    """Shape summary of one step of a stacked bucket (plan-compiled).

    ``row_counts[b]`` is the observation row count of slice ``b``
    (prior rows folded into step 0), ``max_rows`` their maximum —
    shorter slices are zero-padded.  ``evo_rows``/``n_prev`` describe
    the evolution block (both 0 for step 0).
    """

    n: int
    max_rows: int
    row_counts: tuple[int, ...]
    n_prev: int
    evo_rows: int


@dataclass
class BucketLayout:
    """Precompiled stacked-block layout plus reusable raw workspaces.

    Built once per workload structure by :func:`build_bucket_layout`
    and replayed by ``stack_whitened(..., layout=...)``: the per-call
    structure work (signature checks, padded-problem construction,
    workspace allocation) is skipped, and *virtual padding* replaces
    physical padding — slices whose sequence ends before the bucket's
    padded length are never filled at stack time, because their
    constant unobserved identity-evolution rows (``[I | I | 0]`` with
    unit whiteners, exactly what :func:`pad_problem` would append) are
    prefilled into the workspaces at build time.  The numeric values
    entering the batched whitening are therefore *identical* to the
    legacy pad-then-stack path, bit for bit.

    The raw workspaces are reused across calls, which is safe because
    a layout is only valid for workloads with the exact structure it
    was built for (the plan cache keys on it): every non-constant
    region is rewritten in full each call, and the zero-padding
    regions are never written after construction.  One layout instance
    must not be used by two concurrent ``smooth_many`` calls —
    concurrent callers each lease their own instance through
    :meth:`repro.batch.plan.SmoothPlan.lease_workspaces`, which
    :meth:`clone` supplies on contention.
    """

    batch: int
    target: int
    n_states_orig: tuple[int, ...]
    steps: list[StepLayout]
    obs_buffers: list["np.ndarray | None"]
    evo_buffers: list["np.ndarray | None"]
    pad_obs_whiteners: list["Whitener | None"]
    pad_evo_whiteners: list["Whitener | None"]
    #: per-step (B, rows, rows) whitening-factor workspaces, reset to
    #: identity before dense-factor assembly (None for empty steps)
    obs_factors: list["np.ndarray | None"]
    evo_factors: list["np.ndarray | None"]
    #: per-step (rows, rows) identity templates used for the reset
    obs_eye: list["np.ndarray | None"]
    evo_eye: list["np.ndarray | None"]
    #: namespace the workspaces live on (``np`` unless the layout was
    #: compiled for a non-numpy array backend — see
    #: :func:`build_bucket_layout`)
    xp: object = np

    def nbytes(self) -> int:
        """Total workspace footprint (diagnostics)."""
        return sum(
            buf.nbytes
            for buf in (
                *self.obs_buffers,
                *self.evo_buffers,
                *self.obs_factors,
                *self.evo_factors,
            )
            if buf is not None
        )

    def clone(self) -> "BucketLayout":
        """An independent workspace set with the same compiled layout.

        Copies the four mutable workspace groups and shares the
        immutable pieces (step layouts, whiteners, identity
        templates).  Safe to call even while ``self`` is in use by
        another ``smooth_many``: a layout's workspace regions are
        either constant after construction (padding prefill, zero
        rows) or rewritten in full by every call before being read, so
        a torn copy of an in-flight region is overwritten before the
        clone's first use reads it.
        """

        def _copy(bufs):
            return [
                get_namespace(b).copy(b) if b is not None else None
                for b in bufs
            ]

        return BucketLayout(
            batch=self.batch,
            target=self.target,
            n_states_orig=self.n_states_orig,
            steps=self.steps,
            obs_buffers=_copy(self.obs_buffers),
            evo_buffers=_copy(self.evo_buffers),
            pad_obs_whiteners=self.pad_obs_whiteners,
            pad_evo_whiteners=self.pad_evo_whiteners,
            obs_factors=_copy(self.obs_factors),
            evo_factors=_copy(self.evo_factors),
            obs_eye=self.obs_eye,
            evo_eye=self.evo_eye,
            xp=self.xp,
        )


def build_bucket_layout(
    bucket: Bucket, array_backend=None
) -> BucketLayout:
    """Compile one :class:`Bucket` into a reusable :class:`BucketLayout`.

    Walks the bucket's (padded) problems exactly the way
    :func:`stack_whitened` would, recording per-step shapes and
    preallocating the raw block workspaces.  Rows belonging to padding
    steps (``i >= n_states_orig[b]``) are prefilled here, from the
    padded problems' actual blocks, so stack time touches only real
    data.  The bucket's problem objects are not retained.

    With a non-numpy ``array_backend`` (an
    :class:`~repro.linalg.xp.ArrayBackend`), the compiled workspaces
    are moved to that backend once at build time, so plan replays
    stack and whiten directly on the selected backend's arrays.
    """
    problems = bucket.problems
    batch = bucket.batch
    target = bucket.n_states
    steps: list[StepLayout] = []
    obs_buffers: list[np.ndarray | None] = []
    evo_buffers: list[np.ndarray | None] = []
    pad_obs_w: list[Whitener | None] = []
    pad_evo_w: list[Whitener | None] = []
    obs_factors: list[np.ndarray | None] = []
    evo_factors: list[np.ndarray | None] = []
    obs_eye: list[np.ndarray | None] = []
    evo_eye: list[np.ndarray | None] = []
    for i in range(target):
        step0 = problems[0].steps[i]
        n = step0.state_dim
        row_counts = []
        for p in problems:
            rows = p.steps[i].obs_dim
            if i == 0 and p.prior is not None:
                rows += p.prior.dim
            row_counts.append(rows)
        max_rows = max(row_counts)
        if i > 0:
            n_prev = step0.evolution.prev_dim
            evo_rows = step0.evolution.rows
        else:
            n_prev = evo_rows = 0
        steps.append(
            StepLayout(
                n=n,
                max_rows=max_rows,
                row_counts=tuple(row_counts),
                n_prev=n_prev,
                evo_rows=evo_rows,
            )
        )
        obs_buffers.append(
            np.zeros((batch, max_rows, n + 1)) if max_rows else None
        )
        pad_obs_w.append(Whitener.identity(max_rows) if max_rows else None)
        if max_rows:
            obs_eye.append(np.eye(max_rows))
            obs_factors.append(
                np.broadcast_to(
                    obs_eye[-1], (batch, max_rows, max_rows)
                ).copy()
            )
        else:
            obs_eye.append(None)
            obs_factors.append(None)
        if i > 0:
            buf = np.zeros((batch, evo_rows, n_prev + n + 1))
            for b, p in enumerate(problems):
                if i >= bucket.n_states_orig[b]:
                    evo = p.steps[i].evolution
                    buf[b, :, :n_prev] = evo.F
                    buf[b, :, n_prev : n_prev + n] = evo.H
                    buf[b, :, -1] = evo.c
            evo_buffers.append(buf)
            pad_evo_w.append(Whitener.identity(evo_rows))
            evo_eye.append(np.eye(evo_rows))
            evo_factors.append(
                np.broadcast_to(
                    evo_eye[-1], (batch, evo_rows, evo_rows)
                ).copy()
            )
        else:
            evo_buffers.append(None)
            pad_evo_w.append(None)
            evo_eye.append(None)
            evo_factors.append(None)
    xp = np
    if array_backend is not None and array_backend.name != "numpy":
        xp = array_backend.xp

        def _dev(bufs):
            return [
                array_backend.from_numpy(b) if b is not None else None
                for b in bufs
            ]

        obs_buffers = _dev(obs_buffers)
        evo_buffers = _dev(evo_buffers)
        obs_factors = _dev(obs_factors)
        evo_factors = _dev(evo_factors)
        obs_eye = _dev(obs_eye)
        evo_eye = _dev(evo_eye)
    return BucketLayout(
        batch=batch,
        target=target,
        n_states_orig=tuple(bucket.n_states_orig),
        steps=steps,
        obs_buffers=obs_buffers,
        evo_buffers=evo_buffers,
        pad_obs_whiteners=pad_obs_w,
        pad_evo_whiteners=pad_evo_w,
        obs_factors=obs_factors,
        evo_factors=evo_factors,
        obs_eye=obs_eye,
        evo_eye=evo_eye,
        xp=xp,
    )


def _slice_whitener_parts(
    pieces: list[Whitener], pad_rows: int
) -> tuple[float | None, list[tuple[int, Whitener]]]:
    """Classify one slice's row whitener without constructing it.

    Mirrors what :func:`_row_whitener` followed by
    ``factor_matrix()`` would produce: returns ``(scale, writes)``
    where ``scale`` is the slice's uniform scaling (``None`` when the
    slice carries a dense factor) and ``writes`` are the
    ``(row_offset, whitener)`` diagonal blocks whose factor matrices
    must overwrite the identity-prefilled factor workspace when the
    step takes the dense branch (unit blocks are already identity
    there and are skipped).
    """
    if len(pieces) == 1 and not pad_rows:
        w = pieces[0]
        if w._factor is not None:
            return None, [(0, w)]
        scale = 1.0 if w.kind == "identity" else w.scale
        return scale, ([] if scale == 1.0 else [(0, w)])
    if all(w.is_unit for w in pieces):
        return 1.0, []
    writes = []
    offset = 0
    for w in pieces:
        if not w.is_unit:
            writes.append((offset, w))
        offset += w.dim
    return None, writes


def _assemble_and_whiten(
    raws: np.ndarray,
    factors: np.ndarray,
    eye: np.ndarray,
    scales: list[float | None],
    writes: list[tuple[int, int, Whitener]],
) -> np.ndarray:
    """Whiten a raw stack from classified per-slice whitener parts.

    Takes the same branch :func:`~repro.linalg.cholesky.stack_whiten`
    would: if any slice is dense (``scale is None``), the factor
    workspace is reset to identity, the dense diagonal blocks are
    written (``scale*I`` slices land there via their ``factor_matrix``
    too), and the whole stack goes through one batched lower solve;
    otherwise the stack is scaled (or copied when all scales are one).
    """
    if any(s is None for s in scales):
        factors[...] = eye
        for b, offset, w in writes:
            m = w.factor_matrix()
            factors[
                b, offset : offset + m.shape[0], offset : offset + m.shape[1]
            ] = m
        return stack_whiten_prepared(raws, factors=factors)
    return stack_whiten_prepared(raws, scales=np.asarray(scales))


def _stack_with_layout(
    problems: list[StateSpaceProblem], layout: BucketLayout
) -> WhitenedProblem:
    """The plan-compiled fast path of :func:`stack_whitened`.

    ``problems`` are the bucket's members in bucket order, *unpadded*
    — padding is virtual (see :class:`BucketLayout`).  No structural
    validation happens here: the plan cache guarantees the layout was
    built for exactly this workload structure.  Whitening factors are
    assembled directly into the layout's workspaces
    (:func:`_assemble_and_whiten`) instead of constructing per-slice
    :class:`~repro.linalg.cholesky.Whitener` objects, which is where
    the un-planned path spends most of its stacking time.
    """
    n_orig = layout.n_states_orig
    steps: list[WhitenedStep] = []
    for i, sl in enumerate(layout.steps):
        n = sl.n
        if sl.max_rows:
            raws = layout.obs_buffers[i]
            scales: list[float | None] = []
            writes: list[tuple[int, int, Whitener]] = []
            for b, p in enumerate(problems):
                pieces = []
                if i < n_orig[b]:
                    if i == 0 and p.prior is not None:
                        pieces.append(p.prior.as_observation())
                    if p.steps[i].observation is not None:
                        pieces.append(p.steps[i].observation)
                if pieces:
                    r0 = 0
                    for ob in pieces:
                        d = ob.o.shape[0]
                        raws[b, r0 : r0 + d, :n] = ob.G
                        raws[b, r0 : r0 + d, n] = ob.o
                        r0 += d
                    scale, slice_writes = _slice_whitener_parts(
                        [ob.L for ob in pieces],
                        pad_rows=sl.max_rows - sl.row_counts[b],
                    )
                    scales.append(scale)
                    writes.extend(
                        (b, off, w) for off, w in slice_writes
                    )
                else:
                    scales.append(1.0)
            white = _assemble_and_whiten(
                raws,
                layout.obs_factors[i],
                layout.obs_eye[i],
                scales,
                writes,
            )
            step = WhitenedStep(
                index=i, n=n, C=white[..., :n], rhs_C=white[..., n]
            )
        else:
            step = WhitenedStep(
                index=i,
                n=n,
                C=layout.xp.zeros(
                    (layout.batch, 0, n), dtype=np.float64
                ),
                rhs_C=layout.xp.zeros(
                    (layout.batch, 0), dtype=np.float64
                ),
            )
        if i > 0:
            raw_evo = layout.evo_buffers[i]
            n_prev = sl.n_prev
            scales = []
            writes = []
            for b, p in enumerate(problems):
                if i < n_orig[b]:
                    evo = p.steps[i].evolution
                    raw_evo[b, :, :n_prev] = evo.F
                    raw_evo[b, :, n_prev : n_prev + n] = evo.H
                    raw_evo[b, :, -1] = evo.c
                    scale, slice_writes = _slice_whitener_parts(
                        [evo.K], pad_rows=0
                    )
                    scales.append(scale)
                    writes.extend(
                        (b, off, w) for off, w in slice_writes
                    )
                else:
                    scales.append(1.0)
            white_evo = _assemble_and_whiten(
                raw_evo,
                layout.evo_factors[i],
                layout.evo_eye[i],
                scales,
                writes,
            )
            step.B = white_evo[..., :n_prev]
            step.D = white_evo[..., n_prev : n_prev + n]
            step.rhs_BD = white_evo[..., -1]
        steps.append(step)
    return WhitenedProblem(steps=steps)


def stack_whitened(
    problems: list[StateSpaceProblem],
    layout: BucketLayout | None = None,
) -> WhitenedProblem:
    """Whiten and stack all problems on a leading batch axis — batched.

    All problems must share one :func:`structure_signature` (callers go
    through :func:`bucket_problems`).  The result is a
    :class:`WhitenedProblem` whose steps hold ``(B, rows, cols)`` blocks
    and ``(B, rows)`` right-hand sides — the batched input form of
    :func:`repro.core.oddeven_qr.oddeven_factorize`.

    Unlike ``B`` separate :meth:`StateSpaceProblem.whiten` calls (which
    would dominate the batched smoother's runtime with thousands of
    tiny triangular solves), this stacks the *raw* blocks first and
    whitens each step's observation and evolution rows with one
    batched solve across the whole stack
    (:func:`repro.linalg.cholesky.stack_whiten`); slice ``b`` equals
    ``problems[b].whiten()`` to roundoff.

    With ``layout`` (a :class:`BucketLayout` from a cached
    :class:`~repro.batch.plan.SmoothPlan`), the per-call structure
    work is skipped: ``problems`` are then the *unpadded* bucket
    members in bucket order, padding is virtual, and the raw blocks go
    into the layout's preallocated workspaces.  The result is bit-for-
    bit identical to the un-planned path over the padded problems.
    """
    if layout is not None:
        return _stack_with_layout(problems, layout)
    if not problems:
        raise ValueError("cannot stack an empty problem list")
    sigs = {structure_signature(p) for p in problems}
    if len(sigs) != 1:
        raise ValueError(
            "problems in one stack must share a structure signature; "
            "run bucket_problems first"
        )
    batch = len(problems)
    steps: list[WhitenedStep] = []
    for i in range(problems[0].n_states):
        step0 = problems[0].steps[i]
        n = step0.state_dim
        # ---- observation rows (prior folded into step 0) ----
        # Row counts may differ across the stack; shorter blocks are
        # zero-padded to the per-step maximum, which is exact (a zero
        # row constrains nothing and contributes no residual).
        obs_pieces: list[list] = []
        for p in problems:
            pieces = []
            if i == 0 and p.prior is not None:
                pieces.append(p.prior.as_observation())
            if p.steps[i].observation is not None:
                pieces.append(p.steps[i].observation)
            obs_pieces.append(pieces)
        row_counts = [
            sum(ob.rows for ob in pieces) for pieces in obs_pieces
        ]
        max_rows = max(row_counts)
        if max_rows:
            raws = np.zeros((batch, max_rows, n + 1))
            whiteners: list[Whitener] = []
            for b, pieces in enumerate(obs_pieces):
                if pieces:
                    raws[b, : row_counts[b]] = np.concatenate(
                        [
                            np.concatenate([ob.G, ob.o[:, None]], axis=1)
                            for ob in pieces
                        ],
                        axis=0,
                    )
                whiteners.append(
                    _row_whitener(
                        [ob.L for ob in pieces],
                        pad_rows=max_rows - row_counts[b],
                    )
                )
            white = stack_whiten(whiteners, raws)
            step = WhitenedStep(
                index=i, n=n, C=white[..., :n], rhs_C=white[..., n]
            )
        else:
            step = WhitenedStep(
                index=i,
                n=n,
                C=np.zeros((batch, 0, n)),
                rhs_C=np.zeros((batch, 0)),
            )
        # ---- evolution rows ----
        if i > 0:
            n_prev = step0.evolution.prev_dim
            raw_evo = np.stack(
                [
                    np.concatenate(
                        [
                            p.steps[i].evolution.F,
                            p.steps[i].evolution.H,
                            p.steps[i].evolution.c[:, None],
                        ],
                        axis=1,
                    )
                    for p in problems
                ]
            )
            white_evo = stack_whiten(
                [p.steps[i].evolution.K for p in problems], raw_evo
            )
            step.B = white_evo[..., :n_prev]
            step.D = white_evo[..., n_prev : n_prev + n]
            step.rhs_BD = white_evo[..., -1]
        steps.append(step)
    return WhitenedProblem(steps=steps)
