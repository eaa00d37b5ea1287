"""Batched multi-sequence smoothing: many independent problems at once.

The odd-even elimination (paper §3) factors thousands of *independent*
small blocks per recursion level, and the associative smoother's scan
elements (Särkkä & García-Fernández, ref. [3]) combine independently
per sequence — both shapes vectorize perfectly across a stack of
independent sequences.  This subsystem exploits that: it stacks ``B``
problems with identical block structure on a leading batch axis and
runs the *same* elimination/scan code over the stack, so every
per-block LAPACK call becomes one batched kernel over ``B`` slices
(:func:`repro.linalg.householder.batched_qr` and friends).  That is the
serving story: one smoother instance amortizes Python and LAPACK call
overheads over a whole tray of user trajectories.

Batch axis convention
---------------------
Throughout ``repro.batch`` (and in every core routine that accepts
batched inputs):

* **Matrices** are ``(B, rows, cols)`` — the batch axis leads, the
  matrix lives in the trailing two axes.  All block algebra addresses
  ``shape[-2]``/``shape[-1]`` and concatenates along ``axis=-2`` (rows)
  or ``axis=-1`` (columns).
* **Vectors** (right-hand sides, means) are ``(B, n)`` — the batch axis
  leads, the vector lives in the last axis.
* Slice ``b`` of every batched quantity equals what the per-sequence
  code would produce for problem ``b`` alone (to roundoff); the batched
  and per-sequence paths are interchangeable oracle/production pairs.
* Scalar reductions over a batched run (least-squares residuals) are
  ``(B,)`` arrays, one entry per sequence.

Sequences of *different* lengths are padded with unobserved
identity-evolution steps: grouping uses power-of-two length buckets,
and each group is then padded only up to its longest member (so
uniform-length workloads pay nothing).  Padding is mathematically
exact — the padded rows are exactly satisfiable, so the original
states' means, covariances, and residual are unchanged up to roundoff
(the elimination tree shifts, so individual rotations differ; see
:func:`repro.batch.stacking.pad_problem`).  Sequences whose padded
block structure still differs land in separate buckets; each bucket is
smoothed as one stack.  The bucketing decisions of a workload
structure are cached as a :class:`~repro.batch.plan.SmoothPlan` (see
:mod:`repro.batch.plan`); a plan records bucket membership only.

Entry point::

    from repro import BatchSmoother

    results = BatchSmoother().smooth_many(problems)   # list[SmootherResult]
"""

from .plan import (
    PlanCache,
    SmoothPlan,
    build_plan,
    default_plan_cache,
    workload_key,
)
from .smoother import BatchSmoother
from .stacking import (
    Bucket,
    bucket_problems,
    pad_problem,
    padded_length,
    stack_whitened,
    structure_signature,
)

__all__ = [
    "BatchSmoother",
    "Bucket",
    "PlanCache",
    "SmoothPlan",
    "bucket_problems",
    "build_plan",
    "default_plan_cache",
    "pad_problem",
    "padded_length",
    "stack_whitened",
    "structure_signature",
    "workload_key",
]
