"""Compiled execution plans for repeated-structure batched workloads.

``BatchSmoother.smooth_many`` spends a large, structure-only fraction
of its runtime before any numeric kernel runs: per-problem signatures,
bucket grouping, padded-problem construction, and stacked-workspace
allocation.  Serving traffic (the :class:`~repro.stream.StreamServer`
fleet) solves the *same* window structure on every flush, so that work
is pure overhead after the first call.  This module compiles it once:

* :func:`workload_key` fingerprints a workload — the per-problem exact
  :func:`~repro.batch.stacking.structure_signature` (observation rows
  included, prior folded) plus the padding/bucketing options — into a
  hashable key.  Equal keys guarantee byte-identical structure
  decisions.
* :func:`build_plan` runs the full structure pipeline once and
  records its outcome as a :class:`SmoothPlan`: the bucket membership,
  padding targets, and one compiled
  :class:`~repro.batch.stacking.BucketLayout` (stacked-block shapes +
  preallocated, pad-prefilled raw workspaces) per odd-even bucket.
* :class:`PlanCache` is a thread-safe LRU keyed by workload key,
  threaded through :class:`~repro.api.EstimatorConfig` (the
  ``plan_cache`` field; ``resolve()`` defaults it to the process-wide
  :func:`default_plan_cache`).

Replaying a plan is exact: the layout path performs the same numeric
operations on the same values as the cold path, so planned and
unplanned results agree bit for bit (a property the test suite pins).

A plan's workspaces are reused across calls but never shared between
concurrent callers: ``smooth_many`` *leases* a workspace set through
:meth:`SmoothPlan.lease_workspaces` — a small free list per plan,
popped on entry and returned on exit, with a fresh set cloned from
the compiled template on contention — so N threads replaying one
cached plan (the serving fleet's hot path) can never alias each
other's stacked buffers.  Threaded and serial replay of the same
workload are bit-identical (pinned by the concurrency property
suite).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .. import obs
from ..model.problem import StateSpaceProblem
from .stacking import (
    BucketLayout,
    bucket_problems,
    build_bucket_layout,
    structure_signature,
)

__all__ = [
    "BucketPlan",
    "PlanCache",
    "SmoothPlan",
    "build_plan",
    "default_plan_cache",
    "workload_key",
]


def workload_key(
    problems: list[StateSpaceProblem],
    pad: bool = True,
    exact_obs: bool = False,
    backend: str = "numpy",
) -> tuple:
    """Hashable structure fingerprint of a ``smooth_many`` workload.

    Extends the per-problem :func:`structure_signature` to a full
    workload key: the exact per-step shapes of every problem *in
    order* (observation rows included — stacked fill regions depend on
    them), plus the ``pad``/``exact_obs`` options that steer
    bucketing and the array ``backend`` the plan's workspaces live on
    (a plan compiled for torch tensors must not be replayed by a
    numpy call, and vice versa).  Two workloads with equal keys make
    identical structure decisions end to end, which is what licenses
    replaying a cached :class:`SmoothPlan` without re-validation.
    """
    return (
        bool(pad),
        bool(exact_obs),
        str(backend),
        tuple(
            structure_signature(p, obs_rows=True) for p in problems
        ),
    )


@dataclass
class BucketPlan:
    """One bucket's compiled decisions within a :class:`SmoothPlan`.

    ``indices`` map bucket order back to workload order;
    ``n_states_orig[b]`` is the real (pre-padding) length of member
    ``b``; ``target`` is the padded stack length.  ``layout`` is the
    compiled stacked-block layout for the odd-even method, or ``None``
    for ``exact_obs`` (associative) buckets, whose stacking path pads
    physically.
    """

    indices: list[int]
    n_states_orig: list[int]
    target: int
    layout: BucketLayout | None
    signature: tuple


#: Workspace sets a plan keeps pooled for reuse.  Sets returned while
#: the pool is full are dropped (garbage collected), bounding a plan's
#: footprint at ``max_pooled`` concurrent callers' worth of buffers.
DEFAULT_MAX_POOLED = 8


@dataclass
class SmoothPlan:
    """Everything ``smooth_many`` decides before touching numbers.

    The compiled per-bucket layouts double as reusable numeric
    workspaces, so replaying a plan mutates state.  Callers never touch
    ``buckets[g].layout`` directly for numeric work — they hold a
    *lease* (:meth:`lease_workspaces`) for the duration of one
    ``smooth_many`` call, which guarantees exclusive ownership of one
    workspace set even when many threads replay the same cached plan.
    """

    key: tuple
    pad: bool
    exact_obs: bool
    n_problems: int
    buckets: list[BucketPlan]
    #: pool-size cap for returned workspace sets
    max_pooled: int = DEFAULT_MAX_POOLED
    #: total leases granted (diagnostics)
    leases: int = field(default=0, compare=False)
    #: leases that had to clone a fresh set (contention; diagnostics)
    clones: int = field(default=0, compare=False)
    _pool: list = field(
        default_factory=list, repr=False, compare=False
    )
    _pool_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def nbytes(self) -> int:
        """Total preallocated workspace footprint (diagnostics).

        Counts the template workspaces only; pooled clones created
        under contention add up to ``max_pooled`` times this.
        """
        return sum(
            bp.layout.nbytes()
            for bp in self.buckets
            if bp.layout is not None
        )

    @contextmanager
    def lease_workspaces(self) -> Iterator[list]:
        """Exclusive workspace set for one ``smooth_many`` replay.

        Yields a list parallel to :attr:`buckets` whose entry ``g`` is
        the :class:`~repro.batch.stacking.BucketLayout` workspace set
        to use for bucket ``g`` (``None`` for associative buckets,
        which carry no workspaces).  The first lease hands out the
        compiled template itself; concurrent leases clone fresh sets
        (:meth:`~repro.batch.stacking.BucketLayout.clone` is safe
        against in-flight writers).  On exit the set returns to the
        free list, up to :attr:`max_pooled` sets; beyond that it is
        dropped.
        """
        registry = obs.get_registry()
        with self._pool_lock:
            self.leases += 1
            workspaces = self._pool.pop() if self._pool else None
            if workspaces is None:
                self.clones += 1
        registry.counter("repro_plan_workspace_leases_total").inc()
        if workspaces is None:
            # Pool contention: a concurrent replay holds every pooled
            # set, so this caller pays a clone.
            registry.counter("repro_plan_workspace_clones_total").inc()
        if workspaces is None:
            workspaces = [
                bp.layout.clone() if bp.layout is not None else None
                for bp in self.buckets
            ]
        try:
            yield workspaces
        finally:
            with self._pool_lock:
                if len(self._pool) < self.max_pooled:
                    self._pool.append(workspaces)

    def workspace_stats(self) -> dict:
        """Lease counters, in the shape the smoother diagnostics record."""
        with self._pool_lock:
            return {
                "leases": self.leases,
                "clones": self.clones,
                "pooled": len(self._pool),
                "max_pooled": self.max_pooled,
            }


def build_plan(
    problems: list[StateSpaceProblem],
    pad: bool = True,
    exact_obs: bool = False,
    array_backend=None,
) -> SmoothPlan:
    """Run the structure pipeline once and record it as a plan.

    Buckets via :func:`bucket_problems` (the same decisions the
    un-planned path makes), compiles each odd-even bucket's layout
    from its padded members, and discards the padded problem objects
    — replays never construct them again.

    ``array_backend`` (a resolved
    :class:`~repro.linalg.xp.ArrayBackend`, or ``None`` for numpy)
    selects where the compiled workspaces live.
    """
    problems = list(problems)
    backend_name = (
        "numpy" if array_backend is None else array_backend.name
    )
    key = workload_key(
        problems, pad=pad, exact_obs=exact_obs, backend=backend_name
    )
    buckets = bucket_problems(problems, pad=pad, exact_obs=exact_obs)
    plans = []
    for bucket in buckets:
        layout = (
            None
            if exact_obs
            else build_bucket_layout(bucket, array_backend=array_backend)
        )
        plans.append(
            BucketPlan(
                indices=list(bucket.indices),
                n_states_orig=list(bucket.n_states_orig),
                target=bucket.n_states,
                layout=layout,
                signature=bucket.signature,
            )
        )
    plan = SmoothPlan(
        key=key,
        pad=bool(pad),
        exact_obs=bool(exact_obs),
        n_problems=len(problems),
        buckets=plans,
    )
    # Seed the lease pool with the compiled template set, so the
    # uncontended (single-caller) path replays with zero extra
    # allocation — exactly the pre-lease behavior.
    plan._pool.append([bp.layout for bp in plans])
    return plan


class PlanCache:
    """Thread-safe LRU cache of :class:`SmoothPlan` by workload key.

    ``get_or_build`` is the one entry point the smoother uses; hits
    move the entry to the most-recently-used position, misses build
    outside the lock (a racing duplicate build is benign — last one
    wins) and evict the least-recently-used entries beyond
    ``maxsize``.  Counters (:attr:`hits`/:attr:`misses`/
    :attr:`evictions`) feed the plan diagnostics recorded by the
    bench harness.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._plans: OrderedDict[tuple, SmoothPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(
        self, key: tuple, builder: Callable[[], SmoothPlan]
    ) -> tuple[SmoothPlan, bool]:
        """Return ``(plan, was_hit)`` for ``key``, building on a miss."""
        registry = obs.get_registry()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                registry.counter("repro_plan_cache_hits_total").inc()
                return plan, True
        plan = builder()
        evicted = 0
        with self._lock:
            self.misses += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
                evicted += 1
        registry.counter("repro_plan_cache_misses_total").inc()
        if evicted:
            registry.counter("repro_plan_cache_evictions_total").inc(
                evicted
            )
        return plan, False

    def get(self, key: tuple) -> SmoothPlan | None:
        """Peek without building (does not count as a hit or miss)."""
        with self._lock:
            return self._plans.get(key)

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        return key in self._plans

    def stats(self) -> dict:
        """Counters plus footprint, in the shape the benches record."""
        with self._lock:
            nbytes = sum(p.nbytes() for p in self._plans.values())
            return {
                "size": len(self._plans),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (
                    self.hits / (self.hits + self.misses)
                    if (self.hits + self.misses)
                    else 0.0
                ),
                "workspace_bytes": nbytes,
            }


_DEFAULT_CACHE: PlanCache | None = None
_DEFAULT_LOCK = threading.Lock()


def default_plan_cache() -> PlanCache:
    """The process-wide cache ``EstimatorConfig.resolve()`` defaults to."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = PlanCache()
        return _DEFAULT_CACHE
