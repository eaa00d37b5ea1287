"""Cached bucketing plans for repeated-structure batched workloads.

Before any numeric kernel runs, ``BatchSmoother.smooth_many`` groups
its problems into stackable buckets: per-problem signatures, length
bucketing and padding targets.  Serving traffic (the
:class:`~repro.stream.StreamServer` fleet) solves the *same* window
structure on every flush, so this module records those decisions once
per structure:

* :func:`workload_key` fingerprints a workload — the per-problem exact
  :func:`~repro.batch.stacking.structure_signature` (observation rows
  included, prior folded) plus the bucketing mode — into a hashable
  key.  Equal keys guarantee identical bucketing decisions.
* :func:`build_plan` runs :func:`~repro.batch.stacking.bucket_problems`
  once and records its outcome as a :class:`SmoothPlan`: for each
  bucket the member indices, real lengths, padded length and
  signature (:class:`~repro.batch.stacking.Bucket`).
* :class:`PlanCache` is a thread-safe LRU keyed by workload key,
  threaded through :class:`~repro.api.EstimatorConfig` (the
  ``plan_cache`` field; ``resolve()`` defaults it to the process-wide
  :func:`default_plan_cache`).

A plan holds no arrays and no call changes it: members are padded and
stacked at call time (:func:`~repro.batch.stacking.stack_whitened`),
so concurrent callers replaying one cached plan share it freely and a
replay computes exactly what a freshly built plan does.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .. import obs
from ..model.problem import StateSpaceProblem
from .stacking import Bucket, bucket_problems, structure_signature

__all__ = [
    "PlanCache",
    "SmoothPlan",
    "build_plan",
    "default_plan_cache",
    "workload_key",
]


def workload_key(
    problems: list[StateSpaceProblem], exact_obs: bool = False
) -> tuple:
    """Hashable structure fingerprint of a ``smooth_many`` workload.

    Extends the per-problem :func:`structure_signature` to a full
    workload key: the exact per-step shapes of every problem *in
    order* (observation rows included), plus the ``exact_obs`` option
    that steers bucketing.  Two workloads with equal keys make
    identical bucketing decisions, which is what licenses replaying a
    cached :class:`SmoothPlan` without re-validation.
    """
    return (
        bool(exact_obs),
        tuple(
            structure_signature(p, obs_rows=True) for p in problems
        ),
    )


@dataclass(frozen=True)
class SmoothPlan:
    """Everything ``smooth_many`` decides before touching numbers.

    ``buckets`` partition the workload in first-appearance order; see
    :class:`~repro.batch.stacking.Bucket`.
    """

    buckets: tuple[Bucket, ...]


def build_plan(
    problems: list[StateSpaceProblem], exact_obs: bool = False
) -> SmoothPlan:
    """Bucket a workload once and record the decisions as a plan."""
    return SmoothPlan(
        buckets=tuple(bucket_problems(list(problems), exact_obs=exact_obs))
    )


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
        """Counters, in the shape the benches record."""
        with self._lock:
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
