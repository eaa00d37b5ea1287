"""The one configuration object shared by every estimator.

Before :mod:`repro.api` existed, execution options were scattered:
``backend`` was a per-call kwarg on some smoothers, and
``compute_covariance`` lived both in constructors and in call-site
overrides.  :class:`EstimatorConfig` collects them in one immutable
value with explicit merge semantics:

* an **unset** field is ``None`` and defers to the next layer;
* :meth:`merged` lets a call-site config override an instance default;
* :meth:`resolve` applies the global defaults exactly once — this is
  the single home of the old ``if backend is None: backend =
  SerialBackend()`` idiom and of the constructor-vs-call
  ``compute_covariance`` override logic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..parallel.backend import Backend, SerialBackend

if TYPE_CHECKING:
    from ..batch.plan import PlanCache

__all__ = ["EstimatorConfig", "ServingConfig"]

#: dtype spellings that request the mixed-precision fast path: solve in
#: float32, one step of float64 iterative refinement, float64 outputs.
_MIXED_DTYPE_NAMES = ("mixed", "float32-refined")


@dataclass(frozen=True)
class EstimatorConfig:
    """Execution options for one ``smooth``/``smooth_many`` call.

    Parameters
    ----------
    backend:
        :class:`~repro.parallel.backend.Backend` the heavy phases
        dispatch through; unset means serial execution.
    compute_covariance:
        ``False`` selects the NC variant (skip the covariance phase)
        where the algorithm supports it; unset means the smoother's
        default (covariances on, except for means-only algorithms).
    dtype:
        Precision request.  ``numpy.float32`` runs the batched solve
        in single precision (with float64 iterative refinement — see
        :class:`~repro.batch.BatchSmoother`) and returns float32
        arrays; the strings ``"mixed"`` / ``"float32-refined"`` do the
        same float32 solve but return refined float64 arrays.  Any
        other dtype casts the returned means/covariances only (the
        solve runs in float64, the historical behavior).  Per-sequence
        smoothers honor ``dtype`` as an output cast.  Unset leaves the
        float64 arrays untouched.
    plan_cache:
        Batched smoothers only: the
        :class:`~repro.batch.plan.PlanCache` that memoizes bucketing
        plans across ``smooth_many`` calls.  Unset means the
        process-wide :func:`~repro.batch.plan.default_plan_cache`;
        :meth:`resolve` rejects anything but a ``PlanCache`` with
        ``TypeError``.
    array_module:
        Array backend the stacked kernels run on: a backend name
        (``"numpy"``, ``"torch"``, or the test-oriented ``"mirror"``),
        an imported module object (``array_module=torch``), or a
        resolved :class:`~repro.linalg.xp.ArrayBackend`.  numpy is
        always available and is the correctness oracle; torch is an
        optional dependency imported lazily — selecting it when it is
        not installed raises a descriptive ``ImportError`` at
        :meth:`resolve` time.  Unset means numpy.  Supported by the
        batched smoothers and the associative smoother; other engines
        reject a non-numpy selection.
    """

    backend: Backend | None = None
    compute_covariance: bool | None = None
    dtype: Any = None
    plan_cache: PlanCache | None = None
    array_module: Any = None

    @property
    def solve_dtype(self) -> Any:
        """The dtype the numeric solve should run in, or ``None``.

        ``None`` means the default full float64 pipeline.  Returns
        ``numpy.float32`` for float32 and mixed-precision requests —
        the batched hot path then whitens in float64, factors and
        solves in float32, and refines in float64.
        """
        if self.dtype is None:
            return None
        if isinstance(self.dtype, str) and self.dtype in _MIXED_DTYPE_NAMES:
            return np.float32
        if np.dtype(self.dtype) == np.float32:
            return np.float32
        return None

    @property
    def output_dtype(self) -> Any:
        """The dtype returned arrays are cast to, or ``None`` (as-is).

        Mixed-precision requests return float64 (the refined result);
        explicit dtypes are honored as output casts.
        """
        if self.dtype is None:
            return None
        if isinstance(self.dtype, str) and self.dtype in _MIXED_DTYPE_NAMES:
            return np.float64
        return np.dtype(self.dtype)

    def replace(self, **overrides: Any) -> "EstimatorConfig":
        """A copy with the given fields replaced (unknown names raise)."""
        return dataclasses.replace(self, **overrides)

    def merged(self, override: "EstimatorConfig | None") -> "EstimatorConfig":
        """Layer ``override`` on top of ``self``.

        Every field that is *set* (not ``None``) on ``override`` wins;
        unset fields fall through to ``self``.  ``None`` is accepted
        and returns ``self`` unchanged, so defaults chain naturally::

            instance_defaults.merged(call_config)
        """
        if override is None:
            return self
        updates = {
            f.name: getattr(override, f.name)
            for f in dataclasses.fields(self)
            if getattr(override, f.name) is not None
        }
        return dataclasses.replace(self, **updates) if updates else self

    def resolve(
        self,
        defaults: "EstimatorConfig | None" = None,
        *,
        default_compute_covariance: bool = True,
    ) -> "EstimatorConfig":
        """Fill every unset field: the single resolution path.

        Layers ``self`` over ``defaults`` (an estimator's instance
        configuration), then applies the global defaults — a fresh
        :class:`~repro.parallel.backend.SerialBackend`, covariances per
        ``default_compute_covariance``, the process-wide plan cache.
        The result has no ``None`` fields except ``dtype`` (whose
        default *is* "leave the float64 arrays alone").
        """
        # Imported lazily: repro.batch imports repro.api at module
        # load, so a top-level import here would be circular.
        from ..batch.plan import PlanCache, default_plan_cache
        from ..linalg.xp import get_backend

        merged = defaults.merged(self) if defaults is not None else self
        plan_cache = merged.plan_cache
        if plan_cache is None:
            plan_cache = default_plan_cache()
        elif not isinstance(plan_cache, PlanCache):
            raise TypeError(
                "plan_cache must be a PlanCache or unset, got "
                f"{plan_cache!r}"
            )

        return EstimatorConfig(
            backend=(
                merged.backend if merged.backend is not None else SerialBackend()
            ),
            compute_covariance=(
                default_compute_covariance
                if merged.compute_covariance is None
                else merged.compute_covariance
            ),
            dtype=merged.dtype,
            plan_cache=plan_cache,
            array_module=get_backend(merged.array_module),
        )


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs for the sharded serving front-end.

    Consumed by :class:`~repro.stream.ShardedStreamServer` (and its
    asyncio wrapper :class:`~repro.stream.AsyncStreamServer`); kept
    here next to :class:`EstimatorConfig` so every execution knob in
    the repository lives in one module.

    Parameters
    ----------
    shards:
        Number of independent :class:`~repro.stream.StreamServer`
        shards streams are hashed onto.  Each shard flushes as one
        micro-batched ``smooth_many`` call; shards flush concurrently
        on a :func:`~repro.parallel.backend.worker_pool` backend, so
        size this to the worker count.
    max_batch:
        Flush a shard as soon as it holds this many due-but-unemitted
        states, without waiting for the deadline.  ``None`` disables
        the size trigger (deadline-only flushing).
    max_delay:
        Seconds a due state may wait before its shard is force-flushed
        (the latency bound of the adaptive micro-batcher).  The
        deadline starts when a shard goes from empty to non-empty.
        ``0.0`` flushes on every poll.
    max_buffered / overflow:
        Per-stream reorder-buffer backpressure, forwarded verbatim to
        every shard's :class:`~repro.stream.StreamServer`.  Unlike the
        bare server, serving defaults to a *bounded* buffer — an
        unbounded default is how slow producers take a fleet down.
    latency_slo:
        Target p99 emission queueing latency in **seconds**.  ``None``
        (default) serves with the static ``max_batch`` trigger.  Set,
        it arms an :class:`~repro.stream.AdaptiveBatchController` that
        resizes the effective batch trigger against the *observed* p99
        (from the bounded latency reservoir): shrink on breach, grow
        back under headroom, hysteresis in between.  ``max_batch``
        becomes the adaptation's upper bound (never exceeded), so
        backpressure bounds are never loosened by adaptation.
    min_batch:
        Lower bound for the adaptive batch trigger (ignored without
        ``latency_slo``).
    adapt_interval / adapt_min_samples:
        Decision rate limits for the controller: at least this many
        seconds *and* this many fresh latency samples between
        resizes.
    """

    shards: int = 4
    max_batch: int | None = 64
    max_delay: float = 0.005
    max_buffered: int | None = 64
    overflow: str = "reject"
    latency_slo: float | None = None
    min_batch: int = 1
    adapt_interval: float = 0.25
    adapt_min_samples: int = 32

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1 or None, got {self.max_batch}"
            )
        if self.max_delay < 0.0:
            raise ValueError(
                f"max_delay must be >= 0, got {self.max_delay}"
            )
        if self.max_buffered is not None and self.max_buffered < 1:
            raise ValueError(
                f"max_buffered must be >= 1 or None, got {self.max_buffered}"
            )
        if self.overflow not in ("reject", "evict"):
            raise ValueError(
                f"unknown overflow policy {self.overflow!r}; expected "
                "'reject' or 'evict'"
            )
        if self.latency_slo is not None and self.latency_slo <= 0.0:
            raise ValueError(
                f"latency_slo must be > 0 seconds or None, got "
                f"{self.latency_slo}"
            )
        if self.min_batch < 1:
            raise ValueError(
                f"min_batch must be >= 1, got {self.min_batch}"
            )
        if self.max_batch is not None and self.min_batch > self.max_batch:
            raise ValueError(
                f"min_batch ({self.min_batch}) must be <= max_batch "
                f"({self.max_batch})"
            )
        if self.adapt_interval <= 0.0:
            raise ValueError(
                f"adapt_interval must be > 0, got {self.adapt_interval}"
            )
        if self.adapt_min_samples < 1:
            raise ValueError(
                f"adapt_min_samples must be >= 1, got "
                f"{self.adapt_min_samples}"
            )

    def replace(self, **overrides: Any) -> "ServingConfig":
        """A copy with the given fields replaced (unknown names raise)."""
        return dataclasses.replace(self, **overrides)
