"""Sharded, deadline-driven serving over many :class:`StreamServer`\\ s.

:class:`~repro.stream.server.StreamServer` micro-batches the window
solves of every stream it multiplexes, but it is a passive library
object: *something* has to decide when to call ``flush()``, and one
server is one giant ``smooth_many`` call — at thousands of streams the
stacked solve itself becomes the latency floor.  This module is that
something:

:class:`ShardedStreamServer`
    The synchronous core.  Streams are consistently hashed onto
    ``config.shards`` independent :class:`StreamServer` shards, each
    guarded by its own lock, so submissions from many threads never
    contend on one server (concurrent shard flushes share one cached
    :class:`~repro.batch.plan.SmoothPlan`, which no call changes).
    Flushing is *adaptive micro-batching*: a shard flushes when it
    accumulates ``max_batch`` due states (size trigger) or when the
    oldest due state has waited ``max_delay`` seconds (deadline
    trigger), whichever comes first.  Due shards flush concurrently
    through a :class:`~repro.parallel.backend.Backend`
    (:func:`~repro.parallel.backend.worker_pool`).  Every emission's
    queueing latency — emit time minus the instant its state became
    due — is recorded for :meth:`~ShardedStreamServer.latency_stats`.

:class:`AsyncStreamServer`
    The asyncio front-end: ``await``-able ``submit``/``open_stream``
    (the blocking core runs in the default executor via
    ``asyncio.to_thread``, so the event loop never stalls on a window
    solve), plus a background flusher task that sleeps exactly until
    the earliest shard deadline and feeds emissions into an
    ``asyncio.Queue``.

The core takes an injectable ``clock`` so deadline behavior is tested
with a fake clock — no wall-clock sleeps in the test suite.  The
repository benchmark's ``serve-open`` workload drives 128 concurrent
streams through this front-end at a fixed offered rate.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..api import ServingConfig
from ..parallel.backend import Backend
from .adaptive import AdaptiveBatchController
from .fixed_lag import Emission
from .server import StreamServer, StreamStep

__all__ = ["AsyncStreamServer", "ShardedStreamServer", "shard_of"]

#: reservoir size of the emission queueing-latency histogram — the
#: bounded replacement for the historical unbounded latency list
LATENCY_WINDOW = 4096


def shard_of(stream_id, shards: int) -> int:
    """Stable consistent hash of a stream id onto ``range(shards)``.

    Uses blake2b over ``repr(stream_id)`` rather than built-in
    ``hash()``: Python salts string hashes per process, and a serving
    tier must route a stream to the same shard across restarts and
    across processes.
    """
    digest = hashlib.blake2b(
        repr(stream_id).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % shards


@dataclass
class _Shard:
    server: StreamServer
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: clock time by which this shard must flush (None: nothing due)
    deadline: float | None = None
    #: per-stream FIFO of the clock times its states became due
    ready_since: dict = field(default_factory=dict)
    flushes: int = 0
    batch_flushes: int = 0
    #: registry instruments, bound at server construction
    flush_counter: obs.Counter | None = None
    batch_flush_counter: obs.Counter | None = None
    emission_counter: obs.Counter | None = None


class ShardedStreamServer:
    """Thread-safe sharded serving with adaptive micro-batching.

    Parameters
    ----------
    lag:
        Fixed lag shared by every stream (forwarded to each shard's
        :class:`~repro.stream.server.StreamServer`).
    config:
        The :class:`~repro.api.ServingConfig` knobs — shard count,
        ``max_batch`` size trigger, ``max_delay`` deadline, reorder
        backpressure.  Defaults to ``ServingConfig()``.
    backend:
        Optional :class:`~repro.parallel.backend.Backend` that fans
        the *shard flushes* out over workers (each shard's window
        solve is one stacked ``smooth_many``).  The caller owns the
        backend's lifetime.  ``None`` flushes shards sequentially.
    compute_covariance / smoother / dtype:
        Forwarded to every shard's :class:`StreamServer`.
    clock:
        Monotonic-seconds callable; defaults to ``time.monotonic``.
        Injectable so deadline behavior is testable without sleeping.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this server reports
        through (emission-latency series, per-shard flush counters,
        adaptive-controller gauge).  Defaults to the process-wide
        :func:`repro.obs.get_registry`; inject one per server for
        isolated scrapes.

    Notes
    -----
    ``submit`` applies the arrival and runs the *size* trigger; the
    *deadline* trigger runs in :meth:`poll`, which the caller (or the
    :class:`AsyncStreamServer` flusher task) invokes periodically —
    :meth:`next_deadline` says how long it may sleep first.  Emissions
    from both triggers accumulate internally and are drained by
    :meth:`poll` / :meth:`drain`.
    """

    def __init__(
        self,
        lag: int,
        config: ServingConfig | None = None,
        *,
        backend: Backend | None = None,
        compute_covariance: bool = True,
        smoother=None,
        dtype=None,
        clock: Callable[[], float] | None = None,
        registry: obs.MetricsRegistry | None = None,
    ):
        self.config = config if config is not None else ServingConfig()
        self.clock = clock if clock is not None else time.monotonic
        self.registry = (
            registry if registry is not None else obs.get_registry()
        )
        self._backend = backend
        self._shards = [
            _Shard(
                server=StreamServer(
                    lag,
                    compute_covariance=compute_covariance,
                    smoother=smoother,
                    dtype=dtype,
                    max_buffered=self.config.max_buffered,
                    overflow=self.config.overflow,
                    registry=self.registry,
                ),
                flush_counter=self.registry.counter(
                    "repro_serving_shard_flushes_total", shard=str(i)
                ),
                batch_flush_counter=self.registry.counter(
                    "repro_serving_shard_batch_flushes_total",
                    shard=str(i),
                ),
                emission_counter=self.registry.counter(
                    "repro_serving_shard_emissions_total", shard=str(i)
                ),
            )
            for i in range(self.config.shards)
        ]
        self._out: dict = {}
        self._out_lock = threading.Lock()
        # The bounded reservoir replacing the historical unbounded
        # ``_latencies`` list: exact count/min/max forever, quantiles
        # over the most recent LATENCY_WINDOW emissions.  It is this
        # server's own: the registry hands every server the same
        # exported series, and the SLO controller and latency_stats()
        # must not read other servers' emissions.
        self._latency_hist = obs.Histogram(window=LATENCY_WINDOW)
        self._latency_metric = self.registry.histogram(
            "repro_serving_emission_latency_seconds",
            window=LATENCY_WINDOW,
        )
        self._max_batch = self.config.max_batch
        self._controller: AdaptiveBatchController | None = None
        self._max_batch_gauge = self.registry.gauge(
            "repro_serving_max_batch"
        )
        if self.config.latency_slo is not None:
            initial = (
                self.config.max_batch
                if self.config.max_batch is not None
                else 64
            )
            self._controller = AdaptiveBatchController(
                self.config.latency_slo,
                self._latency_hist,
                initial=initial,
                min_batch=self.config.min_batch,
                max_batch=initial,
                interval=self.config.adapt_interval,
                min_samples=self.config.adapt_min_samples,
                clock=self.clock,
            )
            self._max_batch = self._controller.current
        if self._max_batch is not None:
            self._max_batch_gauge.set(self._max_batch)

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def open_stream(self, stream_id, state_dim, prior=None) -> int:
        """Register a stream; returns the shard index it routed to."""
        i = shard_of(stream_id, self.config.shards)
        shard = self._shards[i]
        with shard.lock:
            shard.server.open_stream(stream_id, state_dim, prior=prior)
            shard.ready_since[stream_id] = deque()
        return i

    def close_stream(self, stream_id) -> list[Emission]:
        """Flush the stream's shard, then finalize and return the tail.

        Due states flushed here are drained via :meth:`poll`/:
        meth:`drain` like any others; the returned list holds only the
        finalization emissions (in-window states, no latency record —
        they were never due).
        """
        shard = self._shards[shard_of(stream_id, self.config.shards)]
        with shard.lock:
            now = self.clock()
            self._flush_shard(shard, now)
            out = shard.server.close_stream(stream_id)
            shard.ready_since.pop(stream_id, None)
        return out

    def drop_stream(self, stream_id) -> None:
        shard = self._shards[shard_of(stream_id, self.config.shards)]
        with shard.lock:
            shard.server.drop_stream(stream_id)
            shard.ready_since.pop(stream_id, None)

    # ------------------------------------------------------------------
    # arrivals and flushing
    # ------------------------------------------------------------------
    def submit(self, stream_id, step: StreamStep) -> None:
        """Accept one arrival; may trigger a size-based shard flush."""
        shard = self._shards[shard_of(stream_id, self.config.shards)]
        with shard.lock:
            now = self.clock()
            server = shard.server
            server.submit(stream_id, step)
            # Timestamp the states this arrival made due: the deque
            # trails pending_emissions() and the gap is exactly the
            # newly due states (a gap-filling arrival adds several).
            ready = shard.ready_since[stream_id]
            pending = server.pending_emissions(stream_id)
            while len(ready) < pending:
                ready.append(now)
            total = server.total_pending()
            if total > 0 and shard.deadline is None:
                shard.deadline = now + self.config.max_delay
            if (
                self._max_batch is not None
                and total >= self._max_batch
            ):
                shard.batch_flushes += 1
                shard.batch_flush_counter.inc()
                self._flush_shard(shard, now)
        self._adapt(now)

    def poll(self, now: float | None = None) -> dict:
        """Flush every shard whose deadline passed; drain emissions.

        Returns everything accumulated since the last drain — deadline
        flushes from this call plus earlier size-triggered flushes —
        as ``{stream_id: [Emission, ...]}``.
        """
        if now is None:
            now = self.clock()
        due = [
            s
            for s in self._shards
            if s.deadline is not None and s.deadline <= now
        ]
        self._flush_shards(due, now)
        self._adapt(now)
        return self.drain()

    def flush_all(self) -> dict:
        """Force-flush every shard and drain (shutdown / barrier)."""
        self._flush_shards(self._shards, self.clock())
        return self.drain()

    def drain(self) -> dict:
        """Hand over every emission accumulated by past flushes."""
        with self._out_lock:
            out, self._out = self._out, {}
        return out

    def next_deadline(self) -> float | None:
        """Earliest shard deadline, or ``None`` when nothing is due."""
        deadlines = [
            s.deadline for s in self._shards if s.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def _flush_shards(self, shards: list[_Shard], now: float) -> None:
        if not shards:
            return

        def flush_one(shard: _Shard) -> None:
            with shard.lock:
                self._flush_shard(shard, now)

        if self._backend is not None and len(shards) > 1:
            # block_size=1: one task per shard, else the default block
            # size would run small fleets inline on this thread.
            self._backend.map(
                shards, flush_one, phase="shard_flush", block_size=1
            )
        else:
            for shard in shards:
                flush_one(shard)

    def _flush_shard(self, shard: _Shard, now: float) -> None:
        """Flush one shard. Caller holds ``shard.lock``."""
        emitted = shard.server.flush()
        shard.deadline = None
        shard.flushes += 1
        shard.flush_counter.inc()
        if not emitted:
            return
        n_emitted = 0
        for sid, ems in emitted.items():
            ready = shard.ready_since.get(sid)
            n_emitted += len(ems)
            for _ in ems:
                if ready:
                    latency = now - ready.popleft()
                    self._latency_hist.observe(latency)
                    self._latency_metric.observe(latency)
        shard.emission_counter.inc(n_emitted)
        with self._out_lock:
            for sid, ems in emitted.items():
                self._out.setdefault(sid, []).extend(ems)

    def _adapt(self, now: float) -> None:
        """One (rate-limited) SLO decision; applies a resize if any."""
        if self._controller is None:
            return
        new = self._controller.update(now)
        if new != self._max_batch:
            self._max_batch = new
            self._max_batch_gauge.set(new)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int | None:
        """The *effective* size trigger (adaptation may have resized
        it within ``[config.min_batch, config.max_batch]``)."""
        return self._max_batch

    def latency_stats(self) -> dict:
        """Percentiles of recorded emission queueing latencies (sec).

        Latency is the time from the instant a state became due (its
        ``lag``-th successor arrived) to the flush that emitted it —
        the quantity ``max_delay`` bounds, excluding solve time only
        insofar as the flush timestamp is taken when the flush starts.

        A thin view over the server's bounded reservoir: ``count`` is
        exact over the server's lifetime, the percentiles cover the
        most recent ``window`` emissions (``retained`` of them so
        far).  The schema is stable — every value is always a number,
        zeros when nothing was recorded yet (never ``None``).
        """
        snap = self._latency_hist.snapshot()
        return {
            "count": int(snap["count"]),
            "window": int(snap["window"]),
            "retained": int(snap["retained"]),
            "p50": snap["p50"],
            "p99": snap["p99"],
            "max": snap["max"],
        }

    def stats(self) -> dict:
        """Aggregate serving counters across shards.

        A thin view over the registry instruments plus per-shard
        state.  ``adaptive`` is the controller's counters when a
        ``latency_slo`` is configured and ``None`` for the lifetime of
        a static server (the schema never changes across calls on one
        instance).
        """
        per_shard = []
        streams = 0
        for shard in self._shards:
            with shard.lock:
                s = shard.server.stats()
                per_shard.append(
                    {
                        "streams": s["streams"],
                        "flushes": shard.flushes,
                        "batch_flushes": shard.batch_flushes,
                        "pending": shard.server.total_pending(),
                    }
                )
                streams += s["streams"]
        return {
            "streams": streams,
            "shards": self.config.shards,
            "max_batch": self._max_batch,
            "per_shard": per_shard,
            "latency": self.latency_stats(),
            "adaptive": (
                self._controller.stats()
                if self._controller is not None
                else None
            ),
        }


class AsyncStreamServer:
    """Asyncio front-end over a :class:`ShardedStreamServer`.

    Usage::

        core = ShardedStreamServer(lag=4, config=ServingConfig())
        async with AsyncStreamServer(core) as server:
            await server.open_stream("s", state_dim)
            await server.submit("s", step)
            stream_id, emission = await server.next_emission()

    Submissions run in the default executor (``asyncio.to_thread``) so
    a window solve never blocks the event loop; a background flusher
    task wakes at the earliest shard deadline (or ``idle_poll`` when
    idle) and pushes ``(stream_id, Emission)`` pairs onto
    :attr:`emissions`.  Exiting the context cancels the flusher,
    force-flushes the core, and delivers the remainder.
    """

    def __init__(
        self, core: ShardedStreamServer, *, idle_poll: float = 0.05
    ):
        if idle_poll <= 0.0:
            raise ValueError(f"idle_poll must be > 0, got {idle_poll}")
        self.core = core
        self.idle_poll = idle_poll
        self.emissions = None  # asyncio.Queue, created on start()
        self._flusher = None

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc):
        await self.stop()

    async def start(self) -> None:
        import asyncio

        if self._flusher is not None:
            raise RuntimeError("AsyncStreamServer is already running")
        self.emissions = asyncio.Queue()
        self._flusher = asyncio.create_task(self._run_flusher())

    async def stop(self) -> None:
        """Cancel the flusher, flush everything, deliver the rest."""
        import asyncio

        if self._flusher is None:
            return
        self._flusher.cancel()
        try:
            await self._flusher
        except asyncio.CancelledError:
            pass
        self._flusher = None
        self._publish(await asyncio.to_thread(self.core.flush_all))

    async def open_stream(self, stream_id, state_dim, prior=None) -> int:
        import asyncio

        return await asyncio.to_thread(
            self.core.open_stream, stream_id, state_dim, prior
        )

    async def submit(self, stream_id, step: StreamStep) -> None:
        import asyncio

        await asyncio.to_thread(self.core.submit, stream_id, step)

    async def close_stream(self, stream_id) -> list[Emission]:
        import asyncio

        out = await asyncio.to_thread(self.core.close_stream, stream_id)
        self._publish(await asyncio.to_thread(self.core.drain))
        return out

    async def next_emission(self):
        """The next ``(stream_id, Emission)`` pair, awaiting one."""
        return await self.emissions.get()

    def _publish(self, drained: dict) -> None:
        for sid, ems in drained.items():
            for em in ems:
                self.emissions.put_nowait((sid, em))

    async def _run_flusher(self) -> None:
        import asyncio

        while True:
            deadline = self.core.next_deadline()
            if deadline is None:
                delay = self.idle_poll
            else:
                delay = max(0.0, deadline - self.core.clock())
            await asyncio.sleep(delay)
            self._publish(await asyncio.to_thread(self.core.poll))
