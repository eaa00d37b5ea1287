"""Micro-batched serving of many concurrent live streams.

One :class:`StreamServer` multiplexes any number of live sequences,
each backed by a :class:`~repro.stream.fixed_lag.FixedLagSmoother` in
deferred-emission mode.  Arrivals are buffered per stream and applied
in sequence order (out-of-order and missing-observation arrivals are
handled by a reorder buffer), and :meth:`StreamServer.flush` solves
every due window in *one* :class:`~repro.batch.BatchSmoother` call:
the windows share a block structure (same lag, same model shapes), so
they stack on a leading batch axis and every recursion level's tiny
QR/solve calls collapse into stacked LAPACK kernels — the same
micro-batching that gives ``repro.batch`` its throughput, applied to
the window solves of live traffic.  Heavy phases can run on a
:func:`~repro.parallel.backend.worker_pool`.

This is the serving counterpart of the incremental API the paper's
implementations are built on (§5.1, UltimateKalman — Toledo
arXiv:2207.13526): filtering stays per-stream and online; the batch
window smooths are where the paper's stacked orthogonal
transformations pay off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..api import EstimatorConfig, call_smoother_many, coerce_smoother
from ..batch import BatchSmoother
from ..errors import ReorderBufferFullError, UnobservableStateError
from ..model.steps import Evolution, Observation
from ..parallel.backend import Backend
from .fixed_lag import Emission, FixedLagSmoother

__all__ = ["StreamStep", "StreamServer"]


@dataclass
class StreamStep:
    """One arrival: step ``seq`` of a stream.

    ``seq`` numbers a stream's steps from 0.  Step 0 carries no
    evolution (it defines the initial state); every later step must
    carry one.  ``observation=None`` models a missing observation
    (sensor dropout) — the step still advances the state.
    """

    seq: int
    evolution: Evolution | None = None
    observation: Observation | None = None

    def __post_init__(self):
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0, got {self.seq}")
        if self.seq == 0 and self.evolution is not None:
            raise ValueError(
                "step 0 defines the initial state and cannot carry an "
                "evolution equation"
            )
        if self.seq > 0 and self.evolution is None:
            raise ValueError(
                f"step {self.seq} is missing its evolution equation"
            )


@dataclass
class _StreamState:
    smoother: FixedLagSmoother
    #: reorder buffer: seq -> StreamStep not yet applicable in order
    buffered: dict[int, StreamStep] = field(default_factory=dict)
    #: next sequence number the smoother is waiting for
    next_seq: int = 0
    applied: int = 0
    emitted: int = 0
    #: out-of-order arrivals dropped by the ``overflow="evict"`` policy
    evicted: int = 0


class StreamServer:
    """Serve many concurrent streams with micro-batched window solves.

    Parameters
    ----------
    lag:
        Fixed lag shared by every stream (see
        :class:`~repro.stream.fixed_lag.FixedLagSmoother` for the
        lag-vs-accuracy contract).
    compute_covariance:
        Attach covariances to emissions; ``False`` for means-only.
    smoother:
        The batch engine for flushes; defaults to
        :class:`~repro.batch.BatchSmoother` (stacked odd-even
        kernels).  Accepts any :class:`~repro.api.Smoother` or a
        registered name for :func:`~repro.api.make_smoother`.
    backend:
        Optional :class:`~repro.parallel.backend.Backend` the batch
        engine dispatches its heavy phases through (e.g.
        :func:`~repro.parallel.backend.worker_pool`).  The caller owns
        the backend's lifetime.
    dtype:
        Optional precision request forwarded to every flush solve —
        the :attr:`~repro.api.EstimatorConfig.dtype` semantics
        (``numpy.float32`` / ``"mixed"`` select the batched
        mixed-precision fast path).  ``None`` (default) leaves the
        float64 pipeline untouched.
    max_buffered:
        Bound on each stream's reorder buffer (out-of-order arrivals
        waiting for a gap to fill).  ``None`` (the historical default)
        leaves the buffer unbounded — a stream that never sends its
        next in-order step then grows without limit, so serving
        deployments should always set a bound.
    overflow:
        What to do when a buffering arrival would exceed
        ``max_buffered``.  ``"reject"`` (default) raises
        :class:`~repro.errors.ReorderBufferFullError` and drops
        nothing — the producer fills the gap or retries later.
        ``"evict"`` keeps the arrivals *closest* to the open gap (the
        ones that unblock first) and drops the highest-seq step among
        the buffered ones and the newcomer; drops are counted in
        :meth:`stats` (``per_stream[...]["evicted"]``) and the
        producer is expected to resend them.
    registry:
        The :class:`~repro.obs.MetricsRegistry` receiving the server's
        instruments (reorder-buffer occupancy/evictions/rejections,
        flush and emission counters, the flush-solve span).  Defaults
        to the process-wide :func:`repro.obs.get_registry`.

    Notes
    -----
    A flush may find windows that have grown more than one step past
    the lag (several arrivals between flushes): the extra data only
    *improves* the emitted estimates — ``lag`` is the minimum amount
    of future data an emission conditions on, never the maximum.
    """

    def __init__(
        self,
        lag: int,
        *,
        compute_covariance: bool = True,
        smoother=None,
        backend: Backend | None = None,
        dtype=None,
        max_buffered: int | None = None,
        overflow: str = "reject",
        registry: obs.MetricsRegistry | None = None,
    ):
        if lag < 1:
            raise ValueError(f"lag must be >= 1, got {lag}")
        if max_buffered is not None and max_buffered < 1:
            raise ValueError(
                f"max_buffered must be >= 1 or None, got {max_buffered}"
            )
        if overflow not in ("reject", "evict"):
            raise ValueError(
                f"unknown overflow policy {overflow!r}; expected "
                "'reject' or 'evict'"
            )
        self.lag = int(lag)
        self.max_buffered = max_buffered
        self.overflow = overflow
        self.compute_covariance = compute_covariance
        smoother = coerce_smoother(smoother)
        self._smoother = (
            smoother
            if smoother is not None
            else BatchSmoother(compute_covariance=compute_covariance)
        )
        self._backend = backend
        self._dtype = dtype
        self._streams: dict[object, _StreamState] = {}
        # Registry instruments (bound at construction; servers sharing
        # one registry aggregate into the same series).
        registry = registry if registry is not None else obs.get_registry()
        self._registry = registry
        self._m_occupancy = registry.histogram(
            "repro_stream_reorder_buffered"
        )
        self._m_rejections = registry.counter(
            "repro_stream_reorder_rejections_total"
        )
        self._m_evictions = registry.counter(
            "repro_stream_reorder_evictions_total"
        )
        self._m_flushes = registry.counter("repro_stream_flushes_total")
        self._m_emissions = registry.counter(
            "repro_stream_emissions_total"
        )
        # Fail at construction, not on the first flush: the server
        # forwards compute_covariance into every window solve, so a
        # smoother that cannot honor it must be rejected up front.
        caps = self._smoother.capabilities
        name = self._smoother.name
        if caps.iterative:
            raise ValueError(
                f"smoother {name!r} is an iterated nonlinear smoother "
                "(capability iterative=True) and cannot serve streaming "
                "windows — the server solves *linear* window problems; "
                "linearize upstream and serve with a linear batch "
                "smoother instead"
            )
        if not compute_covariance and not caps.supports_nc:
            raise ValueError(
                f"smoother {name!r} cannot skip the covariance "
                "computation (capability supports_nc=False), but the "
                "server was constructed with compute_covariance=False — "
                "use a QR-family batch smoother for means-only serving"
            )
        if compute_covariance and caps.means_only:
            raise ValueError(
                f"smoother {name!r} computes means only (capability "
                "means_only=True), but the server was constructed with "
                "compute_covariance=True — pass compute_covariance=False"
            )

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def open_stream(
        self,
        stream_id,
        state_dim: int,
        prior: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Register a new live stream; fails on a duplicate id."""
        if stream_id in self._streams:
            raise ValueError(f"stream {stream_id!r} is already open")
        self._streams[stream_id] = _StreamState(
            smoother=FixedLagSmoother(
                state_dim,
                self.lag,
                prior=prior,
                auto_emit=False,
                compute_covariance=self.compute_covariance,
            )
        )

    def close_stream(self, stream_id) -> list[Emission]:
        """Finalize a stream and return every remaining emission.

        Refuses (``ValueError``) if buffered out-of-order arrivals are
        still waiting on a gap — closing would silently drop them.
        """
        state = self._state(stream_id)
        if state.buffered:
            waiting = sorted(state.buffered)
            raise ValueError(
                f"stream {stream_id!r} has a gap: step {state.next_seq} "
                f"never arrived, steps {waiting} are still buffered"
            )
        # Finalize before deregistering: if the final window solve
        # fails (e.g. an unobservable tail) the stream stays open and
        # inspectable instead of being silently dropped.
        out = state.smoother.finalize()
        del self._streams[stream_id]
        return out

    def drop_stream(self, stream_id) -> None:
        """Evict a stream without finalizing it.

        The escape hatch for a stream whose window became unobservable
        (:meth:`flush` names them): its buffered arrivals and window
        state are discarded, un-drained emissions included.
        """
        self._state(stream_id)
        del self._streams[stream_id]

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def submit(self, stream_id, step: StreamStep) -> None:
        """Accept one arrival, in or out of order.

        Steps at or before the stream's applied frontier are duplicates
        and rejected; steps beyond the next expected one are buffered
        until the gap fills, subject to the ``max_buffered`` /
        ``overflow`` backpressure policy.  A step whose model data is
        not finite is rejected with a ``ValueError`` before it is
        buffered, so the stream is untouched and the step can be
        resubmitted.
        """
        state = self._state(stream_id)
        self._check_finite(stream_id, step)
        if step.seq < state.next_seq or step.seq in state.buffered:
            raise ValueError(
                f"duplicate arrival for stream {stream_id!r}: step "
                f"{step.seq} was already "
                + (
                    "applied"
                    if step.seq < state.next_seq
                    else "buffered"
                )
            )
        if (
            self.max_buffered is not None
            and step.seq != state.next_seq
            and len(state.buffered) >= self.max_buffered
        ):
            if self.overflow == "reject":
                self._m_rejections.inc()
                raise ReorderBufferFullError(
                    f"stream {stream_id!r} already buffers "
                    f"{len(state.buffered)} out-of-order steps "
                    f"(max_buffered={self.max_buffered}) while waiting "
                    f"for step {state.next_seq}; fill the gap or retry "
                    f"step {step.seq} after it closes"
                )
            # overflow == "evict": keep the steps closest to the open
            # gap; the furthest-out step (which may be the newcomer)
            # is dropped and counted, to be resent by the producer.
            victim = max(max(state.buffered), step.seq)
            state.evicted += 1
            self._m_evictions.inc()
            if victim == step.seq:
                return
            del state.buffered[victim]
        state.buffered[step.seq] = step
        self._drain(stream_id, state)
        # Occupancy is sampled only when the reorder buffer is actually
        # holding out-of-order arrivals — the in-order fast path stays
        # one length check.
        if state.buffered:
            self._m_occupancy.observe(len(state.buffered))

    def _drain(self, stream_id, state: _StreamState) -> None:
        while state.next_seq in state.buffered:
            step = state.buffered[state.next_seq]
            # Validate the whole step before mutating the timeline so
            # a bad arrival cannot leave the stream half-applied (an
            # evolved state whose observation was rejected).  Rejected
            # arrivals are discarded from the buffer — the stream
            # stays intact and a corrected step can be resubmitted.
            # (A bad step buffered out of order surfaces here from a
            # later submit; the error names its own seq, not the
            # submitted one.)
            try:
                self._validate_step(stream_id, state, step)
            except ValueError:
                state.buffered.pop(state.next_seq)
                raise
            if step.evolution is not None:
                state.smoother.evolve_step(step.evolution)
            if step.observation is not None:
                state.smoother.observe_step(step.observation)
            state.buffered.pop(state.next_seq)
            state.applied += 1
            state.next_seq += 1

    @staticmethod
    def _check_finite(stream_id, step: StreamStep) -> None:
        """Reject NaN/Inf data: one bad value would poison the stream's
        whole window, and every later estimate with it."""
        arrays = {}
        if step.evolution is not None:
            evo = step.evolution
            arrays.update({"F": evo.F, "c": evo.c, "H": evo.H})
        if step.observation is not None:
            arrays.update({"G": step.observation.G, "o": step.observation.o})
        bad = [k for k, a in arrays.items() if not np.isfinite(a).all()]
        if bad:
            raise ValueError(
                f"stream {stream_id!r} step {step.seq}: non-finite values "
                f"in {', '.join(bad)}; the step was rejected"
            )

    @staticmethod
    def _validate_step(
        stream_id, state: _StreamState, step: StreamStep
    ) -> None:
        if (
            step.evolution is not None
            and step.evolution.prev_dim != state.smoother.current_dim
        ):
            raise ValueError(
                f"stream {stream_id!r} step {step.seq}: F has "
                f"{step.evolution.prev_dim} columns but the current "
                f"state has dimension {state.smoother.current_dim}"
            )
        new_dim = (
            step.evolution.state_dim
            if step.evolution is not None
            else state.smoother.current_dim
        )
        if (
            step.observation is not None
            and step.observation.state_dim != new_dim
        ):
            raise ValueError(
                f"stream {stream_id!r} step {step.seq}: observation G "
                f"has {step.observation.state_dim} columns but the "
                f"state there has dimension {new_dim}"
            )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def flush(self) -> dict[object, list[Emission]]:
        """Solve every due window in one micro-batched call.

        Returns the newly emitted estimates per stream id (streams
        with nothing to deliver are absent).  The window problems of
        all due streams are smoothed by one ``smooth_many`` — stacked
        kernels across the whole fleet.

        One rank-deficient window cannot wedge the fleet: if the
        stacked call fails, every due stream is re-solved separately,
        and the raised :class:`~repro.errors.UnobservableStateError`
        names the broken stream ids (:meth:`drop_stream` evicts
        them).  Healthy streams' results are kept queued and delivered
        by the next successful flush — nothing is lost.
        """
        due = [
            (sid, state)
            for sid, state in self._streams.items()
            if state.smoother.pending_emissions() > 0
        ]
        failures: list[tuple[object, Exception]] = []
        self._m_flushes.inc()
        if due:
            problems = [
                state.smoother.window_problem() for _, state in due
            ]
            try:
                with self._registry.span("repro_stream_flush_solve"):
                    results = call_smoother_many(
                        self._smoother,
                        problems,
                        config=EstimatorConfig(
                            backend=self._backend,
                            compute_covariance=self.compute_covariance,
                            dtype=self._dtype,
                        ),
                    )
            except np.linalg.LinAlgError:
                results = None
            if results is not None:
                for (sid, state), result in zip(due, results):
                    state.smoother.absorb_window_result(result)
            else:
                # The stacked call is all-or-nothing; solve each due
                # stream separately so the healthy ones keep going,
                # then name the broken ones.
                for sid, state in due:
                    try:
                        state.smoother.flush_window()
                    except np.linalg.LinAlgError as exc:
                        failures.append((sid, exc))
        if failures:
            detail = "; ".join(
                f"stream {sid!r}: {exc}" for sid, exc in failures
            )
            raise UnobservableStateError(
                f"{len(failures)} stream(s) have unobservable windows "
                f"— fix their input or drop_stream() them; the other "
                f"streams were solved and their emissions will be "
                f"delivered by the next flush ({detail})"
            )
        out: dict[object, list[Emission]] = {}
        delivered = 0
        for sid, state in self._streams.items():
            emitted = state.smoother.emissions()
            if emitted:
                state.emitted += len(emitted)
                delivered += len(emitted)
                out[sid] = emitted
        if delivered:
            self._m_emissions.inc(delivered)
        return out

    def estimate(self, stream_id) -> tuple[np.ndarray, np.ndarray]:
        """Filtered (online) estimate of a stream's frontier state."""
        return self._state(stream_id).smoother.estimate()

    def pending_emissions(self, stream_id) -> int:
        """How many of a stream's states are due (behind the lag) but
        not yet emitted — what the next :meth:`flush` would deliver."""
        return self._state(stream_id).smoother.pending_emissions()

    def total_pending(self) -> int:
        """Due-but-unemitted states across every open stream (the
        micro-batch size the next :meth:`flush` would solve for)."""
        return sum(
            state.smoother.pending_emissions()
            for state in self._streams.values()
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stream_ids(self) -> list:
        return list(self._streams)

    def stats(self) -> dict:
        """Serving counters (applied/buffered/emitted per stream)."""
        return {
            "streams": len(self._streams),
            "lag": self.lag,
            "per_stream": {
                sid: {
                    "applied": state.applied,
                    "buffered": len(state.buffered),
                    "emitted": state.emitted,
                    "evicted": state.evicted,
                    "window": state.smoother.window_size,
                }
                for sid, state in self._streams.items()
            },
        }

    def _state(self, stream_id) -> _StreamState:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise KeyError(f"no open stream {stream_id!r}") from None
