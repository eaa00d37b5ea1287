"""Core instruments: counters, gauges, histograms, spans, the registry.

Every instrument is cheap enough for the serving hot path (an
``observe`` is one lock acquisition and a handful of float ops — no
allocation beyond the bounded reservoir) and thread-safe, because the
paths being measured — shard flushes fanned out over a worker pool,
concurrent plan replays — are exactly the concurrent ones.

Design points:

* **Bounded reservoirs.**  :class:`Histogram` keeps a fixed-size ring
  of the most recent ``window`` observations plus exact running
  ``count``/``sum``/``min``/``max``.  Quantiles (p50/p90/p99) are
  computed over the retained window — recent-window quantiles are what
  an SLO controller wants, and the footprint is bounded no matter how
  long the server lives (the fix for the unbounded
  ``ShardedStreamServer._latencies`` list).
* **Injectable clock.**  The registry owns the clock used by
  :meth:`MetricsRegistry.span`, so deadline/duration behavior is
  testable without sleeping — the same discipline the serving tier's
  fake-clock tests already follow.
* **Swap-out, not if-statements.**  Disabling metrics is swapping the
  process registry for a :class:`NullRegistry` whose instruments are
  shared no-ops.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "get_registry",
    "set_registry",
    "span",
    "use_registry",
]

#: default bounded-reservoir size for histograms
DEFAULT_WINDOW = 2048

#: quantiles every histogram snapshot (and the Prometheus summary
#: export) reports
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)


class Counter:
    """A monotonically increasing float counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that goes up and down (pool sizes, current knobs)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming distribution with a bounded recent-sample reservoir.

    Running ``count``/``sum``/``min``/``max`` are exact over every
    observation ever made; quantiles are computed over the last
    ``window`` observations (a ring buffer), so memory is bounded for
    arbitrarily long-lived processes and the reported p99 tracks
    *recent* behavior — the quantity an SLO controller must react to.
    """

    __slots__ = (
        "window",
        "_lock",
        "_ring",
        "_next",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._lock = threading.Lock()
        self._ring: list[float] = []
        self._next = 0
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            if self._count == 0:
                self._min = self._max = v
            else:
                if v < self._min:
                    self._min = v
                if v > self._max:
                    self._max = v
            self._count += 1
            self._sum += v
            if len(self._ring) < self.window:
                self._ring.append(v)
            else:
                self._ring[self._next] = v
                self._next = (self._next + 1) % self.window

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def samples(self) -> list[float]:
        """Copy of the retained reservoir (unordered)."""
        with self._lock:
            return list(self._ring)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of the retained window.

        Returns ``0.0`` for an empty histogram — the snapshot schema is
        stable: always a float, never ``None``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if not self._ring:
                return 0.0
            data = np.asarray(self._ring)
        return float(np.percentile(data, q * 100.0))

    def snapshot(self) -> dict:
        """Stable-schema summary: every field is always the same type,
        with zeros (never ``None``) when no observation was made."""
        with self._lock:
            data = np.asarray(self._ring) if self._ring else None
            out = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "window": self.window,
                "retained": len(self._ring),
            }
        for q in SNAPSHOT_QUANTILES:
            key = f"p{int(q * 100)}"
            out[key] = (
                float(np.percentile(data, q * 100.0))
                if data is not None
                else 0.0
            )
        return out


class Span:
    """Times a ``with`` block into a histogram via the registry clock.

    Usage::

        with registry.span("factorize"):
            ...  # recorded into histogram "factorize_seconds"

    Re-entrant only by re-use in sequence (one timing per ``with``);
    nesting uses separate spans.  The clock is the registry's, so
    fake-clock tests never sleep.
    """

    __slots__ = ("_histogram", "_clock", "_t0", "elapsed")

    def __init__(self, histogram: Histogram, clock: Callable[[], float]):
        self._histogram = histogram
        self._clock = clock
        self._t0 = 0.0
        #: seconds recorded by the most recent completed block
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        self._t0 = self._clock()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = self._clock() - self._t0
        self._histogram.observe(self.elapsed)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Process-wide (or injected) home of every instrument.

    ``counter``/``gauge``/``histogram`` get-or-create by
    ``(name, labels)``; reusing a name with a different instrument kind
    raises, so dashboards never see a series change type.  The
    exporters (:func:`~repro.obs.export.to_json`,
    :func:`~repro.obs.export.to_prometheus`) iterate
    :meth:`collect`.

    Parameters
    ----------
    clock:
        Seconds callable used by :meth:`span`; defaults to
        ``time.perf_counter``.  Injectable so span tests never sleep.
    histogram_window:
        Default reservoir size for histograms created without an
        explicit ``window``.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        histogram_window: int = DEFAULT_WINDOW,
    ):
        self.clock = clock if clock is not None else time.perf_counter
        self.histogram_window = int(histogram_window)
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}
        self._kinds: dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: dict, factory):
        key = (name, _label_key(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{existing_kind}, cannot re-register as a {kind}"
                )
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = factory()
                self._metrics[key] = instrument
                self._kinds[name] = kind
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self, name: str, *, window: int | None = None, **labels
    ) -> Histogram:
        size = window if window is not None else self.histogram_window
        return self._get(
            "histogram", name, labels, lambda: Histogram(size)
        )

    def span(self, name: str, **labels) -> Span:
        """A timer recording into histogram ``{name}_seconds``."""
        return Span(
            self.histogram(f"{name}_seconds", **labels), self.clock
        )

    def collect(self) -> list[tuple[str, str, dict, object]]:
        """``(kind, name, labels, instrument)`` for every metric, in
        name order (stable export output)."""
        with self._lock:
            items = list(self._metrics.items())
            kinds = dict(self._kinds)
        out = [
            (kinds[name], name, dict(label_items), instrument)
            for (name, label_items), instrument in items
        ]
        out.sort(key=lambda row: (row[1], sorted(row[2].items())))
        return out

    def snapshot(self) -> dict:
        """JSON-ready view: see :func:`repro.obs.export.to_json`."""
        from .export import to_json

        return to_json(self)


class _NullInstrument:
    """One object that absorbs every instrument call as a no-op."""

    __slots__ = ()
    elapsed = 0.0
    value = 0.0
    count = 0
    sum = 0.0
    window = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def samples(self) -> list:
        return []

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments do nothing: metrics switched off.

    Instrumented code is identical either way — swap this in with
    :func:`set_registry`/:func:`use_registry` to measure or remove
    instrumentation overhead.
    """

    enabled = False

    def counter(self, name: str, **labels):
        return _NULL

    def gauge(self, name: str, **labels):
        return _NULL

    def histogram(self, name: str, *, window=None, **labels):
        return _NULL

    def span(self, name: str, **labels):
        return _NULL

    def collect(self) -> list:
        return []


_registry: MetricsRegistry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The current process-wide registry (instrumented code's default)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _registry
    with _registry_lock:
        previous = _registry
        _registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry` (tests, benches): restores on exit."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def span(name: str, **labels):
    """``with obs.span("factorize"):`` on the current registry."""
    return get_registry().span(name, **labels)
