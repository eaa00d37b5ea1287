"""repro.obs — unified metrics, tracing, and export.

The serving stack grown around the paper's parallel-in-time smoother
(Gargir & Toledo, IPDPS 2025) measured itself through ad-hoc,
mutually incompatible channels: per-call diagnostics dicts on the
batch smoother, hit/miss integers on the plan cache, an unbounded
latency list on the sharded server.  This package is the one
observability layer they all report through:

* :class:`MetricsRegistry` — process-wide (and injectable) home of
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments.
  Histograms are backed by **bounded** recent-window reservoirs, so
  p50/p90/p99 come without unbounded lists (the fix for the serving
  tier's latency-list leak) and track recent behavior — what an SLO
  controller needs.
* **Spans** — ``with obs.span("factorize"): ...`` times a block into a
  histogram using the registry's injectable clock (tests never sleep).
* **Exporters** — :func:`to_json` for ``results/*.json`` bench
  artifacts, :func:`to_prometheus` for scrape endpoints, and
  :func:`parse_prometheus` so smoke tests validate the exposition
  format without a client-library dependency.
* :class:`NullRegistry` — the off switch: swap it in via
  :func:`set_registry`/:func:`use_registry` and every instrument is a
  shared no-op.

The existing surfaces (``BatchSmoother.last_diagnostics``,
``PlanCache.stats()``, ``ShardedStreamServer.latency_stats()``) remain
as thin views over these instruments; the SLO-driven
:class:`~repro.stream.adaptive.AdaptiveBatchController` closes the
loop from the observed p99 back to the serving configuration.
"""

from .export import parse_prometheus, to_json, to_prometheus
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
    get_registry,
    set_registry,
    span,
    use_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "get_registry",
    "parse_prometheus",
    "set_registry",
    "span",
    "to_json",
    "to_prometheus",
    "use_registry",
]
