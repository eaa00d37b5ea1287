"""Streaming fixed-lag smoothing: online serving of unbounded streams.

The paper's algorithms smooth fixed-length sequences; its own API
layer (§5.1: UltimateKalman, Toledo arXiv:2207.13526) is incremental.
This subsystem turns the reproduction into an *online* system on that
foundation:

:class:`~repro.stream.fixed_lag.FixedLagSmoother`
    One stream: a sliding window of the last ``lag`` states over the
    carried-triangular-row machinery, emitting finalized estimates as
    states leave the window and rolling history into a compact summary
    prior block (``O(lag)`` per step — see the module docstring for
    the lag-vs-accuracy contract).

:class:`~repro.stream.server.StreamServer`
    Many concurrent streams: per-stream reorder buffers for
    out-of-order and missing-observation arrivals (bounded via
    ``max_buffered``/``overflow`` backpressure), and micro-batched
    window solves through the stacked kernels of
    :class:`~repro.batch.BatchSmoother`.

:class:`~repro.stream.async_server.ShardedStreamServer` /
:class:`~repro.stream.async_server.AsyncStreamServer`
    The serving front-end: streams consistently hashed over
    independent server shards, adaptive micro-batching (flush on a
    ``max_batch`` size trigger or a ``max_delay`` deadline), shard
    flushes fanned out on a worker pool, per-emission latency
    recording, and an asyncio wrapper (the repository benchmark's
    ``serve-open`` workload drives it).
"""

from .adaptive import AdaptiveBatchController
from .async_server import AsyncStreamServer, ShardedStreamServer, shard_of
from .fixed_lag import Emission, FixedLagSmoother
from .server import StreamServer, StreamStep

__all__ = [
    "AdaptiveBatchController",
    "AsyncStreamServer",
    "Emission",
    "FixedLagSmoother",
    "ShardedStreamServer",
    "StreamServer",
    "StreamStep",
    "shard_of",
]
