"""Execution backends: the TBB stand-in.

The paper implements its algorithms over TBB's ``parallel_for`` and
``parallel_scan`` and also compiles a *sequential* version of each
parallel algorithm in which those calls are replaced by plain C loops
(§5.1).  We mirror that structure:

``SerialBackend``
    Plain Python loops — the analogue of the paper's sequential builds
    (used for correctness tests and real single-core wall-clock runs).

``ThreadPoolBackend``
    Real shared-memory threads (``concurrent.futures``).  NumPy/LAPACK
    kernels release the GIL, so on a multicore host this scales for
    large block dimensions; on the single-core CI host it is exercised
    for correctness only.  The odd-even engine does not fan out over
    it: each of its stages runs as stacked kernel calls on the
    caller's thread (see :mod:`repro.core.stacked`).

``RecordingBackend``
    Runs the computation numerically *once* while recording a
    :class:`~repro.parallel.task_graph.TaskGraph` with per-task
    flop/byte costs; the discrete-event scheduler then replays the
    graph on a modeled server with any number of cores.  This is the
    substitution for the paper's 36-64 core servers (see DESIGN.md §2).
    Work that ran as stacked calls reports its per-item costs through
    :meth:`Backend.record_costs`, so the graph keeps one task per block
    of items either way.

All backends share the blocking semantics of TBB: a ``parallel_for``
over ``n`` items with block size ``b`` creates ``ceil(n / b)`` tasks of
``b`` consecutive iterations each (paper §5.1 uses ``b = 10`` unless
noted).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from .. import obs
from .tally import CostTally, tally_scope
from .task_graph import TaskGraph, TaskRecord

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadPoolBackend",
    "RecordingBackend",
    "blocked_ranges",
    "worker_pool",
]

DEFAULT_BLOCK_SIZE = 10


def blocked_ranges(n_items: int, block_size: int) -> list[range]:
    """Split ``range(n_items)`` into TBB-style contiguous blocks."""
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    return [
        range(lo, min(lo + block_size, n_items))
        for lo in range(0, n_items, block_size)
    ]


class Backend:
    """Abstract execution backend.

    Subclasses implement :meth:`map`; the convenience wrappers
    :meth:`parallel_for` and :meth:`serial_for` are shared.
    """

    name = "abstract"
    #: Whether ``map`` may run bodies concurrently (documentation only;
    #: correctness never depends on it).
    is_parallel = False

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size

    def map(
        self,
        items: Sequence[Any],
        body: Callable[[Any], Any],
        *,
        phase: str = "",
        block_size: int | None = None,
    ) -> list[Any]:
        """Apply ``body`` to every item; order of results matches items."""
        raise NotImplementedError

    def record_costs(
        self,
        items: Sequence[Any],
        cost: Callable[[Any], list[tuple[float, float]]],
        *,
        phase: str = "",
    ) -> None:
        """Account for a ``parallel_for`` the caller already ran stacked.

        ``cost(item)`` lists the ``(flops, bytes)`` of every kernel call
        that item would make on its own, in call order.  Only the
        recording backend keeps them; executing backends ignore the
        call (``cost`` is never evaluated).
        """

    def parallel_for(
        self,
        n_items: int,
        body: Callable[[int], None],
        *,
        phase: str = "",
        block_size: int | None = None,
    ) -> None:
        """TBB ``parallel_for`` over ``range(n_items)``."""
        self.map(range(n_items), body, phase=phase, block_size=block_size)

    def serial_for(
        self, n_items: int, body: Callable[[int], None], *, phase: str = ""
    ) -> None:
        """A dependency chain of ``n_items`` steps (sequential sweeps)."""
        for i in range(n_items):
            body(i)

    def close(self) -> None:  # pragma: no cover - overridden where needed
        """Release any pooled resources (thread pools)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SerialBackend(Backend):
    """Plain loops: the paper's compiled-sequential variants."""

    name = "serial"
    is_parallel = False

    def map(self, items, body, *, phase="", block_size=None):
        return [body(item) for item in items]


class ThreadPoolBackend(Backend):
    """Real threads over a shared pool; LAPACK kernels release the GIL.

    The worker pool is the serving tier's execution substrate (shard
    flushes fan out through it), so it reports utilization through
    :mod:`repro.obs`: dispatched vs inline map calls, task counts, and
    busy-seconds (summed per-block execution time) against
    wall-seconds — ``busy / (wall * num_threads)`` is the pool's
    utilization over any scrape interval.  Instruments bind to the
    process registry at construction.
    """

    name = "threads"
    is_parallel = True

    def __init__(
        self, num_threads: int, block_size: int = DEFAULT_BLOCK_SIZE
    ):
        super().__init__(block_size)
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = num_threads
        self._pool = ThreadPoolExecutor(max_workers=num_threads)
        registry = obs.get_registry()
        registry.gauge("repro_backend_workers", backend=self.name).set(
            num_threads
        )
        self._m_dispatched = registry.counter(
            "repro_backend_map_calls_total",
            backend=self.name,
            mode="pooled",
        )
        self._m_inline = registry.counter(
            "repro_backend_map_calls_total",
            backend=self.name,
            mode="inline",
        )
        self._m_tasks = registry.counter(
            "repro_backend_tasks_total", backend=self.name
        )
        self._m_busy = registry.counter(
            "repro_backend_busy_seconds_total", backend=self.name
        )
        self._m_wall = registry.counter(
            "repro_backend_wall_seconds_total", backend=self.name
        )

    def map(self, items, body, *, phase="", block_size=None):
        items = list(items)
        bs = block_size or self.block_size
        if len(items) <= bs or self.num_threads == 1:
            self._m_inline.inc()
            return [body(item) for item in items]
        blocks = blocked_ranges(len(items), bs)

        def run_block(block: range) -> list[Any]:
            t0 = time.perf_counter()
            out = [body(items[i]) for i in block]
            self._m_busy.inc(time.perf_counter() - t0)
            return out

        self._m_dispatched.inc()
        self._m_tasks.inc(len(blocks))
        t_wall = time.perf_counter()
        results: list[Any] = [None] * len(items)
        for block, block_result in zip(
            blocks, self._pool.map(run_block, blocks)
        ):
            for i, value in zip(block, block_result):
                results[i] = value
        self._m_wall.inc(time.perf_counter() - t_wall)
        return results

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def worker_pool(
    num_threads: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> ThreadPoolBackend:
    """A host-sized :class:`ThreadPoolBackend` for serving layers.

    ``num_threads=None`` sizes the pool to the visible CPU count —
    the configuration :class:`repro.stream.StreamServer` hands its
    stacked window solves.  The caller owns the pool: close it (or use
    it as a context manager) when the server shuts down.
    """
    if num_threads is None:
        num_threads = os.cpu_count() or 1
    return ThreadPoolBackend(num_threads, block_size)


class RecordingBackend(Backend):
    """Runs serially while recording a schedulable task graph.

    Every ``map``/``parallel_for`` appends one ``parallel_for`` phase
    whose tasks carry the flop/byte costs measured (via the kernel
    tally) while executing each block of iterations.  ``serial_for``
    appends a ``serial`` phase with one task per step, which the
    scheduler will refuse to spread over cores.
    """

    name = "recording"
    is_parallel = False

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        super().__init__(block_size)
        self.graph = TaskGraph()

    def reset(self) -> TaskGraph:
        """Start a fresh graph; return the previous one."""
        old = self.graph
        self.graph = TaskGraph()
        return old

    def map(self, items, body, *, phase="", block_size=None):
        items = list(items)
        bs = block_size or self.block_size
        record = self.graph.new_phase(phase or "parallel_for")
        results: list[Any] = []
        for block in blocked_ranges(len(items), bs):
            tally = CostTally()
            with tally_scope(tally):
                for i in block:
                    results.append(body(items[i]))
            record.tasks.append(
                TaskRecord(
                    flops=tally.flops,
                    bytes_moved=tally.bytes_moved,
                    kernel_calls=tally.kernel_calls,
                    items=len(block),
                )
            )
        return results

    def record_costs(self, items, cost, *, phase=""):
        items = list(items)
        record = self.graph.new_phase(phase or "parallel_for")
        for block in blocked_ranges(len(items), self.block_size):
            tally = CostTally()
            for i in block:
                for flops, bytes_moved in cost(items[i]):
                    tally.add(flops, bytes_moved)
            record.tasks.append(
                TaskRecord(
                    flops=tally.flops,
                    bytes_moved=tally.bytes_moved,
                    kernel_calls=tally.kernel_calls,
                    items=len(block),
                )
            )

    def serial_for(self, n_items, body, *, phase=""):
        record = self.graph.new_phase(phase or "serial_for", kind="serial")
        for i in range(n_items):
            tally = CostTally()
            with tally_scope(tally):
                body(i)
            record.tasks.append(
                TaskRecord(
                    flops=tally.flops,
                    bytes_moved=tally.bytes_moved,
                    kernel_calls=tally.kernel_calls,
                    items=1,
                )
            )
