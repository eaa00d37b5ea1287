"""Per-layer spans recorded from outside the program.

A traced pass installs wrappers as module or class attributes of the
``repro`` package for its duration and restores the originals after.
Each wrapper records one span per call: name, start, end, parent span
id and thread.  Spans stay in memory until the pass ends.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover, so concurrent children on pool threads are not
counted twice.

A span on a pool thread takes as its parent the span that called
``ThreadPoolBackend.map``; kernel cost tallies opened on pool threads
are merged into the pass's tally when each task ends.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.parallel import CostTally, tally_scope

#: name of the span the benchmark opens around each of its own library
#: calls; its self time is the traced time no layer accounts for
ROOT = "call"

_clock = time.perf_counter
_thread_id = threading.get_ident


@dataclasses.dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    thread: int


class Recorder:
    """Spans, call counts and the kernel cost tally of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.tally = CostTally()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list[int]:
        """Open span ids on the calling thread, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def merge_tally(self, tally: CostTally) -> None:
        with self._lock:
            self.tally.merge(tally)

    @contextmanager
    def span(self, name: str):
        stack = self.stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = _clock()
        try:
            yield sid
        finally:
            end = _clock()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, _thread_id())
            )

    def timed(self, name: str, fn, count: str | None = None, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)``
        runs once the span has closed."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                rec.count(count)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        """``fn`` with a call counter and no span (hot kernels)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def pool_map(self, fn):
        """Wrapper for ``ThreadPoolBackend.map``: a ``parallel.pool.map``
        span on the caller and a ``parallel.pool.task`` span per task,
        parented to the map span on whichever thread runs it."""
        rec = self

        @functools.wraps(fn)
        def wrapper(backend, items, body, *args, **kwargs):
            caller = _thread_id()
            traced_body = rec.timed("parallel.pool.task", body)
            start = _clock()
            with rec.span("parallel.pool.map") as sid:

                def task(item):
                    own = rec.stack()
                    own.append(sid)
                    try:
                        if _thread_id() == caller:
                            return traced_body(item)
                        tally = CostTally()
                        with tally_scope(tally):
                            out = traced_body(item)
                        rec.merge_tally(tally)
                        return out
                    finally:
                        own.pop()

                try:
                    return fn(backend, items, task, *args, **kwargs)
                finally:
                    rec.count(
                        "pool.thread_seconds",
                        (_clock() - start) * backend.num_threads,
                    )

        return wrapper


def _bindings(fn):
    """Every ``repro`` module attribute bound to ``fn`` (functions are
    imported by name into the modules that call them)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def _stack_counts(rec: Recorder):
    """Bucket and fill counters for ``stack_whitened``."""

    def after(args, kwargs, white):
        problems = args[0]
        layout = kwargs.get("layout", args[1] if len(args) > 1 else None)
        padded = len(white.steps) * len(problems)
        # Planned buckets receive the unpadded members (padding is
        # virtual); unplanned ones receive physically padded problems.
        real = (
            sum(p.n_states for p in problems) if layout is not None else padded
        )
        rec.count("batch.buckets")
        rec.count("batch.real_states", real)
        rec.count("batch.padded_states", padded)

    return after


def _inner_counts(rec: Recorder):
    """Sequences handed to the stacked solves of ``drive_batched``."""

    def after(args, kwargs, results):
        rec.count("inner.sequences", len(results))

    return after


@contextmanager
def installed(rec: Recorder):
    """Install every layer wrapper and open the pass's cost tally."""
    import repro.batch.smoother as batch_smoother
    import repro.core.oddeven_qr as oddeven_qr
    import repro.nonlinear.batched as nl_batched
    import repro.nonlinear.ipls as nl_ipls
    import repro.stream.server as stream_server
    from repro.batch import BatchSmoother, PlanCache
    from repro.batch.plan import build_plan, workload_key
    from repro.batch.stacking import stack_whitened
    from repro.core.oddeven_qr import oddeven_factorize
    from repro.core.selinv import selinv_oddeven
    from repro.core.solve import oddeven_back_substitute
    from repro.model.nonlinear import NonlinearProblem
    from repro.model.problem import StateSpaceProblem
    from repro.parallel import ThreadPoolBackend
    from repro.stream import FixedLagSmoother, ShardedStreamServer, StreamServer

    undo: list = []

    def patch(owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def everywhere(fn, name, **kw):
        wrapper = rec.timed(name, fn, **kw)
        for mod, attr in _bindings(fn):
            patch(mod, attr, wrapper)

    def method(cls, attr, name, **kw):
        patch(cls, attr, rec.timed(name, cls.__dict__[attr], **kw))

    try:
        # core: the paper's algorithm
        method(StateSpaceProblem, "whiten", "model.whiten")
        everywhere(oddeven_factorize, "core.factorize")
        everywhere(oddeven_back_substitute, "core.solve")
        everywhere(selinv_oddeven, "core.selinv")
        patch(
            oddeven_qr,
            "qr_factor",
            rec.counted("linalg.qr_calls", oddeven_qr.qr_factor),
        )
        # batch: planning, stacking and the smooth_many front end
        everywhere(workload_key, "batch.plan")
        everywhere(build_plan, "batch.plan", count="plan.builds")
        method(PlanCache, "get_or_build", "batch.plan", count="plan.lookups")
        patch(
            batch_smoother,
            "stack_whitened",
            rec.timed("batch.stack", stack_whitened, after=_stack_counts(rec)),
        )
        method(BatchSmoother, "smooth_many", "batch.smooth_many", count="batch.calls")
        # nonlinear: linearization, objective, EKF start, inner solves
        method(NonlinearProblem, "linearize", "model.linearize", count="linearize.calls")
        method(NonlinearProblem, "objective", "nonlinear.objective")
        patch(
            nl_ipls,
            "extended_kalman_filter",
            rec.timed("nonlinear.ekf_init", nl_ipls.extended_kalman_filter),
        )
        patch(
            nl_ipls,
            "drive_batched",
            rec.timed("nonlinear.drive", nl_ipls.drive_batched),
        )
        patch(
            nl_batched,
            "call_smoother_many",
            rec.timed(
                "nonlinear.inner_solve",
                nl_batched.call_smoother_many,
                count="inner.solves",
                after=_inner_counts(rec),
            ),
        )
        # stream: per-stream filtering, sharded serving, window solves
        method(FixedLagSmoother, "evolve_step", "stream.filter")
        method(FixedLagSmoother, "observe_step", "stream.filter")
        method(FixedLagSmoother, "window_problem", "stream.window")
        method(FixedLagSmoother, "absorb_window_result", "stream.absorb", count="stream.absorbs")
        method(ShardedStreamServer, "submit", "stream.submit")
        method(ShardedStreamServer, "poll", "stream.poll")
        method(StreamServer, "flush", "stream.flush")
        patch(
            stream_server,
            "call_smoother_many",
            rec.timed(
                "stream.flush_solve",
                stream_server.call_smoother_many,
                count="stream.flush_solves",
            ),
        )
        # parallel: the worker pool the serving tier fans out on
        patch(ThreadPoolBackend, "map", rec.pool_map(ThreadPoolBackend.__dict__["map"]))
        with tally_scope(rec.tally):
            yield rec
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_and_inclusive(spans: list[Span]) -> tuple[dict, dict]:
    """Seconds per span name: self time and inclusive (summed) time."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    for s in spans:
        covered = _covered(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
        )
        self_s[s.name] += (s.end - s.start) - covered
        incl_s[s.name] += s.end - s.start
    return self_s, incl_s


def batch_phase_seconds(spans: list[Span]) -> float:
    """Inclusive seconds of the four phases the program's
    ``repro_batch_phase_seconds`` export also times (stack, factorize,
    solve, selinv), counting only calls made by ``BatchSmoother``."""
    batch_ids = {s.sid for s in spans if s.name == "batch.smooth_many"}
    phases = {"batch.stack", "core.factorize", "core.solve", "core.selinv"}
    return sum(
        s.end - s.start
        for s in spans
        if s.name in phases and s.parent in batch_ids
    )


def write(spans: list[Span], path) -> None:
    """Write spans as JSON lines (one object per span)."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
