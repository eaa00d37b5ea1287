"""The four benchmark workloads.

Each workload makes its inputs from the seed, sets up (construction,
first call, plan-cache fill, pool start) several times, runs its timed
loop, and checks outputs outside the timed region.  One generator
thread drives the program; the only other threads are the program's
own ``worker_pool()``.

* ``long-seq`` - the paper's algorithm as published: ``odd-even`` with
  covariances on one n=6 sequence, the only scalar-block path through
  ``core.oddeven_qr``/``core.solve``/``core.selinv``.
* ``batch-mixed`` - offline ``smooth_many`` over fleets of mixed
  lengths and state dims, where bucketing, plan builds and stacking are
  paid on nearly every call.
* ``ipls-fleet`` - the sigma-point IPLS ``smooth_many`` of 16-problem
  nonlinear fleets, the only user of ``model.nonlinear`` and
  ``nonlinear.batched``.
* ``serve-open`` - live traffic: an open-loop arrival schedule into a
  ``ShardedStreamServer`` with a 50 ms SLO, the only user of
  ``stream``, ``kalman.ultimate`` and the worker pool.

The three closed loops issue each call when the previous one returns,
so a call's scheduled send time is the previous call's return.

The shared host the benchmark runs on changes speed by up to 1.7x over
seconds to minutes, so every duration of work is reported at the
nominal host speed: it is multiplied by ``REF_NOMINAL_S`` over the time
of the reference passes measured around it.  Set-ups and closed-loop
calls are scaled directly; ``serve-open`` is replayed on a clock that
advances at the scaled speed (``_HostClock``).  The wall-clock figures
are kept in the run record.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import obs
from repro.api import ServingConfig
from repro.parallel import worker_pool
from repro.stream import ShardedStreamServer, StreamStep

from . import spans
from .report import REF_NOMINAL_S, reference_pass, reference_s

#: absolute agreement required of every checked output
TOL = 1e-8
#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 5
#: batch-mixed needs this many calls so ten or more lie beyond p90
MIN_BATCH_CALLS = 100
#: batch-mixed fleets drawn before the timed loop, far more than a run
#: makes, so the loop only looks them up
BATCH_FLEETS = 4096

# serve-open traffic: the offered rate sits below the program's knee on
# a 2-vCPU Xeon
SERVE_RATE = 200.0
SERVE_STREAMS = 128
SERVE_LAG = 4
SERVE_DIM = 3
SERVE_SLO = 0.05
SERVE_OUT_OF_ORDER = 0.02
SERVE_STREAM_STEPS = (16, 48)
SERVE_CHECKED = 16
#: a run replays this many times ``--seconds`` of schedule: the generator
#: works about a quarter of schedule time on the nominal host, so the
#: replay takes about ``--seconds`` there
SERVE_SPAN = 4
#: real seconds between reference samples of a ``serve-open`` replay
REF_EVERY_S = 0.25
#: a closed-loop call is scaled by the mean reference pass of the samples
#: taken from this many seconds before it starts to as long after it ends
REF_WINDOW_S = 1.0
#: after each closed-loop call the reference kernel runs for this share
#: of the call's time, and at least ``REF_PASSES`` passes: a long call
#: averages over the host's short swings, so its reference must too
REF_SHARE = 0.05
REF_PASSES = 3
#: ipls-fleet smooths this many seeded fleets in turn, and a run ends
#: only after whole rounds, so every run averages the same fleets
IPLS_FLEETS = 3

_clock = time.perf_counter


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    metrics: dict
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)


def _q(values, q: float) -> float:
    """The ``q``-th percentile over every sample of the run."""
    if len(values) == 0:
        # serve-open emits nothing until a stream has lag + 1 steps,
        # about 3 s into its schedule
        raise ValueError("no samples for a percentile: run for more --seconds")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _scale(ref: float) -> float:
    """Factor that brings a duration timed while a reference pass took
    ``ref`` seconds to the nominal host speed."""
    return REF_NOMINAL_S / ref


def _setup(build, teardown=None) -> tuple[float, float, object]:
    """Median seconds of ``SETUP_REPS`` cold set-ups at the nominal host
    speed, the same median in wall-clock seconds, and the last set-up's
    state.

    The process-wide plan cache is emptied before each repetition so
    every one pays the plan-cache fill.
    """
    scaled, wall, state = [], [], None
    ref = reference_s()
    for _ in range(SETUP_REPS):
        if state is not None and teardown is not None:
            teardown(state)
        repro.default_plan_cache().clear()
        t0 = _clock()
        state = build()
        wall.append(_clock() - t0)
        after = reference_s()
        scaled.append(wall[-1] * _scale((ref + after) / 2))
        ref = after
    return statistics.median(scaled), statistics.median(wall), state


def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _read(result) -> tuple:
    """What a caller takes from a result: its means and covariances as
    arrays."""
    covs = result.covariances
    return np.stack(result.means), None if covs is None else np.stack(covs)


def _matches(read, reference) -> bool:
    """Read means and covariances agree with ``reference`` to ``TOL``."""
    means, covs = read
    if _max_err(means, np.stack(reference.means)) > TOL:
        return False
    if covs is None or reference.covariances is None:
        return covs is None and reference.covariances is None
    return _max_err(covs, np.stack(reference.covariances)) <= TOL


# ---------------------------------------------------------------------------
# closed loops
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One library call of a closed loop."""

    sched: float
    start: float
    end: float
    out: object
    states: int
    seqs: int
    raised: bool
    #: ``_scale`` of the reference samples around the call
    scale: float = 1.0


def _closed_loop(call, item_of, keep, seconds, min_calls=1, rounds=1):
    """Issue calls back to back for ``seconds`` (and ``min_calls``), and
    stop after a multiple of ``rounds`` calls.

    ``item_of(i)`` looks up call ``i``'s input and the ``(states,
    sequences)`` it delivers, made before the loop.
    ``keep(i, item, out)`` reads the reply as a caller would (``_read``)
    and keeps only what the output checks need, so memory does not grow
    with the number of calls.  Between a reply and the next send the
    loop does little else, so the gap times the caller reading a reply.
    The reference kernel is sampled after each reply, outside both the
    call and the gap; each call and the gap before it are scaled by the
    mean pass of the samples within ``REF_WINDOW_S`` of the call.  An
    exception is recorded against its call and the loop goes on.
    """

    def sample(at_least):
        spent, passes = 0.0, 0
        while passes < REF_PASSES or spent < at_least:
            spent += reference_pass()
            passes += 1
        ref_at.append(_clock())
        return spent, passes

    calls: list[Call] = []
    ref_at: list[float] = []
    refs = [sample(0.0)]
    begin = sched = ref_at[0]
    i = 0
    while True:
        item, states, seqs = item_of(i)
        start = _clock()
        try:
            out, raised = call(item), False
        except Exception:
            traceback.print_exc()
            out, raised = None, True
        end = _clock()
        refs.append(sample(REF_SHARE * (end - start)))
        kept = None if raised else keep(i, item, out)
        calls.append(Call(sched, start, end, kept, states, seqs, raised))
        sched = ref_at[-1]
        i += 1
        if end - begin >= seconds and i >= min_calls and i % rounds == 0:
            break
    ref_at = np.asarray(ref_at)
    spent = np.cumsum([0.0] + [r[0] for r in refs])
    passes = np.cumsum([0] + [r[1] for r in refs])
    for i, c in enumerate(calls):
        lo, hi = np.searchsorted(ref_at, [c.sched - REF_WINDOW_S, c.end + REF_WINDOW_S])
        # at least samples i and i + 1, on either side of the call
        lo, hi = min(lo, i), max(hi, i + 2)
        level = (spent[hi] - spent[lo]) / (passes[hi] - passes[lo])
        c.scale = _scale(level)
    return calls


def _checked(i: int) -> bool:
    """Calls whose whole output is kept for checking: the first two,
    then every eighth."""
    return i == 1 or i % 8 == 0


def _closed_metrics(calls: list[Call]) -> tuple[dict, dict]:
    """Metrics every closed loop reports the same way, at the nominal
    host speed, and the run record's wall-clock figures.

    Every state of a call is due at the call's scheduled send time and
    delivered when it returns, so emission latency is weighted by
    states; the generator is late by the gap between a reply and the
    next send.  The run's time is the sum of its gaps and calls, so the
    reference samples are not in it.
    """
    states = sum(c.states for c in calls)
    seqs = sum(c.seqs for c in calls)
    scale = np.array([c.scale for c in calls])
    took = np.array([c.end - c.start for c in calls])
    busy = np.array([c.end - c.sched for c in calls])
    late = np.array([c.start - c.sched for c in calls])
    wall = float(np.sum(busy * scale))
    emit = np.repeat(busy * scale, [c.states for c in calls])
    metrics = {
        "states_per_s": states / wall,
        "steps_per_s": states / wall,
        "seq_per_s": seqs / wall,
        "problems_per_s": seqs / wall,
        "call_p50_ms": _q(took * scale, 50) * 1e3,
        "call_p90_ms": _q(took * scale, 90) * 1e3,
        "emit_p50_ms": _q(emit, 50) * 1e3,
        "emit_p99_ms": _q(emit, 99) * 1e3,
        "converged_frac": 1.0,
    }
    notes = {
        "calls": len(calls),
        "gen_late_p99_ms": _q(late * scale, 99) * 1e3,
        "host_scale": [float(np.min(scale)), float(np.median(scale)), float(np.max(scale))],
        "wall_clock": {
            "states_per_s": states / float(np.sum(busy)),
            "seq_per_s": seqs / float(np.sum(busy)),
            "call_p50_ms": _q(took, 50) * 1e3,
        },
    }
    return metrics, notes


def _traced_calls(call, items, rec: spans.Recorder | None) -> float:
    """Run ``call`` over ``items``; returns seconds spent inside calls.

    With a recorder each call is a root span, so the calls' self time
    is the traced time no layer accounts for.
    """
    busy = 0.0
    for item in items:
        t0 = _clock()
        if rec is None:
            call(item)
        else:
            with rec.span(spans.ROOT):
                call(item)
        busy += _clock() - t0
    return busy


# ---------------------------------------------------------------------------
# long-seq
# ---------------------------------------------------------------------------


class _Workload:
    def trace_build(self):
        """Set-up before each pass of a traced run."""
        return self.build()

    def close(self, _state=None) -> None:
        """Stop what ``build`` started (the worker pool, where used)."""


class LongSeq(_Workload):
    name = "long-seq"
    op = "state"
    trace_calls = 2

    def __init__(self, seed: int, scale: float = 1.0):
        k = max(16, int(4000 * scale))
        self.problem = repro.random_orthonormal_problem(n=6, k=k, seed=seed)
        self.smoother = None

    def build(self):
        self.smoother = repro.make_smoother("odd-even")
        self.smoother.smooth(self.problem)
        return self.smoother

    def call(self, _item):
        return self.smoother.smooth(self.problem)

    def run(self, seconds: float) -> Outcome:
        setup_s, setup_wall, _ = _setup(self.build)
        item = (None, self.problem.n_states, 1)
        calls = _closed_loop(self.call, lambda i: item, self.keep, seconds)
        metrics, notes = _closed_metrics(calls)
        metrics["setup_s"] = setup_s
        notes["wall_clock"]["setup_s"] = setup_wall
        reference = repro.make_smoother("paige-saunders").smooth(self.problem)
        failed = sum(
            c.states
            for c in calls
            if c.raised or (c.out is not None and not _matches(c.out, reference))
        )
        return Outcome(metrics, sum(c.states for c in calls), failed, notes)

    @staticmethod
    def keep(i: int, _item, out):
        read = _read(out)
        return read if _checked(i) else None

    def trace_pass(self, rec):
        busy = _traced_calls(self.call, range(self.trace_calls), rec)
        return busy, self.trace_calls * self.problem.n_states, {}


# ---------------------------------------------------------------------------
# batch-mixed
# ---------------------------------------------------------------------------


class BatchMixed(_Workload):
    name = "batch-mixed"
    op = "sequence"
    fleet = 6
    pool_size = 96
    trace_calls = 40

    def __init__(self, seed: int, scale: float = 1.0):
        rng = np.random.default_rng([seed, 2])
        # Lengths and state dims are stratified over the pool so every
        # seed offers the same mix; the seed decides values, order,
        # missing observations and the fleets drawn from the pool.
        grid = np.round(np.linspace(8, max(8, int(128 * scale)), self.pool_size))
        lengths = rng.permutation(grid.astype(int))
        dims = rng.permutation(np.resize([2, 4, 6], self.pool_size))
        self.pool = [
            repro.random_problem(
                k=int(n) - 1,
                seed=int(rng.integers(2**31)),
                dims=int(d),
                obs_prob=0.85,
                random_cov=True,
            )
            for n, d in zip(lengths, dims)
        ]
        # Set-up's first call: a short and a long problem of every state
        # dim, the same for every seed, so set-up does the same work on
        # every seed.
        self.warm = [
            repro.random_problem(
                k=int(n) - 1, seed=s, dims=d, obs_prob=0.85, random_cov=True
            )
            for s, (d, n) in enumerate(
                (d, n) for d in (2, 4, 6) for n in np.percentile(grid, [25, 75]).round()
            )
        ]
        self._rng = rng
        self._strata = self._stratify()
        self._fleets: list[tuple] = []
        self._slots: list[int] = []
        self.smoother = None

    def _stratify(self) -> list[list[int]]:
        """Pool indices in ``fleet`` strata: per state dim, its problems
        split by length into equal halves."""
        by_dim: dict[int, list[int]] = {}
        for j, p in enumerate(self.pool):
            by_dim.setdefault(p.state_dims[0], []).append(j)
        per_dim = self.fleet // len(by_dim)
        strata = []
        for d in sorted(by_dim):
            js = sorted(by_dim[d], key=lambda j: self.pool[j].n_states)
            size = len(js) // per_dim
            strata += [js[s * size : (s + 1) * size] for s in range(per_dim)]
        return strata

    def fleet_at(self, i: int) -> tuple[list[int], int, int]:
        """Pool indices of call ``i``, with its states and sequences.

        A fleet takes one problem from each stratum - a short and a long
        one of every state dim - so the work of a call varies little and
        the tail percentiles are not decided by a few unlucky draws.
        Each round permutes every stratum, so every problem is drawn
        equally, and also draws the slot of each of its fleets that the
        output check keeps.  Fleets are drawn in order and kept, so
        drawing ahead changes none of them.
        """
        while len(self._fleets) <= i:
            rounds = [self._rng.permutation(s).tolist() for s in self._strata]
            for f in range(len(rounds[0])):
                idx = [order[f] for order in rounds]
                states = sum(self.pool[j].n_states for j in idx)
                self._fleets.append((idx, states, self.fleet))
                self._slots.append(int(self._rng.integers(self.fleet)))
        return self._fleets[i]

    def build(self):
        self.smoother = repro.make_smoother("batch-odd-even")
        self.smoother.smooth_many(self.warm)
        return self.smoother

    def call(self, idx):
        return self.smoother.smooth_many([self.pool[j] for j in idx])

    def run(self, seconds: float) -> Outcome:
        setup_s, setup_wall, _ = _setup(self.build)
        self.fleet_at(BATCH_FLEETS)
        # Nearly every call builds a plan; running until the plan cache
        # is full keeps peak memory independent of how many calls fit.
        min_calls = max(MIN_BATCH_CALLS, repro.default_plan_cache().maxsize)
        calls = _closed_loop(
            self.call,
            self.fleet_at,
            self.keep,
            seconds,
            min_calls=min_calls,
        )
        metrics, notes = _closed_metrics(calls)
        metrics["setup_s"] = setup_s
        notes["wall_clock"]["setup_s"] = setup_wall
        failed = self.check(calls)
        return Outcome(metrics, sum(c.seqs for c in calls), failed, notes)

    def keep(self, i: int, idx, out):
        """Every slice read; the seeded one of call ``i`` kept for the
        check."""
        read = [_read(r) for r in out]
        slot = self._slots[i]
        return idx[slot], read[slot]

    def check(self, calls) -> int:
        """A seeded slice per call must match per-sequence odd-even."""
        oddeven = repro.make_smoother("odd-even")
        references: dict[int, object] = {}
        failed = 0
        for c in calls:
            if c.raised:
                failed += c.seqs
                continue
            j, result = c.out
            if j not in references:
                references[j] = oddeven.smooth(self.pool[j])
            failed += not _matches(result, references[j])
        return failed

    def trace_pass(self, rec):
        fleets = [self.fleet_at(i)[0] for i in range(self.trace_calls)]
        busy = _traced_calls(self.call, fleets, rec)
        return busy, self.trace_calls * self.fleet, {}


# ---------------------------------------------------------------------------
# ipls-fleet
# ---------------------------------------------------------------------------


class IplsFleet(_Workload):
    name = "ipls-fleet"
    op = "problem"
    trace_calls = 1
    fleet_size = 16

    def __init__(self, seed: int, scale: float = 1.0):
        k = max(4, int(40 * scale))
        rng = np.random.default_rng([seed, 3])
        half = self.fleet_size // 2
        # How many problems of a fleet converge, and so how many outer
        # iterations a call makes, differs from fleet to fleet; a run
        # smooths several fleets so that its rate does not hang on one.
        self.fleets = []
        for _ in range(IPLS_FLEETS):
            seeds = rng.integers(2**31, size=self.fleet_size)
            self.fleets.append(
                [repro.pendulum_problem(k, seed=int(s))[0] for s in seeds[:half]]
                + [
                    repro.bearings_only_tunnel_problem(k, seed=int(s))[0]
                    for s in seeds[half:]
                ]
            )
        self.fleet = self.fleets[0]
        self.checked = int(rng.integers(self.fleet_size))
        # The first call covers one problem of each model, so every
        # layer is entered once without paying a whole fleet per
        # repetition.  They are the same for every seed, so set-up does
        # the same work on every seed.
        self.warm = [
            repro.pendulum_problem(k, seed=0)[0],
            repro.bearings_only_tunnel_problem(k, seed=0)[0],
        ]
        self.smoother = None

    def build(self):
        self.smoother = repro.make_smoother("ipls")
        self.smoother.smooth_many(self.warm)
        return self.smoother

    def call(self, fleet):
        return self.smoother.smooth_many(fleet)

    def run(self, seconds: float) -> Outcome:
        setup_s, setup_wall, _ = _setup(self.build)
        states = sum(p.k + 1 for p in self.fleet)
        calls = _closed_loop(
            self.call,
            lambda i: (self.fleets[i % IPLS_FLEETS], states, self.fleet_size),
            self.keep,
            seconds,
            rounds=IPLS_FLEETS,
        )
        metrics, notes = _closed_metrics(calls)
        metrics["setup_s"] = setup_s
        notes["wall_clock"]["setup_s"] = setup_wall
        attempted = sum(c.seqs for c in calls)
        converged = sum(c.out[0] for c in calls if not c.raised)
        metrics["converged_frac"] = converged / attempted
        return Outcome(metrics, attempted, self.check(calls), notes)

    def keep(self, i: int, _item, out):
        """Every problem read; converged and non-finite objective counts;
        the first call's results in full for the bit-identity check."""
        for r in out:
            _read(r)
        converged = sum(bool(r.diagnostics["converged"]) for r in out)
        nonfinite = sum(not math.isfinite(r.residual_sq) for r in out)
        return converged, nonfinite, out if i == 0 else None

    def check(self, calls) -> int:
        """Objectives are finite; one problem's ``smooth()`` is bit-identical
        to its ``smooth_many`` slice."""
        failed = sum(c.seqs if c.raised else c.out[1] for c in calls)
        if not calls[0].raised:
            alone = self.smoother.smooth(self.fleet[self.checked])
            sliced = calls[0].out[2][self.checked]
            same = all(
                np.array_equal(a, b) for a, b in zip(alone.means, sliced.means)
            ) and all(
                np.array_equal(a, b)
                for a, b in zip(alone.covariances, sliced.covariances)
            )
            failed += not same
        return failed

    def trace_pass(self, rec):
        busy = _traced_calls(self.call, [self.fleet] * self.trace_calls, rec)
        return busy, self.trace_calls * self.fleet_size, {}


# ---------------------------------------------------------------------------
# serve-open
# ---------------------------------------------------------------------------


@dataclass
class Arrival:
    t: float
    stream: int
    seq: int
    first: bool
    last: bool


class _VirtualClock:
    """Clock for replaying a schedule without sleeping."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def wait_until(self, t: float) -> None:
        self.now = max(self.now, t)


class _WallClock:
    def __call__(self) -> float:
        return time.monotonic()

    def wait_until(self, t: float) -> None:
        delay = t - time.monotonic()
        if delay > 0:
            time.sleep(delay)


class _HostClock:
    """Clock for replaying a schedule at the nominal host speed.

    While the generator works - in the server's calls, including their
    fan-out over the worker pool - the clock advances by real time
    times the host scale (``_scale`` of the last reference samples).
    Where a real generator would sleep until its next event, the clock
    jumps there instead; at most every ``REF_EVERY_S`` of real time the
    reference kernel is sampled during such a jump, so sampling costs
    no clock time.  The server reads this clock for its deadlines and
    its SLO controller, so the open loop - lateness, backlog, flush
    composition - plays out as it would on the nominal host.
    """

    def __init__(self):
        self.refs = [reference_s()]
        self._base, self._mark = 0.0, _clock()
        self._sampled = self._mark
        self.scale = _scale(self.refs[-1])
        self.scales = [self.scale]

    def __call__(self) -> float:
        return self._base + (_clock() - self._mark) * self.scale

    def wait_until(self, t: float) -> None:
        now = self()
        if _clock() - self._sampled >= REF_EVERY_S:
            self.refs.append(reference_s())
            self.scale = _scale(statistics.median(self.refs[-3:]))
            self.scales.append(self.scale)
            self._sampled = _clock()
        self._base, self._mark = max(now, t), _clock()


class ServeOpen(_Workload):
    name = "serve-open"
    op = "step"

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.trace_seconds = 8.0 * scale
        rng = np.random.default_rng([seed, 4])
        self.contents = [
            repro.random_problem(
                k=SERVE_STREAM_STEPS[1] - 1,
                seed=int(rng.integers(2**31)),
                dims=SERVE_DIM,
                random_cov=True,
            )
            for _ in range(32)
        ]
        self.streams = max(8, int(SERVE_STREAMS * scale))
        self.pool = self.server = None

    def schedule(self, seconds: float) -> tuple[list, list]:
        """Poisson arrivals at ``SERVE_RATE`` for ``seconds``.

        Arrivals go to stream slots in shuffled rounds; each slot runs
        streams of seeded length back to back; a seeded share of steps
        (never step 0) swaps send order with its successor.  Returns the
        arrivals and, per stream, its ``(content, length)``.  The same
        seed and duration give the same schedule.
        """
        rngs = [np.random.default_rng([self.seed, 4, part]) for part in range(3)]
        n = max(1, int(SERVE_RATE * seconds))
        times = np.cumsum(rngs[0].exponential(1.0 / SERVE_RATE, size=n))
        slot_of = np.concatenate(
            [rngs[1].permutation(self.streams) for _ in range(n // self.streams + 1)]
        )[:n]
        # Stream lengths are drawn from shuffled copies of one grid, so
        # every seed closes streams at the same average rate.
        grid = np.round(np.linspace(*SERVE_STREAM_STEPS, self.streams)).astype(int)
        lengths: list[int] = []
        info: list[tuple[int, int]] = []
        current: dict[int, tuple[int, int]] = {}  # slot -> (stream, next seq)
        positions: dict[int, list[int]] = {}
        arrivals: list[Arrival] = []
        for t, slot in zip(times, slot_of):
            if slot not in current:
                if not lengths:
                    lengths = rngs[2].permutation(grid).tolist()
                length = int(lengths.pop())
                info.append((int(rngs[2].integers(len(self.contents))), length))
                current[slot] = (len(info) - 1, 0)
            stream, seq = current[slot]
            length = info[stream][1]
            positions.setdefault(stream, []).append(len(arrivals))
            arrivals.append(Arrival(float(t), stream, seq, seq == 0, seq == length - 1))
            current[slot] = (stream, seq + 1)
            if seq + 1 == length:
                del current[slot]
        for stream, pos in positions.items():
            coin = np.random.default_rng([self.seed, 4, 3, stream])
            j = 1
            while j + 1 < len(pos):
                if coin.random() < SERVE_OUT_OF_ORDER:
                    a, b = arrivals[pos[j]], arrivals[pos[j + 1]]
                    a.seq, b.seq = b.seq, a.seq
                    j += 2
                else:
                    j += 1
        return arrivals, info

    def stream_problem(self, info, stream: int):
        content, length = info[stream]
        return self.contents[content].subproblem(length - 1)

    def _server(self, clock):
        config = ServingConfig(latency_slo=SERVE_SLO)
        return ShardedStreamServer(SERVE_LAG, config, backend=self.pool, clock=clock)

    def _open(self, server, sid, problem):
        prior = (problem.prior.mean, problem.prior.cov_matrix())
        server.open_stream(sid, problem.state_dims[0], prior=prior)

    def _step(self, problem, seq: int) -> StreamStep:
        step = problem.steps[seq]
        return StreamStep(seq=seq, evolution=step.evolution, observation=step.observation)

    def _warm(self, server) -> None:
        """First calls: a burst of short streams flushed and closed."""
        problem = self.contents[0]
        for w in range(16):
            sid = ("warm", w)
            self._open(server, sid, problem)
            for seq in range(SERVE_LAG + 2):
                server.submit(sid, self._step(problem, seq))
        server.flush_all()
        for w in range(16):
            server.close_stream(("warm", w))
        server.drain()

    def build(self, clock=None):
        self.pool = worker_pool()
        self.server = self._server(clock)
        self._warm(self.server)
        return self.server

    def trace_build(self):
        # A virtual clock, so flush composition, and every count,
        # repeats exactly for a given seed.
        return self.build(_VirtualClock())

    def close(self, _state=None) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def replay(self, server, schedule, info, clock, rec=None) -> dict:
        """Drive ``schedule`` into ``server``; poll at every shard deadline.

        Returns the generator's records: arrival lateness, poll
        durations, per-emission latency, and what was emitted.
        """
        due_at: dict[int, list[float]] = {}
        sent: dict[int, dict[int, float]] = {}
        late, polls, latency, emitted, busy = [], [], [], [], 0.0
        closed, raised, tails = 0, 0, {}
        problems, problems_open = {}, {}

        def timed(fn, *args):
            nonlocal busy
            t0 = _clock()
            try:
                if rec is None:
                    return fn(*args)
                with rec.span(spans.ROOT):
                    return fn(*args)
            finally:
                busy += _clock() - t0

        def poll():
            t0 = clock()
            out = timed(server.poll)
            done = clock()
            polls.append(done - t0)
            for sid, ems in out.items():
                for em in ems:
                    latency.append(done - due_at[sid][em.index])
                    emitted.append((sid, em))

        t0 = clock()
        for a in schedule:
            target = t0 + a.t
            while True:
                deadline = server.next_deadline()
                if deadline is None or deadline > target:
                    break
                clock.wait_until(deadline)
                poll()
            clock.wait_until(target)
            late.append(clock() - target)
            sid = a.stream
            if a.first:
                problems[sid] = problems_open[sid] = self.stream_problem(info, sid)
                sent[sid] = {}
                timed(self._open, server, sid, problems[sid])
            sent[sid][a.seq] = target
            try:
                timed(server.submit, sid, self._step(problems[sid], a.seq))
            except Exception:
                traceback.print_exc()
                raised += 1
            seqs = sent[sid]
            # state i is due once steps 0..i+lag have all arrived
            frontier = len(due_at.setdefault(sid, [])) + SERVE_LAG
            while frontier in seqs and all(s in seqs for s in range(frontier + 1)):
                due_at[sid].append(max(seqs[s] for s in range(frontier + 1)))
                frontier += 1
            if a.last:
                tails[sid] = timed(server.close_stream, sid)
                closed += 1
                del problems_open[sid]
        while server.next_deadline() is not None:
            clock.wait_until(server.next_deadline())
            poll()
        poll()  # hands over what the last closes flushed
        wall = clock() - t0
        for sid in problems_open:
            tails[sid] = timed(server.close_stream, sid)
        return {
            "wall": wall,
            "late": late,
            "polls": polls,
            "latency": latency,
            "emitted": emitted,
            "tails": tails,
            "sent": sent,
            "problems": problems,
            "closed": closed,
            "raised": raised,
            "busy": busy,
            "max_batch": server.max_batch,
        }

    def run(self, seconds: float) -> Outcome:
        schedule, info = self.schedule(seconds * SERVE_SPAN)
        clock = _HostClock()
        setup_s, setup_wall, server = _setup(lambda: self.build(clock), self.close)
        sequences = obs.get_registry().counter("repro_batch_sequences_total")
        before = sequences.value
        try:
            r = self.replay(server, schedule, info, clock)
        finally:
            self.close()
        windows = sequences.value - before
        wall = r["wall"]
        metrics = {
            "setup_s": setup_s,
            "states_per_s": len(r["emitted"]) / wall,
            "steps_per_s": len(schedule) / wall,
            "seq_per_s": windows / wall,
            "problems_per_s": r["closed"] / wall,
            "call_p50_ms": _q(r["polls"], 50) * 1e3,
            "call_p90_ms": _q(r["polls"], 90) * 1e3,
            "emit_p50_ms": _q(r["latency"], 50) * 1e3,
            "emit_p99_ms": _q(r["latency"], 99) * 1e3,
            "converged_frac": 1.0,
        }
        failed = r["raised"] + self.check(r)
        notes = {
            "offered_steps_per_s": SERVE_RATE,
            "slo_ms": SERVE_SLO * 1e3,
            "emit_p99_within_slo": metrics["emit_p99_ms"] <= SERVE_SLO * 1e3,
            "gen_late_p99_ms": _q(r["late"], 99) * 1e3,
            "max_batch_end": r["max_batch"],
            "schedule_s": wall,
            "host_scale": [min(clock.scales), statistics.median(clock.scales), max(clock.scales)],
            "wall_clock": {"setup_s": setup_wall},
        }
        return Outcome(metrics, len(schedule), failed, notes)

    def check(self, r) -> int:
        """Every due state is emitted exactly once; a seeded sample of
        emissions matches odd-even on its lagged prefix problem."""
        failed = 0
        by_stream: dict = {}
        for sid, em in r["emitted"]:
            by_stream.setdefault(sid, []).append(em.index)
        for sid, seqs in r["sent"].items():
            applied = len(seqs)
            due = list(range(max(0, applied - SERVE_LAG)))
            got = sorted(by_stream.get(sid, []))
            tail = sorted(em.index for em in r["tails"].get(sid, []))
            if got != due or tail != list(range(len(due), applied)):
                failed += 1
        oddeven = repro.make_smoother("odd-even")
        pick = np.random.default_rng([self.seed, 5])
        sample = pick.choice(
            len(r["emitted"]), size=min(SERVE_CHECKED, len(r["emitted"])), replace=False
        )
        for j in sample:
            sid, em = r["emitted"][int(j)]
            ref = oddeven.smooth(r["problems"][sid].subproblem(em.frontier))
            if (
                _max_err(em.mean, ref.means[em.index]) > TOL
                or _max_err(em.cov, ref.covariances[em.index]) > TOL
            ):
                failed += 1
        return failed

    def pool_pass(self, rec) -> None:
        """Replay the trace schedule in real time: a generator that falls
        behind finds several shards due at once, and only then do polls
        fan out over the worker pool.  Needs ``build``, not
        ``trace_build``."""
        schedule, info = self.schedule(self.trace_seconds)
        self.replay(self.server, schedule, info, _WallClock(), rec)

    def trace_pass(self, rec):
        """Replay a fixed schedule, as fast as it runs, on the virtual
        clock ``trace_build`` gave the server."""
        schedule, info = self.schedule(self.trace_seconds)
        r = self.replay(self.server, schedule, info, self.server.clock, rec)
        extra = {
            "stream.max_batch_end": float(r["max_batch"]),
            "stream.busy_ratio": r["busy"] / r["wall"],
        }
        return r["busy"], len(schedule), extra


WORKLOADS = {w.name: w for w in (LongSeq, BatchMixed, IplsFleet, ServeOpen)}
