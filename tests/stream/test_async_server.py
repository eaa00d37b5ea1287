"""The sharded serving front-end: deadlines, batching, sharding.

Deadline behavior is tested with an injected fake clock — no test in
this file sleeps.  Correctness is pinned by the fixed-lag contract:
every emission must match the batch smooth of its ``frontier`` prefix
problem.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.api import ServingConfig, make_smoother
from repro.model.generators import random_problem
from repro.parallel.backend import ThreadPoolBackend, worker_pool
from repro.stream import (
    AsyncStreamServer,
    ShardedStreamServer,
    StreamServer,
    StreamStep,
    shard_of,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_streams(n_streams, t_steps, n=3, seed=0):
    return {
        f"stream-{i}": random_problem(
            k=t_steps, seed=seed + i, dims=n, random_cov=True
        )
        for i in range(n_streams)
    }


def open_all(server, problems):
    for sid, p in problems.items():
        server.open_stream(
            sid, p.state_dims[0], prior=(p.prior.mean, p.prior.cov_matrix())
        )


def submit_step(server, sid, problem, t):
    step = problem.steps[t]
    server.submit(
        sid,
        StreamStep(
            seq=t, evolution=step.evolution, observation=step.observation
        ),
    )


class TestShardOf:
    def test_stable_and_in_range(self):
        for shards in (1, 2, 7, 64):
            for sid in ("a", "stream-123", 42, ("tenant", 7)):
                i = shard_of(sid, shards)
                assert 0 <= i < shards
                assert i == shard_of(sid, shards)

    def test_spreads_streams(self):
        counts = [0] * 8
        for i in range(800):
            counts[shard_of(f"stream-{i}", 8)] += 1
        # Consistent hashing over 800 ids should land on every shard.
        assert min(counts) > 0

    def test_routing_matches_open_stream(self):
        server = ShardedStreamServer(lag=2, config=ServingConfig(shards=4))
        problems = make_streams(12, 4)
        for sid, p in problems.items():
            i = server.open_stream(
                sid,
                p.state_dims[0],
                prior=(p.prior.mean, p.prior.cov_matrix()),
            )
            assert i == shard_of(sid, 4)


class TestDeadlineFlush:
    """Satellite: deadline-based flushing under a fake clock."""

    def make(self, **cfg):
        clock = FakeClock()
        config = ServingConfig(
            shards=2, max_batch=None, max_delay=0.010, **cfg
        )
        server = ShardedStreamServer(lag=2, config=config, clock=clock)
        return server, clock

    def test_no_flush_before_deadline(self):
        server, clock = self.make()
        problems = make_streams(4, 8)
        open_all(server, problems)
        for t in range(6):
            for sid, p in problems.items():
                submit_step(server, sid, p, t)
        assert server.next_deadline() == pytest.approx(0.010)
        clock.advance(0.009)
        assert server.poll() == {}  # deadline not reached
        flushes = [s["flushes"] for s in server.stats()["per_shard"]]
        assert flushes == [0, 0]

    def test_flush_at_deadline_delivers_everything_due(self):
        server, clock = self.make()
        problems = make_streams(4, 8)
        open_all(server, problems)
        for t in range(6):
            for sid, p in problems.items():
                submit_step(server, sid, p, t)
        clock.advance(0.010)
        out = server.poll()
        # lag=2, steps 0..5 applied: states 0..3 are due per stream.
        assert set(out) == set(problems)
        assert all(len(ems) == 4 for ems in out.values())
        assert server.next_deadline() is None  # nothing due anymore

    def test_deadline_restarts_on_next_arrival(self):
        server, clock = self.make()
        problems = make_streams(1, 10)
        open_all(server, problems)
        (sid, p) = next(iter(problems.items()))
        for t in range(4):
            submit_step(server, sid, p, t)
        clock.advance(0.010)
        assert len(server.poll()[sid]) == 2
        clock.advance(0.5)  # idle gap: no deadline pending
        assert server.next_deadline() is None
        submit_step(server, sid, p, 4)
        assert server.next_deadline() == pytest.approx(clock.t + 0.010)

    def test_latency_records_match_fake_clock(self):
        server, clock = self.make()
        problems = make_streams(1, 10)
        open_all(server, problems)
        (sid, p) = next(iter(problems.items()))
        for t in range(5):  # states 0..2 become due at t=0
            submit_step(server, sid, p, t)
        clock.advance(0.007)
        submit_step(server, sid, p, 5)  # state 3 becomes due at 0.007
        clock.advance(0.003)  # deadline of the first batch
        server.poll()
        stats = server.latency_stats()
        assert stats["count"] == 4
        assert stats["retained"] == 4
        assert stats["max"] == pytest.approx(0.010)
        assert stats["p50"] == pytest.approx(0.010)
        # The late arrival waited only 3 ms.
        lat = sorted(server._latency_hist.samples())
        assert lat[0] == pytest.approx(0.003)

    def test_latency_stats_schema_is_stable_when_empty(self):
        """Satellite: no ``None``-vs-float mixing across calls — every
        field is numeric before the first emission and after it."""
        server, clock = self.make()
        empty = server.latency_stats()
        assert empty == {
            "count": 0,
            "window": 4096,
            "retained": 0,
            "p50": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
        problems = make_streams(1, 10)
        open_all(server, problems)
        (sid, p) = next(iter(problems.items()))
        for t in range(4):
            submit_step(server, sid, p, t)
        clock.advance(0.010)
        server.poll()
        full = server.latency_stats()
        assert set(full) == set(empty)
        assert all(
            isinstance(v, (int, float)) and v is not None
            for v in full.values()
        )
        assert full["count"] == 2


class TestBatchFlush:
    def test_max_batch_triggers_immediate_flush(self):
        clock = FakeClock()
        config = ServingConfig(shards=1, max_batch=4, max_delay=999.0)
        server = ShardedStreamServer(lag=2, config=config, clock=clock)
        problems = make_streams(2, 8)
        open_all(server, problems)
        # Interleave arrivals; the 4th due state must flush without
        # any clock movement (the deadline is absurdly far away).
        for t in range(6):
            for sid, p in problems.items():
                submit_step(server, sid, p, t)
            if server.stats()["per_shard"][0]["batch_flushes"]:
                break
        stats = server.stats()["per_shard"][0]
        assert stats["batch_flushes"] >= 1
        assert stats["pending"] < 4
        out = server.drain()
        assert sum(len(e) for e in out.values()) >= 4

    def test_flush_all_delivers_the_remainder(self):
        config = ServingConfig(shards=2, max_batch=None, max_delay=999.0)
        server = ShardedStreamServer(
            lag=2, config=config, clock=FakeClock()
        )
        problems = make_streams(3, 8)
        open_all(server, problems)
        for t in range(6):
            for sid, p in problems.items():
                submit_step(server, sid, p, t)
        out = server.flush_all()
        assert sum(len(e) for e in out.values()) == 3 * 4


class TestServingCorrectness:
    def check_contract(self, problems, collected):
        """Every stream emits each of its states once, and every
        emission matches the batch smooth of its frontier prefix."""
        smoother = make_smoother("odd-even")
        for sid, p in problems.items():
            assert len(collected[sid]) == p.n_states
            for em in collected[sid]:
                reference = smoother.smooth(p.subproblem(min(em.frontier, p.k)))
                np.testing.assert_allclose(
                    em.mean,
                    reference.means[em.index],
                    atol=1e-8,
                    rtol=1e-8,
                )

    def drive(self, server, problems):
        collected = {sid: [] for sid in problems}
        open_all(server, problems)
        t_steps = max(p.n_states for p in problems.values())
        for t in range(t_steps):
            for sid, p in problems.items():
                if t < p.n_states:
                    submit_step(server, sid, p, t)
            for sid, ems in server.poll().items():
                collected[sid].extend(ems)
        for sid in problems:
            collected[sid].extend(server.close_stream(sid))
        for sid, ems in server.drain().items():
            collected[sid].extend(ems)
        for sid in collected:
            collected[sid].sort(key=lambda em: em.index)
        return collected

    def test_sharded_emissions_honor_the_prefix_contract(self):
        clock = FakeClock()
        config = ServingConfig(shards=3, max_batch=8, max_delay=0.0)
        server = ShardedStreamServer(lag=3, config=config, clock=clock)
        problems = make_streams(7, 12, seed=100)
        collected = self.drive(server, problems)
        self.check_contract(problems, collected)

    def test_matches_unsharded_stream_server(self):
        problems = make_streams(6, 10, seed=200)
        config = ServingConfig(shards=3, max_batch=None, max_delay=0.0)
        sharded = ShardedStreamServer(
            lag=2, config=config, clock=FakeClock()
        )
        collected = self.drive(sharded, problems)

        plain = StreamServer(lag=2)
        open_all(plain, problems)
        reference = {sid: [] for sid in problems}
        for t in range(max(p.n_states for p in problems.values())):
            for sid, p in problems.items():
                submit_step(plain, sid, p, t)
            for sid, ems in plain.flush().items():
                reference[sid].extend(ems)
        for sid in problems:
            reference[sid].extend(plain.close_stream(sid))

        for sid in problems:
            assert len(collected[sid]) == len(reference[sid])
            for got, want in zip(collected[sid], reference[sid]):
                assert got.index == want.index
                np.testing.assert_allclose(
                    got.mean, want.mean, atol=1e-9, rtol=1e-9
                )
                np.testing.assert_allclose(
                    got.cov, want.cov, atol=1e-9, rtol=1e-9
                )

    def test_worker_pool_fanout_matches_serial(self):
        problems = make_streams(8, 10, seed=300)
        config = ServingConfig(shards=4, max_batch=None, max_delay=0.0)
        serial = self.drive(
            ShardedStreamServer(lag=2, config=config, clock=FakeClock()),
            problems,
        )
        with ThreadPoolBackend(4) as backend:
            threaded = self.drive(
                ShardedStreamServer(
                    lag=2, config=config, backend=backend, clock=FakeClock()
                ),
                problems,
            )
        for sid in problems:
            assert len(serial[sid]) == len(threaded[sid])
            for a, b in zip(serial[sid], threaded[sid]):
                assert a.index == b.index
                np.testing.assert_array_equal(a.mean, b.mean)

    def test_worker_pool_run_exports_the_required_series(self):
        """A serving run on a worker pool, under its own registry,
        exports the plan-cache hits, the batch phases and the
        emission-latency summary in the Prometheus text format."""
        problems = make_streams(24, 6, n=2, seed=500)
        config = ServingConfig(
            shards=3, max_batch=16, max_delay=0.002, latency_slo=0.050
        )
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry), worker_pool(2) as backend:
            server = ShardedStreamServer(
                lag=2, config=config, backend=backend, registry=registry
            )
            collected = self.drive(server, problems)
        for sid, p in problems.items():
            assert len(collected[sid]) == p.n_states
        series = obs.parse_prometheus(obs.to_prometheus(registry))
        hits = sum(s["value"] for s in series["repro_plan_cache_hits_total"])
        assert hits > 0
        phases = {
            s["labels"].get("phase")
            for s in series["repro_batch_phase_seconds"]
        }
        assert {"stack", "factorize", "solve"} <= phases
        p99 = [
            s["value"]
            for s in series["repro_serving_emission_latency_seconds"]
            if s["labels"].get("quantile") == "0.99"
        ]
        assert len(p99) == 1 and p99[0] >= 0.0
        count = series["repro_serving_emission_latency_seconds_count"]
        assert count[0]["value"] > 0

    def test_backpressure_is_forwarded_to_shards(self):
        from repro.errors import ReorderBufferFullError

        config = ServingConfig(shards=1, max_buffered=2)
        server = ShardedStreamServer(
            lag=2, config=config, clock=FakeClock()
        )
        problems = make_streams(1, 10)
        (sid, p) = next(iter(problems.items()))
        open_all(server, problems)
        submit_step(server, sid, p, 0)
        submit_step(server, sid, p, 2)  # gap at 1: buffers
        submit_step(server, sid, p, 3)
        with pytest.raises(ReorderBufferFullError):
            submit_step(server, sid, p, 4)


class TestServingConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServingConfig(shards=0)
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServingConfig(max_delay=-0.001)
        with pytest.raises(ValueError):
            ServingConfig(max_buffered=0)
        with pytest.raises(ValueError):
            ServingConfig(overflow="drop-oldest")

    def test_replace(self):
        config = ServingConfig().replace(shards=9)
        assert config.shards == 9
        assert config.max_delay == ServingConfig().max_delay


class TestAsyncStreamServer:
    def test_async_round_trip(self):
        problems = make_streams(4, 8, seed=400)
        config = ServingConfig(shards=2, max_batch=4, max_delay=0.001)
        core = ShardedStreamServer(lag=2, config=config)

        async def scenario():
            collected = {sid: [] for sid in problems}
            async with AsyncStreamServer(core, idle_poll=0.005) as server:
                for sid, p in problems.items():
                    await server.open_stream(
                        sid,
                        p.state_dims[0],
                        prior=(p.prior.mean, p.prior.cov_matrix()),
                    )
                n_states = max(p.n_states for p in problems.values())
                for t in range(n_states):
                    for sid, p in problems.items():
                        await server.submit(
                            sid,
                            StreamStep(
                                seq=t,
                                evolution=p.steps[t].evolution,
                                observation=p.steps[t].observation,
                            ),
                        )
                for sid in problems:
                    tail = await server.close_stream(sid)
                    collected[sid].extend(tail)
            server_queue = server.emissions
            while not server_queue.empty():
                sid, em = server_queue.get_nowait()
                collected[sid].append(em)
            return collected

        collected = asyncio.run(scenario())
        for sid, p in problems.items():
            assert len(collected[sid]) == p.n_states
            indices = sorted(em.index for em in collected[sid])
            assert indices == list(range(p.n_states))

    def test_start_twice_raises(self):
        core = ShardedStreamServer(lag=2, config=ServingConfig(shards=1))

        async def scenario():
            server = AsyncStreamServer(core)
            await server.start()
            with pytest.raises(RuntimeError):
                await server.start()
            await server.stop()

        asyncio.run(scenario())

    def test_idle_poll_validation(self):
        core = ShardedStreamServer(lag=2, config=ServingConfig(shards=1))
        with pytest.raises(ValueError):
            AsyncStreamServer(core, idle_poll=0.0)
