"""SLO-driven adaptive batching: controller hysteresis under a fake
clock, and the sharded-server integration (satellite: adaptation never
loosens the backpressure bounds)."""

import pytest

from repro.api import ServingConfig
from repro.errors import ReorderBufferFullError
from repro.model.generators import random_problem
from repro.obs import Histogram, MetricsRegistry
from repro.stream import (
    AdaptiveBatchController,
    ShardedStreamServer,
    StreamStep,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_controller(
    slo=0.010,
    initial=64,
    min_batch=4,
    interval=0.1,
    min_samples=8,
    **kwargs,
):
    clock = FakeClock()
    hist = Histogram(window=256)
    ctl = AdaptiveBatchController(
        slo,
        hist,
        initial=initial,
        min_batch=min_batch,
        interval=interval,
        min_samples=min_samples,
        clock=clock,
        **kwargs,
    )
    ctl.update()  # anchor the decision clock at t=0
    return ctl, hist, clock


def feed(hist, latency, n=16):
    for _ in range(n):
        hist.observe(latency)


def decide(ctl, clock, interval=0.1):
    # Slightly past the interval: exact 0.1 increments accumulate
    # float error and can land a hair *under* the rate limit.
    clock.advance(interval * 1.01)
    return ctl.update()


class TestControllerDecisions:
    def test_shrinks_on_p99_breach(self):
        ctl, hist, clock = make_controller()
        feed(hist, 0.050)  # 5x the SLO
        assert decide(ctl, clock) == 32  # 64 * 0.5
        assert ctl.shrinks == 1

    def test_grows_under_headroom(self):
        ctl, hist, clock = make_controller(initial=16, max_batch=64)
        feed(hist, 0.001)  # well under 0.7 * slo
        assert decide(ctl, clock) == 20  # 16 * 1.25
        assert ctl.grows == 1

    def test_dead_band_holds(self):
        """p99 between headroom*slo and slo: neither grow nor shrink —
        half of the anti-oscillation hysteresis."""
        ctl, hist, clock = make_controller(initial=32, max_batch=64)
        for _ in range(5):
            feed(hist, 0.009)  # 0.9 * slo: above the 0.7 headroom line
            assert decide(ctl, clock) == 32
        assert ctl.grows == 0 and ctl.shrinks == 0
        assert ctl.decisions == 5

    def test_cooldown_suppresses_growth_after_shrink(self):
        """The other half: a shrink must prove itself before the
        controller probes upward again."""
        ctl, hist, clock = make_controller(cooldown=3)
        feed(hist, 0.050)
        assert decide(ctl, clock) == 32
        # Latency recovers immediately, but growth stays blocked for
        # cooldown * interval seconds.
        feed(hist, 0.001, n=300)  # flush the breach out of the window
        assert decide(ctl, clock) == 32  # t = +0.1 of 0.3 cooldown
        feed(hist, 0.001)
        assert decide(ctl, clock) == 32  # t = +0.2
        feed(hist, 0.001)
        assert decide(ctl, clock) == 40  # cooldown expired: 32 * 1.25
        assert ctl.grows == 1

    def test_no_oscillation_around_the_slo(self):
        """Alternating mildly-good and mildly-bad windows inside the
        dead band never move the trigger."""
        ctl, hist, clock = make_controller(initial=32, max_batch=64)
        sizes = []
        for i in range(10):
            feed(hist, 0.008 if i % 2 else 0.0095, n=300)
            sizes.append(decide(ctl, clock))
        assert set(sizes) == {32}

    def test_clamped_to_bounds(self):
        ctl, hist, clock = make_controller(initial=8, min_batch=4)
        # Repeated breaches floor at min_batch.
        for _ in range(6):
            feed(hist, 0.050)
            decide(ctl, clock)
        assert ctl.current == 4
        # Repeated headroom never exceeds max_batch (= initial).
        feed(hist, 0.0001, n=300)
        for _ in range(20):
            feed(hist, 0.0001)
            decide(ctl, clock)
        assert ctl.current == 8

    def test_growth_is_at_least_one(self):
        """Small triggers still make progress: int(1 * 1.25) == 1
        would wedge without the +1 floor."""
        ctl, hist, clock = make_controller(
            initial=1, min_batch=1, max_batch=8
        )
        feed(hist, 0.0001)
        assert decide(ctl, clock) == 2


class TestControllerRateLimiting:
    def test_interval_limits_decisions(self):
        ctl, hist, clock = make_controller(interval=1.0)
        feed(hist, 0.050)
        clock.advance(0.5)
        assert ctl.update() == 64  # too soon
        assert ctl.decisions == 0
        clock.advance(0.5)
        assert ctl.update() == 32
        assert ctl.decisions == 1

    def test_min_samples_defers_without_resetting_the_clock(self):
        ctl, hist, clock = make_controller(min_samples=8)
        feed(hist, 0.050, n=3)
        clock.advance(0.1)
        assert ctl.update() == 64  # not enough evidence
        assert ctl.decisions == 0
        feed(hist, 0.050, n=5)
        # No further clock advance needed: the interval timer was not
        # reset by the deferral.
        assert ctl.update() == 32

    def test_stats_schema(self):
        ctl, hist, clock = make_controller()
        stats = ctl.stats()
        assert stats == {
            "slo": 0.010,
            "current": 64,
            "min_batch": 4,
            "max_batch": 64,
            "decisions": 0,
            "grows": 0,
            "shrinks": 0,
            "last_p99": 0.0,
        }


class StubHistogram:
    """Duck-typed reservoir for pathological states a real
    :class:`~repro.obs.Histogram` cannot reach via its public API
    (positive count with an empty ring; a NaN quantile)."""

    def __init__(self, count=0, p99=0.0, retained=()):
        self.count = count
        self._p99 = p99
        self._retained = list(retained)

    def quantile(self, q):
        return self._p99

    def samples(self):
        return list(self._retained)


class TestReservoirSwapGuards:
    def test_swap_reanchors_instead_of_wedging(self):
        """A registry swap drops ``histogram.count`` below ``_seen``;
        the controller must re-anchor and keep working, not stall
        until the new count catches up to the stale ledger."""
        ctl, hist, clock = make_controller()
        feed(hist, 0.009, n=100)
        decide(ctl, clock)  # healthy decision on the old reservoir
        assert ctl.decisions == 1
        new_hist = Histogram(window=256)
        ctl.histogram = new_hist
        # Negative fresh-sample count: a no-op, not a decision.
        assert decide(ctl, clock) == 64
        assert ctl.decisions == 1
        # Re-anchored: evidence on the new reservoir drives decisions
        # again immediately.
        feed(new_hist, 0.050)
        assert decide(ctl, clock) == 32
        assert ctl.shrinks == 1

    def test_empty_reservoir_p99_is_not_growth_evidence(self):
        """An empty window reports p99 = 0.0; deciding on it would
        grow the trigger on silence."""
        ctl, hist, clock = make_controller(initial=16, max_batch=64)
        ctl.histogram = StubHistogram(count=1000)
        assert decide(ctl, clock) == 16
        assert ctl.decisions == 0
        assert ctl.grows == 0

    def test_nan_p99_never_enters_stats(self):
        ctl, hist, clock = make_controller()
        ctl.histogram = StubHistogram(
            count=1000, p99=float("nan"), retained=[0.05]
        )
        assert decide(ctl, clock) == 64
        assert ctl.decisions == 0
        assert ctl.last_p99 == 0.0  # stats() stays JSON-safe

    def test_guards_do_not_change_stats_schema(self):
        ctl, hist, clock = make_controller()
        ctl.histogram = StubHistogram(count=1000)
        decide(ctl, clock)
        assert set(ctl.stats()) == {
            "slo",
            "current",
            "min_batch",
            "max_batch",
            "decisions",
            "grows",
            "shrinks",
            "last_p99",
        }


class TestControllerValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo": 0.0},
            {"initial": 0},
            {"min_batch": 0},
            {"max_batch": 2, "min_batch": 4},
            {"interval": 0.0},
            {"min_samples": 0},
            {"headroom": 1.0},
            {"grow_factor": 1.0},
            {"shrink_factor": 1.0},
            {"cooldown": -1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        defaults = dict(slo=0.010, initial=64, min_batch=4)
        defaults.update(kwargs)
        slo = defaults.pop("slo")
        initial = defaults.pop("initial")
        with pytest.raises(ValueError):
            AdaptiveBatchController(slo, Histogram(), initial=initial, **defaults)


def make_server(**cfg):
    clock = FakeClock()
    config = ServingConfig(
        shards=1,
        max_batch=16,
        max_delay=0.010,
        max_buffered=2,
        latency_slo=0.010,
        min_batch=2,
        adapt_interval=0.05,
        adapt_min_samples=4,
        **cfg,
    )
    server = ShardedStreamServer(
        lag=2, config=config, clock=clock, registry=MetricsRegistry()
    )
    return server, clock, config


def submit_steps(server, sid, p, ts):
    for t in ts:
        server.submit(
            sid,
            StreamStep(
                seq=t,
                evolution=p.steps[t].evolution,
                observation=p.steps[t].observation,
            ),
        )


class TestServerIntegration:
    def test_breach_shrinks_effective_max_batch(self):
        server, clock, config = make_server()
        assert server.max_batch == 16
        server.poll()  # anchors the controller's decision clock
        # Simulate a breached SLO directly through the reservoir the
        # controller watches.
        for _ in range(8):
            server._latency_hist.observe(0.050)
        clock.advance(0.06)
        server.poll()
        assert server.max_batch == 8
        assert server.stats()["adaptive"]["shrinks"] == 1
        assert server.stats()["max_batch"] == 8

    def test_recovery_grows_back_but_never_past_the_config_cap(self):
        server, clock, config = make_server()
        server.poll()  # anchor
        for _ in range(8):
            server._latency_hist.observe(0.050)
        clock.advance(0.06)
        server.poll()
        assert server.max_batch == 8
        # Healthy latencies from here on: grow back, capped at 16.
        # Enough per round that the 8 breach samples sink below the
        # 99th percentile of the retained window.
        for round_ in range(40):
            for _ in range(30):
                server._latency_hist.observe(0.001)
            clock.advance(0.06)
            server.poll()
        assert server.max_batch == 16
        stats = server.stats()["adaptive"]
        assert stats["max_batch"] == 16
        assert stats["grows"] >= 1

    def test_adaptation_respects_min_batch_floor(self):
        server, clock, config = make_server()
        for round_ in range(10):
            for _ in range(8):
                server._latency_hist.observe(0.500)
            clock.advance(0.06)
            server.poll()
        assert server.max_batch == config.min_batch == 2

    def test_backpressure_bounds_survive_adaptation(self):
        """Regression: adaptation resizes the flush trigger, never the
        reorder-buffer bound — ``max_buffered`` still rejects."""
        server, clock, config = make_server()
        p = random_problem(k=9, seed=0, dims=2)
        server.open_stream(
            "s", p.state_dims[0], prior=(p.prior.mean, p.prior.cov_matrix())
        )
        server.poll()  # anchor
        # Drive the trigger down first.
        for _ in range(8):
            server._latency_hist.observe(0.500)
        clock.advance(0.06)
        server.poll()
        assert server.max_batch == 8
        # A gap at seq 1 buffers everything after it; the third
        # buffered arrival must still be rejected.
        submit_steps(server, "s", p, [0, 2, 3])
        with pytest.raises(ReorderBufferFullError):
            submit_steps(server, "s", p, [4])

    def test_effective_trigger_always_within_bounds_under_load(self):
        """Property over a noisy run: every observed ``max_batch`` stays
        in ``[config.min_batch, config.max_batch]``."""
        server, clock, config = make_server()
        observed = set()
        latencies = [0.050, 0.001, 0.500, 0.002, 0.009, 0.0001]
        for i in range(60):
            for _ in range(6):
                server._latency_hist.observe(latencies[i % len(latencies)])
            clock.advance(0.06)
            server.poll()
            observed.add(server.max_batch)
        assert observed  # adaptation actually ran
        assert all(
            config.min_batch <= m <= config.max_batch for m in observed
        )

    def test_servers_sharing_a_registry_adapt_on_their_own_latencies(self):
        """Two servers of one registry share the exported latency
        series, but each controller and ``latency_stats()`` sees only
        its own server's emissions."""
        clock = FakeClock()
        _, _, config = make_server()
        registry = MetricsRegistry()
        slow, quiet = (
            ShardedStreamServer(
                lag=2, config=config, clock=clock, registry=registry
            )
            for _ in range(2)
        )
        quiet.poll()  # anchor
        p = random_problem(k=9, seed=0, dims=2)
        for sid in ("a", "b", "c"):
            slow.open_stream(
                sid,
                p.state_dims[0],
                prior=(p.prior.mean, p.prior.cov_matrix()),
            )
            submit_steps(slow, sid, p, [0, 1, 2, 3])
        clock.advance(0.5)  # every due state waits far past the SLO
        slow.poll()
        assert slow.latency_stats()["count"] == 6
        clock.advance(0.06)
        quiet.poll()
        assert quiet.latency_stats()["count"] == 0
        assert quiet.max_batch == 16
        exported = registry.histogram(
            "repro_serving_emission_latency_seconds"
        )
        assert exported.count == 6

    def test_static_server_has_no_controller(self):
        clock = FakeClock()
        server = ShardedStreamServer(
            lag=2,
            config=ServingConfig(shards=1, max_batch=16),
            clock=clock,
            registry=MetricsRegistry(),
        )
        assert server.stats()["adaptive"] is None
        clock.advance(1.0)
        server.poll()
        assert server.max_batch == 16
