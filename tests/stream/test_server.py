"""StreamServer: multiplexing, micro-batching, out-of-order arrivals."""

import numpy as np
import pytest

from repro.core.smoother import OddEvenSmoother
from repro.model.generators import random_problem, tracking_2d_problem
from repro.model.problem import StateSpaceProblem
from repro.model.steps import Evolution, Observation, Step
from repro.stream import (
    FixedLagSmoother,
    ShardedStreamServer,
    StreamServer,
    StreamStep,
)


def as_arrivals(problem):
    return [
        StreamStep(
            seq=seq,
            evolution=step.evolution,
            observation=step.observation,
        )
        for seq, step in enumerate(problem.steps)
    ]


def serve_all(server, problems, order=None, flush_every=1):
    """Open, submit (optionally permuted), flush, close; returns the
    per-stream emission lists.  Arrivals are round-robin across
    streams (one step per stream per round) unless ``order`` permutes
    them."""
    for sid, p in enumerate(problems):
        server.open_stream(
            sid, p.state_dims[0], prior=(p.prior.mean, p.prior.cov_matrix())
        )
    arrivals = sorted(
        (
            (sid, step)
            for sid, p in enumerate(problems)
            for step in as_arrivals(p)
        ),
        key=lambda pair: (pair[1].seq, pair[0]),
    )
    if order is not None:
        arrivals = [arrivals[i] for i in order]
    collected = {sid: [] for sid in range(len(problems))}
    for i, (sid, step) in enumerate(arrivals):
        server.submit(sid, step)
        if (i + 1) % flush_every == 0:
            for s, ems in server.flush().items():
                collected[s].extend(ems)
    for sid in range(len(problems)):
        collected[sid].extend(server.close_stream(sid))
    return collected


class TestServing:
    def test_matches_per_stream_fixed_lag_loop(self, assert_blocks_close):
        """In-order, flush-per-round serving equals the auto-emitting
        per-stream FixedLagSmoother, emission for emission."""
        lag = 3
        problems = [
            random_problem(k=9, seed=i, dims=3, random_cov=True)
            for i in range(6)
        ]
        server = StreamServer(lag)
        # Flush after each full round of arrivals (one step per
        # stream), which is the per-step cadence of the loop.
        collected = serve_all(
            server, problems, flush_every=len(problems)
        )
        for sid, p in enumerate(problems):
            fls = FixedLagSmoother(
                p.state_dims[0],
                lag,
                prior=(p.prior.mean, p.prior.cov_matrix()),
            )
            s0 = p.steps[0]
            if s0.observation is not None:
                fls.observe_step(s0.observation)
            for step in p.steps[1:]:
                fls.evolve_step(step.evolution)
                if step.observation is not None:
                    fls.observe_step(step.observation)
            expected = fls.emissions() + fls.finalize()
            got = collected[sid]
            assert [e.index for e in got] == [e.index for e in expected]
            assert_blocks_close(
                [e.mean for e in got],
                [e.mean for e in expected],
                tol=1e-9,
                what=f"stream {sid} means",
            )
            assert_blocks_close(
                [e.cov for e in got],
                [e.cov for e in expected],
                tol=1e-9,
                what=f"stream {sid} covariances",
            )

    def test_out_of_order_arrivals_honor_the_frontier_contract(self):
        """Under random packet reordering and arbitrary flush cadence,
        every emission still equals the batch smooth of its recorded
        frontier prefix, and conditions on at least ``lag`` future
        steps."""
        lag = 3
        problems = [
            random_problem(k=8, seed=10 + i, dims=2, random_cov=True)
            for i in range(4)
        ]
        rng = np.random.default_rng(7)
        n = sum(p.n_states for p in problems)
        # Bounded-skew shuffle: each arrival delayed by a random
        # amount, like packets over a network.
        order = np.argsort(np.arange(n) + 12 * rng.uniform(size=n))
        shuffled = serve_all(
            StreamServer(lag), problems, order=order, flush_every=5
        )
        smoother = OddEvenSmoother()
        for sid, p in enumerate(problems):
            assert [e.index for e in shuffled[sid]] == list(
                range(p.n_states)
            )
            for em in shuffled[sid]:
                assert em.frontier >= min(em.index + lag, p.k)
                prefix = smoother.smooth(p.subproblem(em.frontier))
                assert np.allclose(
                    em.mean, prefix.means[em.index], atol=1e-8
                ), (sid, em.index)

    def test_missing_observations_served(self):
        lag = 4
        problem, _truth = tracking_2d_problem(k=20, seed=3, obs_prob=0.6)
        server = StreamServer(lag)
        collected = serve_all(server, [problem])
        assert [e.index for e in collected[0]] == list(range(21))
        full = OddEvenSmoother().smooth(problem)
        for em in collected[0]:
            if em.index > problem.k - lag:
                assert np.allclose(
                    em.mean, full.means[em.index], atol=1e-8
                )

    def test_mixed_length_and_dimension_streams(self):
        """Streams of different models/lengths bucket separately but
        serve through the same flushes."""
        problems = [
            random_problem(k=6, seed=0, dims=2, random_cov=True),
            random_problem(k=11, seed=1, dims=3),
            random_problem(k=9, seed=2, dims=2, random_cov=True),
        ]
        collected = serve_all(StreamServer(2), problems, flush_every=4)
        for sid, p in enumerate(problems):
            assert [e.index for e in collected[sid]] == list(
                range(p.n_states)
            )

    def test_filtered_estimate_online(self):
        p = random_problem(k=5, seed=4, dims=2)
        server = StreamServer(2)
        server.open_stream(
            "s", 2, prior=(p.prior.mean, p.prior.cov_matrix())
        )
        for step in as_arrivals(p):
            server.submit("s", step)
        mean, cov = server.estimate("s")
        fls = FixedLagSmoother(2, 2, prior=(p.prior.mean, p.prior.cov_matrix()))
        s0 = p.steps[0]
        if s0.observation is not None:
            fls.observe_step(s0.observation)
        for step in p.steps[1:]:
            fls.evolve_step(step.evolution)
            if step.observation is not None:
                fls.observe_step(step.observation)
        mean2, cov2 = fls.estimate()
        assert np.allclose(mean, mean2, atol=1e-10)
        assert np.allclose(cov, cov2, atol=1e-10)


class TestNonFiniteIngress:
    """One NaN in a stream's input used to poison every emission of
    that stream, including states before the bad step; submit now
    rejects it by stream id and seq."""

    @staticmethod
    def identity_step(seq, o):
        return StreamStep(
            seq=seq,
            evolution=None if seq == 0 else Evolution(F=np.eye(2)),
            observation=Observation(G=np.eye(2), o=np.asarray(o)),
        )

    def test_nan_observation_rejected_then_resubmitted(self):
        server = StreamServer(2)
        rng = np.random.default_rng(5)
        data = {sid: rng.standard_normal((8, 2)) for sid in ("a", "b")}
        for sid in data:
            server.open_stream(sid, 2)
        for seq in range(8):
            if seq == 3:
                bad = self.identity_step(3, [np.nan, 1.0])
                with pytest.raises(
                    ValueError, match="'a' step 3: non-finite values in o;"
                ):
                    server.submit("a", bad)
                assert server.stats()["per_stream"]["a"]["applied"] == 3
            for sid, obs in data.items():
                server.submit(sid, self.identity_step(seq, obs[seq]))
        emitted = server.flush()
        problem = StateSpaceProblem(
            [
                Step(2, evolution=s.evolution, observation=s.observation)
                for s in map(self.identity_step, range(8), data["a"])
            ]
        )
        assert [e.index for e in emitted["a"]] == list(range(6))
        smoother = OddEvenSmoother()
        for em in emitted["a"]:
            prefix = smoother.smooth(problem.subproblem(em.frontier))
            assert np.allclose(em.mean, prefix.means[em.index], atol=1e-8)
        assert np.all(np.isfinite(server.estimate("a")[0]))

    @pytest.mark.parametrize(
        "field, evolution",
        [
            ("F", Evolution(F=[[np.inf, 0.0], [0.0, 1.0]])),
            ("c", Evolution(F=np.eye(2), c=[0.0, np.nan])),
            ("H", Evolution(F=np.eye(2), H=[[1.0, np.nan], [0.0, 1.0]])),
        ],
    )
    def test_non_finite_evolution_rejected_before_buffering(
        self, field, evolution
    ):
        server = StreamServer(2)
        server.open_stream("a", 2)
        with pytest.raises(
            ValueError, match=f"'a' step 4: non-finite values in {field};"
        ):
            server.submit("a", StreamStep(seq=4, evolution=evolution))
        assert server.stats()["per_stream"]["a"]["buffered"] == 0

    def test_sharded_server_inherits_the_check(self):
        server = ShardedStreamServer(2)
        server.open_stream("a", 2)
        with pytest.raises(
            ValueError, match="'a' step 0: non-finite values in G;"
        ):
            server.submit(
                "a",
                StreamStep(
                    seq=0,
                    observation=Observation(
                        G=[[np.nan, 0.0], [0.0, 1.0]], o=np.zeros(2)
                    ),
                ),
            )


class TestProtocolErrors:
    def make_server(self):
        server = StreamServer(2)
        server.open_stream("a", 2, prior=(np.zeros(2), np.eye(2)))
        return server

    def test_duplicate_stream_id(self):
        server = self.make_server()
        with pytest.raises(ValueError, match="already open"):
            server.open_stream("a", 2)

    def test_unknown_stream(self):
        server = self.make_server()
        with pytest.raises(KeyError, match="no open stream"):
            server.submit("b", StreamStep(seq=0))

    def test_duplicate_applied_step(self):
        server = self.make_server()
        server.submit(
            "a",
            StreamStep(
                seq=0,
                observation=None,
            ),
        )
        with pytest.raises(ValueError, match="duplicate"):
            server.submit("a", StreamStep(seq=0))

    def test_duplicate_buffered_step(self):
        server = self.make_server()
        step2 = StreamStep(seq=2, evolution=Evolution(F=np.eye(2)))
        server.submit("a", step2)
        with pytest.raises(ValueError, match="duplicate"):
            server.submit("a", step2)

    def test_close_with_gap_refuses(self):
        server = self.make_server()
        server.submit("a", StreamStep(seq=0))
        server.submit("a", StreamStep(seq=2, evolution=Evolution(F=np.eye(2))))
        with pytest.raises(ValueError, match="gap: step 1"):
            server.close_stream("a")

    def test_step_validation(self):
        with pytest.raises(ValueError, match="seq"):
            StreamStep(seq=-1)
        with pytest.raises(ValueError, match="initial state"):
            StreamStep(seq=0, evolution=Evolution(F=np.eye(2)))
        with pytest.raises(ValueError, match="missing its evolution"):
            StreamStep(seq=3)

    def test_bad_lag(self):
        with pytest.raises(ValueError, match="lag"):
            StreamServer(0)

    def test_bad_observation_does_not_half_apply_the_step(self):
        """A step whose observation dimension is wrong must be
        rejected before its evolution mutates the timeline."""
        server = self.make_server()
        server.submit("a", StreamStep(seq=0))
        bad = StreamStep(
            seq=1,
            evolution=Evolution(F=np.eye(2)),
            observation=Observation(G=np.eye(3), o=np.zeros(3)),
        )
        with pytest.raises(ValueError, match="step 1"):
            server.submit("a", bad)
        # The timeline did not advance; a corrected step 1 applies
        # cleanly and lands on state index 1.
        assert server.stats()["per_stream"]["a"]["applied"] == 1
        server.submit(
            "a",
            StreamStep(
                seq=1,
                evolution=Evolution(F=np.eye(2)),
                observation=Observation(G=np.eye(2), o=np.zeros(2)),
            ),
        )
        assert server.stats()["per_stream"]["a"]["applied"] == 2
        mean, _cov = server.estimate("a")
        assert mean.shape == (2,)

    def test_unobservable_stream_does_not_wedge_the_fleet(self):
        """One rank-deficient window must not stop healthy streams:
        flush names the broken stream, keeps the healthy results, and
        drop_stream restores normal service."""
        from repro.errors import UnobservableStateError

        lag = 2
        server = StreamServer(lag)
        healthy = [
            random_problem(k=6, seed=50 + i, dims=2) for i in range(2)
        ]
        for sid, p in enumerate(healthy):
            server.open_stream(
                sid, 2, prior=(p.prior.mean, p.prior.cov_matrix())
            )
        server.open_stream("bad", 2)  # no prior, 1-d observations:
        # coordinate 1 is never determined, so every window solve
        # must fail.
        collected = {sid: [] for sid in range(2)}
        failed = False
        for t in range(7):
            for sid, p in enumerate(healthy):
                step = p.steps[t]
                server.submit(
                    sid,
                    StreamStep(
                        seq=t,
                        evolution=step.evolution,
                        observation=step.observation,
                    ),
                )
            server.submit(
                "bad",
                StreamStep(
                    seq=t,
                    evolution=None if t == 0 else Evolution(F=np.eye(2)),
                    observation=Observation(
                        G=np.eye(1, 2), o=np.zeros(1)
                    ),
                ),
            )
            try:
                out = server.flush()
            except UnobservableStateError as exc:
                assert "'bad'" in str(exc)
                failed = True
                continue
            for sid, ems in out.items():
                collected[sid].extend(ems)
        assert failed
        # Evict the broken stream; the healthy ones finish cleanly
        # with every state accounted for.
        server.drop_stream("bad")
        for sid, ems in server.flush().items():
            collected[sid].extend(ems)
        for sid, p in enumerate(healthy):
            collected[sid].extend(server.close_stream(sid))
            assert [e.index for e in collected[sid]] == list(range(7))

    def test_failed_close_keeps_stream_open(self):
        """close_stream on an unobservable tail raises but must not
        drop the stream from the registry."""
        server = StreamServer(2)
        server.open_stream("u", 2)  # no prior
        server.submit(
            "u",
            StreamStep(
                seq=0,
                observation=Observation(G=np.eye(1, 2), o=np.zeros(1)),
            ),
        )
        with pytest.raises(ValueError):
            server.close_stream("u")
        assert "u" in server.stream_ids

    def test_stats_counters(self):
        server = self.make_server()
        server.submit("a", StreamStep(seq=0))
        server.submit("a", StreamStep(seq=2, evolution=Evolution(F=np.eye(2))))
        stats = server.stats()
        assert stats["streams"] == 1
        assert stats["per_stream"]["a"]["applied"] == 1
        assert stats["per_stream"]["a"]["buffered"] == 1
