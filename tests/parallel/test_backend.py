"""Tests for the execution backends (the TBB stand-in)."""

import numpy as np
import pytest

from repro.linalg.householder import QRFactor
from repro.parallel.backend import (
    RecordingBackend,
    SerialBackend,
    ThreadPoolBackend,
    blocked_ranges,
)


class TestBlockedRanges:
    def test_exact_division(self):
        blocks = blocked_ranges(10, 5)
        assert [list(b) for b in blocks] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_remainder(self):
        blocks = blocked_ranges(7, 3)
        assert [len(b) for b in blocks] == [3, 3, 1]

    def test_remainder_block_covers_all_items(self):
        # The trailing remainder block must pick up exactly the
        # leftover items, for every block size.
        for n_items in range(0, 25):
            for block_size in range(1, 12):
                blocks = blocked_ranges(n_items, block_size)
                flat = [i for block in blocks for i in block]
                assert flat == list(range(n_items)), (n_items, block_size)
                if blocks:
                    assert all(
                        len(b) == block_size for b in blocks[:-1]
                    )
                    assert 1 <= len(blocks[-1]) <= block_size

    def test_single_block(self):
        assert len(blocked_ranges(3, 100)) == 1

    def test_empty(self):
        assert blocked_ranges(0, 4) == []

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            blocked_ranges(5, 0)


@pytest.mark.parametrize(
    "backend_factory",
    [
        lambda: SerialBackend(),
        lambda: ThreadPoolBackend(3, block_size=2),
        lambda: RecordingBackend(block_size=2),
    ],
    ids=["serial", "threads", "recording"],
)
class TestMapSemantics:
    def test_map_preserves_order(self, backend_factory):
        with backend_factory() as backend:
            out = backend.map(range(17), lambda i: i * i)
        assert out == [i * i for i in range(17)]

    def test_map_arbitrary_items(self, backend_factory):
        with backend_factory() as backend:
            out = backend.map(["a", "bb", "ccc"], len)
        assert out == [1, 2, 3]

    def test_parallel_for_side_effects(self, backend_factory):
        results = [0] * 23
        with backend_factory() as backend:

            def body(i):
                results[i] = i + 1

            backend.parallel_for(23, body)
        assert results == list(range(1, 24))

    def test_serial_for_runs_in_order(self, backend_factory):
        seen = []
        with backend_factory() as backend:
            backend.serial_for(6, seen.append)
        assert seen == list(range(6))

    def test_empty_map(self, backend_factory):
        with backend_factory() as backend:
            assert backend.map([], lambda x: x) == []


class TestValidation:
    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            SerialBackend(block_size=0)

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            ThreadPoolBackend(0)


class TestRecordingBackend:
    def test_phases_and_tasks(self):
        backend = RecordingBackend(block_size=4)
        backend.map(range(10), lambda i: i, phase="phase-one")
        graph = backend.graph
        assert len(graph.phases) == 1
        phase = graph.phases[0]
        assert phase.name == "phase-one"
        assert phase.kind == "parallel_for"
        assert len(phase.tasks) == 3  # ceil(10 / 4)
        assert [t.items for t in phase.tasks] == [4, 4, 2]

    def test_records_kernel_costs(self):
        backend = RecordingBackend(block_size=1)
        a = np.random.default_rng(0).standard_normal((6, 3))
        backend.map(range(3), lambda i: QRFactor(a), phase="qr")
        tasks = backend.graph.phases[0].tasks
        assert all(t.flops > 0 for t in tasks)
        assert all(t.kernel_calls == 1 for t in tasks)

    def test_serial_phase_kind(self):
        backend = RecordingBackend()
        backend.serial_for(5, lambda i: None, phase="sweep")
        phase = backend.graph.phases[0]
        assert phase.kind == "serial"
        assert len(phase.tasks) == 5

    def test_reset_returns_old_graph(self):
        backend = RecordingBackend()
        backend.map(range(3), lambda i: i, phase="a")
        old = backend.reset()
        assert len(old.phases) == 1
        assert len(backend.graph.phases) == 0

    def test_block_size_override(self):
        backend = RecordingBackend(block_size=10)
        backend.map(range(10), lambda i: i, phase="x", block_size=1)
        assert len(backend.graph.phases[0].tasks) == 10


class TestThreadPoolEdgeCases:
    def test_single_thread_runs_inline(self):
        import threading

        main = threading.get_ident()
        seen = []
        with ThreadPoolBackend(1, block_size=2) as backend:
            out = backend.map(
                range(9), lambda i: (seen.append(threading.get_ident()), i)[1]
            )
        assert out == list(range(9))
        assert set(seen) == {main}

    def test_block_size_larger_than_items(self):
        with ThreadPoolBackend(4, block_size=50) as backend:
            out = backend.map(range(7), lambda i: i * 2)
        assert out == [i * 2 for i in range(7)]

    def test_block_size_override_larger_than_items(self):
        with ThreadPoolBackend(4, block_size=1) as backend:
            out = backend.map(
                range(5), lambda i: i + 1, block_size=100
            )
        assert out == list(range(1, 6))

    def test_single_thread_empty_map(self):
        with ThreadPoolBackend(1) as backend:
            assert backend.map([], lambda x: x) == []


class TestRecordingBatchedDispatch:
    """Tally correctness when the mapped bodies run batched kernels."""

    def test_batched_qr_costs_match_loop(self):
        from repro.linalg.flops import qr_flops
        from repro.linalg.householder import batched_qr

        stacks = [
            np.random.default_rng(s).standard_normal((4, 6, 3))
            for s in range(6)
        ]
        backend = RecordingBackend(block_size=2)
        backend.map(
            range(len(stacks)),
            lambda i: batched_qr(stacks[i]),
            phase="batched-qr",
        )
        phase = backend.graph.phases[0]
        assert len(phase.tasks) == 3  # ceil(6 / 2)
        # Every task ran 2 stacked factorizations of 4 slices each.
        expect = 2 * 4 * qr_flops(6, 3)
        for task in phase.tasks:
            assert task.flops == pytest.approx(expect)
            assert task.bytes_moved > 0

    def test_batch_smoother_records_replayable_graph(self):
        from repro.api import EstimatorConfig
        from repro.batch import BatchSmoother
        from repro.model.generators import random_problem
        from repro.parallel.tally import measure_flops

        problems = [
            random_problem(k=7, seed=s, dims=2, random_cov=True)
            for s in range(5)
        ]
        backend = RecordingBackend()
        _, whole_run = measure_flops(
            lambda: BatchSmoother().smooth_many(
                problems, config=EstimatorConfig(backend=backend)
            )
        )
        graph_flops = sum(
            t.flops for ph in backend.graph.phases for t in ph.tasks
        )
        assert graph_flops > 0
        # Everything the batched kernels charged inside mapped phases
        # must appear in the recorded graph (the whole-run tally also
        # sees stacking/whitening work done outside backend.map).
        assert graph_flops <= whole_run.flops
        assert graph_flops == pytest.approx(whole_run.flops, rel=0.35)


class TestThreadPoolBackend:
    def test_actually_uses_threads(self):
        import threading

        seen = set()
        with ThreadPoolBackend(4, block_size=1) as backend:

            def body(i):
                seen.add(threading.get_ident())
                return i

            backend.map(range(64), body)
        # At least the pool's threads or the main thread participated.
        assert len(seen) >= 1

    def test_small_input_stays_inline(self):
        import threading

        main = threading.get_ident()
        seen = []
        with ThreadPoolBackend(4, block_size=100) as backend:
            backend.map(range(5), lambda i: seen.append(threading.get_ident()))
        assert set(seen) == {main}

    def test_exceptions_propagate(self):
        with ThreadPoolBackend(2, block_size=1) as backend:
            with pytest.raises(RuntimeError, match="boom"):

                def body(i):
                    if i == 33:
                        raise RuntimeError("boom")
                    return i

                backend.map(range(64), body)
