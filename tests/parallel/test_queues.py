"""Simulation task queues: FIFO, blocking, 2-D availability rules."""

from __future__ import annotations

import pytest

from repro.parallel.profile import profile_stream
from repro.parallel.queues import PictureEntry, SimQueue, SliceTaskQueue
from repro.smp import Compute, Simulator


def drive(body_factories):
    """Run process bodies in one simulator; returns the Simulator."""
    sim = Simulator()
    for name, factory in body_factories:
        sim.add_process(name, factory)
    sim.run()
    return sim


class TestSimQueue:
    def test_fifo_through_blocking_consumer(self):
        q = SimQueue("q", op_cycles=10)
        got = []

        def producer(proc):
            for i in range(5):
                yield Compute(100)
                yield from q.put(i)
            yield from q.close()

        def consumer(proc):
            while True:
                item = yield from q.get()
                if item is None:
                    break
                got.append(item)

        drive([("p", producer), ("c", consumer)])
        assert got == [0, 1, 2, 3, 4]

    def test_close_drains_remaining_items(self):
        q = SimQueue("q", op_cycles=1)
        got = []

        def producer(proc):
            for i in range(3):
                yield from q.put(i)
            yield from q.close()

        def consumer(proc):
            yield Compute(10_000)  # start late: everything queued+closed
            while True:
                item = yield from q.get()
                if item is None:
                    break
                got.append(item)

        drive([("p", producer), ("c", consumer)])
        assert got == [0, 1, 2]

    def test_put_after_close_rejected(self):
        q = SimQueue("q", op_cycles=1)

        def producer(proc):
            yield from q.close()
            yield from q.put(1)

        with pytest.raises(RuntimeError, match="closed"):
            drive([("p", producer)])

    def test_max_depth_tracked(self):
        q = SimQueue("q", op_cycles=1)

        def producer(proc):
            for i in range(7):
                yield from q.put(i)
            yield from q.close()

        def consumer(proc):
            yield Compute(1000)
            while (yield from q.get()) is not None:
                pass

        drive([("p", producer), ("c", consumer)])
        assert q.max_depth == 7


@pytest.fixture(scope="module")
def make_entries(medium_stream):
    """Factory for fresh coding-order picture entries (entries are
    mutated by the queue, so each run needs its own)."""
    from repro.parallel.slice_level import SliceLevelDecoder

    profile = profile_stream(medium_stream)
    decoder = SliceLevelDecoder(profile)
    return decoder._build_entries


class TestSliceTaskQueue:
    def _run(self, entries, mode, workers):
        """Feed all entries then let workers drain; record claim order."""
        q = SliceTaskQueue("q", op_cycles=1, mode=mode)
        claims = []

        def scan(proc):
            for e in entries:
                yield from q.add_picture(e)
            yield from q.finish_feeding()

        def worker(wid):
            def body(proc):
                while True:
                    task = yield from q.get_slice()
                    if task is None:
                        break
                    claims.append((wid, task.entry.order, task.slice_index))
                    yield Compute(500)
                    yield from q.complete_slice(task)
            return body

        sim = Simulator()
        sim.add_process("scan", scan)
        for w in range(workers):
            sim.add_process(f"w{w}", worker(w))
        sim.run()
        return claims, q

    def test_all_slices_claimed_exactly_once(self, make_entries):
        total = sum(len(e.picture.slices) for e in make_entries())
        for mode in ("simple", "improved"):
            claims, q = self._run(make_entries(), mode, workers=4)
            assert len(claims) == total
            assert len({(o, s) for _, o, s in claims}) == total
            assert q.pictures_complete == len(q.entries)

    def test_simple_mode_is_strictly_picture_ordered(self, make_entries):
        claims, _ = self._run(make_entries(), "simple", workers=4)
        orders = [o for _, o, _ in claims]
        assert orders == sorted(orders)

    def test_improved_mode_interleaves_b_pictures(self, make_entries):
        """With dependencies satisfied, slices of consecutive pictures
        may be claimed out of strict order — that's the extra
        concurrency the improved version exposes."""
        claims, _ = self._run(make_entries(), "improved", workers=8)
        orders = [o for _, o, _ in claims]
        assert orders != sorted(orders)

    def test_improved_never_starts_before_references_complete(self, make_entries):
        entries = make_entries()
        q = SliceTaskQueue("q", op_cycles=1, mode="improved")
        violations = []

        def scan(proc):
            for e in entries:
                yield from q.add_picture(e)
            yield from q.finish_feeding()

        def worker(proc):
            while True:
                task = yield from q.get_slice()
                if task is None:
                    break
                for dep in task.entry.dependencies:
                    if not q.entries[dep].complete:
                        violations.append((task.entry.order, dep))
                yield Compute(997)
                yield from q.complete_slice(task)

        sim = Simulator()
        sim.add_process("scan", scan)
        for w in range(6):
            sim.add_process(f"w{w}", worker)
        sim.run()
        assert violations == []

    @pytest.mark.parametrize("mode", ["simple", "improved"])
    def test_run_conserves_the_plan(self, make_entries, mode):
        """The simulated queue dispatches from the real decoder's task
        graph, so it obeys the law real runs are audited by."""
        entries = make_entries()
        _, q = self._run(entries, mode, workers=4)
        q.graph.verify_conservation()
        slices = sum(len(e.picture.slices) for e in entries)
        assert q.graph.planned == slices + len(entries)  # + publish nodes
        assert q.graph.completed == q.graph.planned
        assert q.graph.cancelled == q.graph.lost == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SliceTaskQueue("q", 1, "bogus")
