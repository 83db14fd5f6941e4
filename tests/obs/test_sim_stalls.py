"""Simulator-side stall attribution: same vocabulary as the real run.

The unification satellite: the discrete-event engine's blocking waits
(locks, conditions, barriers, queue gets, pool slots, merge reorder)
must land in the same canonical :mod:`repro.obs.stalls` reason
vocabulary — and the same ``StallTable``/``breakdown()`` arithmetic —
that the real multiprocessing pipeline reports, so the two appear side
by side in ``repro.analysis.obs_report``.
"""

from __future__ import annotations

from repro.obs.stalls import (
    CANONICAL_REASONS,
    REASON_BARRIER,
    REASON_LOCK,
    REASON_MERGE,
    REASON_POOL_SLOT,
    REASON_QUEUE_GET,
)
from repro.smp.engine import (
    AcquireLock,
    Compute,
    ReleaseLock,
    Simulator,
    WaitBarrier,
)
from repro.smp.sync import Barrier, Lock


class TestEngineAttribution:
    def test_contended_lock_recorded_under_lock_reason(self):
        sim = Simulator()
        lock = Lock("m")

        def holder(proc):
            yield AcquireLock(lock)
            yield Compute(100)
            yield ReleaseLock(lock)

        def contender(proc):
            yield AcquireLock(lock)
            yield ReleaseLock(lock)

        sim.add_process("holder", holder)
        waiter = sim.add_process("contender", contender)
        sim.run()

        assert waiter.stats.sync_wait == 100
        assert waiter.stats.sync_by_reason == {REASON_LOCK: 100}
        assert sim.stalls.total(REASON_LOCK) == 100
        assert sim.stalls.waiters() == ["contender"]

    def test_barrier_wait_recorded_under_barrier_reason(self):
        sim = Simulator()
        barrier = Barrier(2, "b")

        def early(proc):
            yield WaitBarrier(barrier)

        def late(proc):
            yield Compute(250)
            yield WaitBarrier(barrier)

        first = sim.add_process("early", early)
        sim.add_process("late", late)
        sim.run()

        assert first.stats.sync_by_reason == {REASON_BARRIER: 250}
        assert sim.stalls.total(REASON_BARRIER) == 250

    def test_sync_by_reason_sums_to_sync_wait(self):
        sim = Simulator()
        lock = Lock("m")
        barrier = Barrier(2, "b")

        def a(proc):
            yield AcquireLock(lock)
            yield Compute(60)
            yield ReleaseLock(lock)
            yield WaitBarrier(barrier)

        def b(proc):
            yield AcquireLock(lock)  # waits 60 on the lock
            yield ReleaseLock(lock)
            yield Compute(40)
            yield WaitBarrier(barrier)

        sim.add_process("a", a)
        pb = sim.add_process("b", b)
        sim.run()

        for proc in sim.processes:
            assert sum(proc.stats.sync_by_reason.values()) == (
                proc.stats.sync_wait
            )
        assert pb.stats.sync_by_reason[REASON_LOCK] == 60


class TestDecoderBreakdowns:
    def _profile(self, stream):
        from repro.parallel.profile import profile_stream

        return profile_stream(stream)

    def test_gop_decoder_stalls_use_canonical_reasons(self, medium_stream):
        from repro.parallel.gop_level import GopLevelDecoder, ParallelConfig

        result = GopLevelDecoder(self._profile(medium_stream)).run(
            ParallelConfig(workers=4)
        )
        breakdown = result.stall_breakdown()
        assert set(breakdown) <= set(CANONICAL_REASONS)
        assert sum(breakdown.values()) <= 1.0 + 1e-12
        # Workers outnumber GOPs: someone waited on the task queue, and
        # out-of-order completions held in the display reorder buffer.
        assert result.stalls.total(REASON_QUEUE_GET) > 0

    def test_bounded_pool_reports_pool_slot_stalls(self, medium_stream):
        from repro.parallel.gop_level import GopLevelDecoder, ParallelConfig

        result = GopLevelDecoder(self._profile(medium_stream)).run(
            ParallelConfig(workers=2, max_frames_in_flight=2)
        )
        assert result.stalls.total(REASON_POOL_SLOT) > 0
        assert REASON_POOL_SLOT in result.stall_breakdown()

    def test_merge_stall_vocabulary_matches_mp_pipeline(self, medium_stream):
        """Both worlds file reorder holds under REASON_MERGE."""
        from repro.parallel.gop_level import GopLevelDecoder, ParallelConfig
        from repro.parallel.mp import MPGopDecoder

        sim = GopLevelDecoder(self._profile(medium_stream)).run(
            ParallelConfig(workers=4)
        )
        sim_reasons = set(sim.stall_breakdown())

        mp_decoder = MPGopDecoder(medium_stream, workers=2)
        mp_decoder.decode_all()
        mp_reasons = set(mp_decoder.stall_breakdown())

        # Whatever overlaps must be the shared canonical names; the
        # parent-side queue wait exists in both worlds by construction.
        assert sim_reasons <= set(CANONICAL_REASONS)
        assert mp_reasons <= set(CANONICAL_REASONS)
        assert REASON_QUEUE_GET in sim_reasons
        assert REASON_QUEUE_GET in mp_reasons
        assert REASON_MERGE in sim_reasons

    def test_slice_decoder_populates_stall_table(self, medium_stream):
        from repro.parallel.gop_level import ParallelConfig
        from repro.parallel.slice_level import SliceLevelDecoder, SliceMode

        result = SliceLevelDecoder(self._profile(medium_stream)).run(
            ParallelConfig(workers=4), SliceMode.SIMPLE
        )
        breakdown = result.stall_breakdown()
        assert set(breakdown) <= set(CANONICAL_REASONS)
        assert sum(breakdown.values()) <= 1.0 + 1e-12
