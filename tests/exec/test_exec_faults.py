"""Fault injection through the unified backend (:mod:`repro.exec`).

The executor routes every decode through one worker-pool backend, so
worker death, wedged workers, and poisoned inputs must all surface the
same way regardless of which planner dispatched the work: a clean
:class:`~repro.mpeg2.decoder.DecodeError` (or the input's pinned
exception class), zero leaked ``/dev/shm`` segments, and zero stray
child processes.  The SIGALRM ``deadline`` fixture makes "no hang"
executable; ``assert_no_stray_children`` exempts only the healthy
persistent GOP pool (it outlives decodes by design).

The crash hooks (``_crash_gop`` / ``_crash_task``) ``os._exit`` a
worker mid-task — observationally a SIGKILL: no result, no cleanup,
nonzero exitcode.  They reach the workers *through* the executor's
planner plumbing, so these tests also pin that the hook paths
survived the planner/backend split.
"""

from __future__ import annotations

import pytest

from repro.exec import TaskGraphExecutor
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import DecodeError, SequenceDecoder

from tests.parallel.test_mp_fault_injection import assert_no_stray_children


def assert_aborted_run_conserves(ex: TaskGraphExecutor) -> None:
    """The graphs are the ones the run dispatched from, so an aborted
    run shows: not everything completed, the difference is accounted
    as cancelled (never started) or lost (in flight at the abort), and
    the conservation law still holds."""
    assert ex.last_graphs, "no graph recorded for the aborted run"
    counts = {"planned": 0, "completed": 0, "cancelled": 0, "lost": 0}
    for graph in ex.last_graphs:
        assert graph.is_settled()
        graph.verify_conservation()
        for name in counts:
            counts[name] += graph.counts()[name]
    assert counts["completed"] < counts["planned"], counts
    assert counts["cancelled"] + counts["lost"] > 0, counts


class TestWorkerDeath:
    def test_gop_grain_crash_raises_decode_error(
        self, medium_stream, no_shm_leak, deadline
    ):
        ex = TaskGraphExecutor(
            medium_stream, grain="gop", engine="batched", workers=2,
            _crash_gop=1,
        )
        with pytest.raises(DecodeError, match="worker process died"):
            ex.decode_all()
        assert_aborted_run_conserves(ex)
        assert_no_stray_children()

    def test_slice_grain_crash_raises_decode_error(
        self, medium_stream, no_shm_leak, deadline
    ):
        ex = TaskGraphExecutor(
            medium_stream, grain="slice", workers=2, _crash_task=(2, 1),
        )
        with pytest.raises(DecodeError, match="worker process died"):
            ex.decode_all()
        assert_aborted_run_conserves(ex)
        assert_no_stray_children()

    def test_auto_grain_crash_still_fails_clean(
        self, two_gop_stream, no_shm_leak, deadline
    ):
        # Auto is GOP grain; the crash hook rides along and the death
        # must surface identically through the auto path.
        ex = TaskGraphExecutor(
            two_gop_stream, grain="auto", engine="batched", workers=2,
            _crash_gop=0,
        )
        assert ex.decision.grain == "gop"
        with pytest.raises(DecodeError, match="worker process died"):
            ex.decode_all()
        assert_aborted_run_conserves(ex)
        assert_no_stray_children()

    def test_crash_on_first_task_before_any_result(
        self, small_stream, no_shm_leak, deadline
    ):
        ex = TaskGraphExecutor(
            small_stream, grain="slice", workers=1, _crash_task=(0, 0),
        )
        with pytest.raises(DecodeError, match="worker process died"):
            ex.decode_all()
        assert_aborted_run_conserves(ex)
        # Killed on its very first task: nothing completed at all.
        assert ex.last_graphs[0].completed == 0
        assert ex.last_graphs[0].lost == 1
        assert_no_stray_children()

    def test_clean_decode_after_crash(self, two_gop_stream, no_shm_leak):
        # A crashed run must not poison the process: a fresh executor
        # on the same stream succeeds and matches the oracle.
        ex = TaskGraphExecutor(
            two_gop_stream, grain="gop", engine="batched", workers=2,
            _crash_gop=0,
        )
        with pytest.raises(DecodeError):
            ex.decode_all()
        counters = WorkCounters()
        frames = TaskGraphExecutor(
            two_gop_stream, grain="gop", engine="batched", workers=2
        ).decode_all(counters)
        ref_counters = WorkCounters()
        ref = SequenceDecoder(two_gop_stream, engine="scalar").decode_all(
            ref_counters
        )
        assert [f.digest() for f in frames] == [f.digest() for f in ref]
        assert counters == ref_counters


class TestPoisonInput:
    def test_strict_mode_corrupt_slice_raises_across_processes(
        self, small_stream, no_shm_leak, deadline
    ):
        from tests.mpeg2.test_resilience import corrupt_slice

        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        ex = TaskGraphExecutor(data, grain="gop", engine="batched", workers=2)
        with pytest.raises(Exception):
            ex.decode_all()
        assert_aborted_run_conserves(ex)
        assert_no_stray_children()

    def test_resilient_mode_conceals_identically(
        self, small_stream, no_shm_leak
    ):
        from tests.mpeg2.test_resilience import corrupt_slice

        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        ref_counters = WorkCounters()
        ref = SequenceDecoder(
            data, engine="scalar", resilient=True
        ).decode_all(ref_counters)
        assert ref_counters.concealed_slices >= 1
        counters = WorkCounters()
        frames = TaskGraphExecutor(
            data, grain="slice", workers=2, resilient=True
        ).decode_all(counters)
        assert [f.digest() for f in frames] == [f.digest() for f in ref]
        assert counters == ref_counters


class TestHungWorker:
    def test_serve_hang_reaped_through_unified_backend(
        self, golden, no_shm_leak, deadline
    ):
        # The serve scheduler's result wait and worker reaping now run
        # through repro.exec.backend (timed_queue_get / reap_processes);
        # a wedged worker must still be detected by the task timeout,
        # replaced, and leave no strays.  Task ``0`` is the first
        # picture, GOP 0's I picture.
        from repro.serve import DecodeService
        from repro.serve.session import SessionStatus

        data = golden.data("two_gop_48x32")
        svc = DecodeService(
            workers=2, capacity=2, task_timeout_s=2.0, max_task_retries=2,
            _hang_task=(0, "a", 0),
        )
        a = svc.submit("a", data)
        b = svc.submit("b", data)
        svc.run()
        assert a.status is SessionStatus.DONE
        assert b.status is SessionStatus.DONE
        assert_no_stray_children()


class TestHooksInert:
    def test_executor_default_has_no_injection(self, small_stream):
        ex = TaskGraphExecutor(small_stream, grain="gop", workers=1)
        assert ex.planner._crash_gop is None
        sl = TaskGraphExecutor(small_stream, grain="slice", workers=1)
        assert sl.planner._crash_task is None
        assert len(ex.decode_all()) > 0
