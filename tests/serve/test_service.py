"""DecodeService integration: parity, admission, degradation, faults.

The serve layer must be a *transparent* multiplexer: a session decoded
through the service produces the same pixels and work counters as the
sequential scalar oracle, in display order, whatever else is sharing
the pool.  On top of that transparency these tests pin the service's
own behaviours — admission control, weighted fairness end to end,
deadline-driven degradation (with an injected clock, so overload is
deterministic), per-task crash/hang recovery, and the containment
guarantee that a poisoned stream fails alone.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.exec.backend import LocalTeam
from repro.exec.graph import DISPATCHED
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.serve import DecodeService, DegradePolicy, SessionStatus
from repro.video.synthetic import SyntheticVideo
from tests.mpeg2.test_batched_parity import assert_frames_identical
from tests.mpeg2.test_gop_batching import _corrupt
from tests.parallel.test_mp_fault_injection import assert_no_stray_children


def collect_frames(svc: DecodeService, names):
    """Attach per-session sinks; returns name -> {display_index: frame}."""
    got: dict[str, dict[int, object]] = {n: {} for n in names}

    def sink_for(n):
        def sink(display_index, frame):
            assert display_index not in got[n], "display index emitted twice"
            got[n][display_index] = frame
        return sink

    return got, {n: sink_for(n) for n in names}


def assert_session_parity(golden, name, sess, frames_by_index):
    ref_frames, ref_counters = golden.scalar(name.split("#")[0])
    assert sess.status is SessionStatus.DONE
    assert sess.counters == ref_counters
    emitted = [frames_by_index[i] for i in sorted(frames_by_index)]
    assert sorted(frames_by_index) == list(range(len(ref_frames)))
    assert_frames_identical(ref_frames, emitted)


@pytest.fixture(scope="module")
def many_gop_stream():
    """24 pictures in 6 closed 4-picture GOPs (degradation fodder)."""
    video = SyntheticVideo(width=48, height=32, seed=19).frames(24)
    return encode_sequence(video, EncoderConfig(gop_size=4, qscale_code=3))


class TestParityInProcess:
    """workers=0: the full corpus through the service, bit for bit."""

    def test_every_golden_vector_matches_scalar(self, golden, no_shm_leak):
        names = golden.names
        svc = DecodeService(workers=0, capacity=len(names))
        got, sinks = collect_frames(svc, names)
        for name in names:
            svc.submit(name, golden.data(name), on_frame=sinks[name])
        report = svc.run()
        assert report["status_counts"] == {"done": len(names)}
        for name in names:
            assert_session_parity(golden, name, svc.sessions[name], got[name])

    def test_negative_corpus_matches_scalar(self, golden):
        # The committed malformed vectors, all in one service run: the
        # decodable ones must reproduce the oracle's decree exactly
        # like the mp paths, and the rejected ones (promoted fuzz
        # mutants) must fail *contained* — their sessions end FAILED
        # with the pinned error class while every other session in the
        # same pool still completes bit-exact.
        names = sorted(golden.negative)
        svc = DecodeService(workers=0, capacity=len(names))
        got, sinks = collect_frames(svc, names)
        for name in names:
            svc.submit(name, golden.data(name), on_frame=sinks[name])
        svc.run()
        for name in names:
            sess = svc.sessions[name]
            entry = golden.negative[name]
            if "error" in entry:
                assert sess.status is SessionStatus.FAILED
                assert sess.error is not None
                assert sess.error["type"] == entry["error"]
            else:
                assert sess.status is SessionStatus.DONE
                digests = [got[name][i].digest() for i in sorted(got[name])]
                assert digests == entry["frame_digests"]

    def test_weighted_sessions_all_complete(self, golden):
        svc = DecodeService(workers=0, capacity=3)
        name = "two_gop_48x32"
        for i, w in enumerate((0.5, 1.0, 4.0)):
            svc.submit(f"s{i}", golden.data(name), weight=w)
        report = svc.run()
        assert report["status_counts"] == {"done": 3}
        # WFQ: the heavy session's virtual time never exceeds a light
        # session's by more than one task's work at the end.
        assert svc.scheduler.vtime("s2") <= svc.scheduler.vtime("s0") + 8


    def test_auto_grain_is_one_coarse_task_per_gop(self, golden):
        # ``auto`` is GOP grain: one ("ref", gop) task carrying every
        # picture of its GOP, no B tasks, oracle-identical frames.
        names = ["ipb_64x48_gop13", "two_gop_48x32", "rc_64x48_gop4"]
        svc = DecodeService(workers=0, capacity=len(names), grain="auto")
        got, sinks = collect_frames(svc, names)
        for name in names:
            sess = svc.submit(name, golden.data(name), on_frame=sinks[name])
            graph = svc.scheduler.graphs()[-1]
            assert list(graph.nodes) == [
                ("ref", g) for g in range(len(sess.index.gops))
            ]
        report = svc.run()
        assert report["status_counts"] == {"done": len(names)}
        for name in names:
            assert_session_parity(golden, name, svc.sessions[name], got[name])


class TestParityWorkers:
    """Real processes: same transparency, plus cleanup postconditions."""

    def test_three_sessions_two_workers(self, golden, no_shm_leak, watchdog):
        names = ["ipb_64x48_gop13", "two_gop_48x32", "altscan_48x32_gop7"]
        svc = DecodeService(workers=2, capacity=len(names))
        got, sinks = collect_frames(svc, names)
        for name in names:
            svc.submit(name, golden.data(name), on_frame=sinks[name])
        report = svc.run()
        assert report["status_counts"] == {"done": len(names)}
        for name in names:
            assert_session_parity(golden, name, svc.sessions[name], got[name])
        assert report["pool_bytes"] > 0
        assert_no_stray_children()

    def test_duplicate_stream_sessions(self, golden, no_shm_leak, watchdog):
        # The same bytes submitted twice are two independent sessions.
        name = "two_gop_48x32"
        svc = DecodeService(workers=2, capacity=2)
        got, sinks = collect_frames(svc, [f"{name}#1", f"{name}#2"])
        for sid in got:
            svc.submit(sid, golden.data(name), on_frame=sinks[sid])
        svc.run()
        for sid in got:
            assert_session_parity(golden, name, svc.sessions[sid], got[sid])
        assert_no_stray_children()


class TestAdmission:
    def test_capacity_queue_reject(self, golden):
        svc = DecodeService(workers=0, capacity=1, max_queue=1)
        data = golden.data("two_gop_48x32")
        a = svc.submit("a", data)
        b = svc.submit("b", data)
        c = svc.submit("c", data)
        assert a.status is SessionStatus.ACTIVE
        assert b.status is SessionStatus.QUEUED
        assert c.status is SessionStatus.REJECTED
        report = svc.run()
        # The queued session is promoted into the freed slot and
        # completes; the rejected one never decodes a picture.
        assert a.status is SessionStatus.DONE
        assert b.status is SessionStatus.DONE
        assert c.status is SessionStatus.REJECTED
        assert c.emitted_pictures == 0
        assert report["status_counts"] == {"done": 2, "rejected": 1}

    def test_admission_wait_recorded(self, golden):
        svc = DecodeService(workers=0, capacity=1, max_queue=2)
        data = golden.data("intra_16x16_gop1")
        for sid in ("a", "b", "c"):
            svc.submit(sid, data)
        svc.run()
        from repro.obs.stalls import REASON_ADMISSION

        by_reason = svc.last_stalls.by_reason()
        assert REASON_ADMISSION in by_reason

    def test_estimate_capacity_fallbacks(self, tmp_path):
        from repro.serve import estimate_capacity

        # No pacing: bounded by worker slots.
        assert estimate_capacity(4, None) == 4
        assert estimate_capacity(0, None) == 1
        # Unreadable benchmark: same fallback.
        assert estimate_capacity(4, 30.0, str(tmp_path / "nope.json")) == 4
        # A readable benchmark drives the estimate.
        import json

        bench = {
            "headline": "h",
            "streams": {"h": {"sequential_pictures_per_sec": 300.0}},
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(bench))
        # 2 workers * 300 p/s * 0.7 safety / 30 fps = 14 sessions.
        assert estimate_capacity(2, 30.0, str(path)) == 14


class TestDegradation:
    """Deadline misses shed B tasks, then GOPs — deterministically.

    The injected clock advances a full second per reading, so with any
    real fps every picture is hopelessly late: the degradation ladder
    must climb.  Workers=0 keeps scheduling deterministic.
    """

    @staticmethod
    def _slow_clock(step=1.0):
        t = [0.0]

        def clock():
            t[0] += step
            return t[0]

        return clock

    def test_drop_b_sheds_only_b_pictures(self, golden):
        name = "ipb_64x48_gop13"
        svc = DecodeService(
            workers=0, capacity=1, fps=30.0, clock=self._slow_clock()
        )
        dropped_indices = []
        def sink(display_index, frame):
            if frame is None:
                dropped_indices.append(display_index)
        sess = svc.submit(name, golden.data(name), on_frame=sink)
        svc.run()
        assert sess.status is SessionStatus.DONE
        assert sess.degrade.max_level >= 1
        assert sess.dropped_pictures > 0
        assert sess.emitted_pictures + sess.dropped_pictures == (
            sess.picture_count
        )
        # Every shed picture must be a non-reference B picture.
        by_display = {p.display_index: p for p in sess.plans}
        for di in dropped_indices:
            assert not by_display[di].is_reference

    def test_skip_gop_under_sustained_overload(self, many_gop_stream):
        policy = DegradePolicy(
            drop_b_after=1, skip_gop_after=2, recover_after=100
        )
        svc = DecodeService(
            workers=0, capacity=1, fps=30.0, policy=policy,
            clock=self._slow_clock(),
        )
        sess = svc.submit("s", many_gop_stream)
        svc.run()
        assert sess.status is SessionStatus.DONE
        assert sess.degrade.max_level == 2
        assert sess.skipped_gops >= 1
        assert sess.emitted_pictures + sess.dropped_pictures == (
            sess.picture_count
        )

    def test_no_degradation_when_on_time(self, golden):
        # Default clock, tiny stream: nothing should be shed.
        name = "two_gop_48x32"
        svc = DecodeService(workers=0, capacity=1, fps=5.0, preroll_pictures=8)
        sess = svc.submit(name, golden.data(name))
        svc.run()
        assert sess.dropped_pictures == 0
        assert sess.degrade.max_level == 0

    def test_degrade_stall_reasons_recorded(self, golden):
        from repro.obs.stalls import REASON_DEGRADE_DROP_B

        name = "ipb_64x48_gop13"
        svc = DecodeService(
            workers=0, capacity=1, fps=30.0, clock=self._slow_clock()
        )
        svc.submit(name, golden.data(name))
        svc.run()
        assert REASON_DEGRADE_DROP_B in svc.last_stalls.by_reason()

    def test_unpaced_service_never_degrades(self, golden):
        name = "ipb_64x48_gop13"
        svc = DecodeService(workers=0, capacity=1, fps=None)
        sess = svc.submit(name, golden.data(name))
        svc.run()
        assert sess.dropped_pictures == 0
        assert not sess.pacer.enabled


class TestRobustness:
    def test_crash_retried_on_replacement_worker(
        self, golden, no_shm_leak, watchdog
    ):
        data = golden.data("two_gop_48x32")
        svc = DecodeService(
            workers=2, capacity=2, max_task_retries=2,
            _crash_task=(0, "a", ("ref", 0)),
        )
        a = svc.submit("a", data)
        b = svc.submit("b", data)
        svc.run()
        assert a.status is SessionStatus.DONE
        assert b.status is SessionStatus.DONE
        assert svc.excluded[("a", ("ref", 0))] == {0}
        assert_no_stray_children()

    def test_hang_reaped_by_task_timeout(self, golden, no_shm_leak, watchdog):
        data = golden.data("two_gop_48x32")
        svc = DecodeService(
            workers=2, capacity=2, task_timeout_s=2.0, max_task_retries=2,
            _hang_task=(0, "a", ("ref", 0)),
        )
        a = svc.submit("a", data)
        b = svc.submit("b", data)
        svc.run()
        assert a.status is SessionStatus.DONE
        assert b.status is SessionStatus.DONE
        assert_no_stray_children()

    def test_retry_budget_exhaustion_fails_only_that_session(
        self, golden, no_shm_leak, watchdog
    ):
        data = golden.data("two_gop_48x32")
        svc = DecodeService(
            workers=1, capacity=2, max_task_retries=0,
            _crash_task=(0, "a", ("ref", 0)),
        )
        a = svc.submit("a", data)
        b = svc.submit("b", data)
        svc.run()
        assert a.status is SessionStatus.FAILED
        assert "retry budget" in a.error["message"]
        assert b.status is SessionStatus.DONE
        assert_no_stray_children()

    def test_scan_poison_contained(self, golden, no_shm_leak):
        svc = DecodeService(workers=0, capacity=2)
        bad = svc.submit("bad", b"\x00\x00\x01\xb3not mpeg")
        good = svc.submit("good", golden.data("two_gop_48x32"))
        assert bad.status is SessionStatus.FAILED
        report = svc.run()
        assert good.status is SessionStatus.DONE
        assert report["status_counts"] == {"done": 1, "failed": 1}
        assert bad.error["type"]

    def test_worker_side_decode_error_contained(
        self, golden, no_shm_leak, watchdog
    ):
        # Slice-level corruption that survives the scan but fails in a
        # worker mid-decode: its session fails, the neighbour finishes.
        good = golden.data("two_gop_48x32")
        bad = bytearray(good)
        idx = good.find(b"\x00\x00\x01\x01", 200)
        bad[idx + 8:idx + 12] = b"\xff\xff\xff\xff"
        svc = DecodeService(workers=2, capacity=2)
        sb = svc.submit("bad", bytes(bad))
        sg = svc.submit("good", good)
        svc.run()
        assert sb.status is SessionStatus.FAILED
        assert sg.status is SessionStatus.DONE
        assert_no_stray_children()

    def test_resilient_session_conceals_instead(self, golden):
        good = golden.data("two_gop_48x32")
        bad = bytearray(good)
        idx = good.find(b"\x00\x00\x01\x01", 200)
        bad[idx + 8:idx + 12] = b"\xff\xff\xff\xff"
        from repro.mpeg2.counters import WorkCounters
        from repro.mpeg2.decoder import SequenceDecoder

        ref_counters = WorkCounters()
        SequenceDecoder(bytes(bad), resilient=True).decode_all(ref_counters)
        svc = DecodeService(workers=0, capacity=1, resilient=True)
        sess = svc.submit("r", bytes(bad))
        svc.run()
        assert sess.status is SessionStatus.DONE
        assert sess.counters == ref_counters
        assert sess.counters.concealed_slices >= 1


class TestServiceApi:
    def test_run_once_only(self, golden):
        svc = DecodeService(workers=0, capacity=1)
        svc.submit("a", golden.data("intra_16x16_gop1"))
        svc.run()
        with pytest.raises(RuntimeError, match="once"):
            svc.run()
        with pytest.raises(RuntimeError, match="after run"):
            svc.submit("b", golden.data("intra_16x16_gop1"))

    def test_duplicate_name_rejected(self, golden):
        svc = DecodeService(workers=0, capacity=2)
        svc.submit("a", golden.data("intra_16x16_gop1"))
        with pytest.raises(ValueError, match="duplicate"):
            svc.submit("a", golden.data("intra_16x16_gop1"))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DecodeService(workers=-1)
        with pytest.raises(ValueError):
            DecodeService(task_timeout_s=0)
        with pytest.raises(ValueError):
            DecodeService(max_task_retries=-1)

    def test_report_shape(self, golden):
        svc = DecodeService(workers=0, capacity=1, fps=1000.0)
        svc.submit("a", golden.data("two_gop_48x32"))
        report = svc.run()
        assert set(report) >= {
            "workers", "capacity", "sessions", "status_counts",
            "deadline", "stalls", "wall_seconds",
        }
        sess = svc.sessions["a"]
        # At 1000 fps real-clock misses may shed pictures; accounting
        # must still close: every picture emitted or deliberately shed.
        assert report["deadline"]["emitted"] == sess.emitted_pictures
        assert sess.emitted_pictures + sess.dropped_pictures == 8
        assert 0.0 <= report["deadline"]["miss_fraction"] <= 1.0

    def test_serve_streams_convenience(self, golden):
        from repro.serve.service import serve_streams

        report = serve_streams(
            [("a", golden.data("intra_16x16_gop1"))], workers=0, capacity=1
        )
        assert report["status_counts"] == {"done": 1}

    def test_no_multiprocessing_children_after_inprocess(self, golden):
        # Healthy persistent GOP-pool workers (possibly forked by other
        # suites in the same process) are exempt: they outlive runs by
        # design.  An in-process serve must add nothing beyond them.
        from repro.parallel.mp import persistent_worker_pids

        svc = DecodeService(workers=0, capacity=1)
        svc.submit("a", golden.data("intra_16x16_gop1"))
        svc.run()
        strays = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in persistent_worker_pids()
        ]
        assert strays == []


class TestHandOver:
    """A serve task posts each picture as it lands in the pool: the
    parent shows it while the task still runs, and banks each picture
    exactly once whatever the order of parts, results and retries."""

    NAME = "ipb_64x48_gop13"  # one GOP: ref task I0 P3 P6 P9 P12

    @pytest.mark.parametrize("workers", [0, 2])
    def test_first_picture_shown_while_its_ref_task_runs(
        self, golden, workers, no_shm_leak, watchdog
    ):
        name = self.NAME
        svc = DecodeService(workers=workers, capacity=1)
        got, sinks = collect_frames(svc, [name])
        ref_state = {}

        def sink(display_index, frame):
            (graph,) = svc.scheduler.graphs()
            ref_state.setdefault(display_index, graph.state[("ref", 0)])
            sinks[name](display_index, frame)

        sess = svc.submit(name, golden.data(name), on_frame=sink)
        svc.run()
        assert ref_state[0] == DISPATCHED
        assert_session_parity(golden, name, sess, got[name])
        assert_no_stray_children()

    def test_each_picture_banked_once(self, golden):
        # Process-less: every part is delivered twice (as a retried
        # task would post it again), then the task's ok.
        name = self.NAME
        svc = DecodeService(workers=0, capacity=1)
        got, sinks = collect_frames(svc, [name])
        sess = svc.submit(name, golden.data(name), on_frame=sinks[name])
        team = svc.team = LocalTeam()
        svc._attach(name)
        parts = 0
        while (task := svc.scheduler.next_task()) is not None:
            team.submit(0, name, task.key, task.orders)
            while team.results:
                kind, _wid, sid, key, payload, _snap = team.fetch()
                if kind == "ok":
                    svc._done(sid, key, payload)
                else:
                    parts += 1
                    svc._part(sid, key, payload)
                    svc._part(sid, key, payload)
        assert parts == 4
        assert_session_parity(golden, name, sess, got[name])
        assert sess.emitted_pictures + sess.dropped_pictures + (
            sess.switched_pictures
        ) == sess.picture_count

    def test_requeued_gop_is_never_shed(self, many_gop_stream):
        # A ref task that posted pictures and then lost its worker is
        # pending again, but its GOP may already be on screen: neither
        # a rung switch nor skip_gop may cut it away.
        svc = DecodeService(workers=0, capacity=1)
        svc.submit("s", many_gop_stream)
        sched = svc.scheduler
        task = sched.next_task()
        assert task.key == ("ref", 0)
        sched.requeue(task)
        cut, dropped = sched.truncate_from_gop("s")
        assert cut == 1 and min(t.gop for t in dropped) == 1
        sched.restore("s", dropped)
        assert {t.gop for t in sched.skip_next_gop("s")} == {1}

    def test_strict_corrupt_reference_fails_after_ready_pictures(
        self, golden, no_shm_leak, watchdog
    ):
        # P6 (coding position 4) is corrupt: the ref task posts I0 and
        # P3, then raises.  Only display 0 was display-ready (P3 waits
        # for B1 and B2, which wait for the whole ref task).
        name = self.NAME
        good = golden.data(name)
        svc = DecodeService(workers=2, capacity=2)
        got, sinks = collect_frames(svc, ["bad", "good"])
        bad = svc.submit("bad", _corrupt(good, 4, 4, b"\xaa"), on_frame=sinks["bad"])
        ok = svc.submit("good", good, on_frame=sinks["good"])
        svc.run()
        assert bad.status is SessionStatus.FAILED
        assert bad.error["type"] == "BlockSyntaxError"
        ref_frames, _ = golden.scalar(name)
        assert sorted(got["bad"]) == [0]
        assert_frames_identical(ref_frames[:1], [got["bad"][0]])
        assert_session_parity(golden, name, ok, got["good"])
        for graph in svc.scheduler.graphs():
            graph.verify_conservation()
        assert_no_stray_children()

    def test_cancel_between_part_and_ok_drops_the_rest(self, golden):
        # workers=0: the ref task ran whole at submit, its parts and ok
        # wait in the team; the sink cancels on the first picture, and
        # the loop applies it before it reads the next part.
        name = self.NAME
        svc = DecodeService(workers=0, capacity=1)
        got, sinks = collect_frames(svc, [name])

        def sink(display_index, frame):
            sinks[name](display_index, frame)
            svc.request_cancel(name)

        sess = svc.submit(name, golden.data(name), on_frame=sink)
        svc.run()
        assert sess.status is SessionStatus.CANCELLED
        assert sorted(got[name]) == [0] and sess.emitted_pictures == 1
        ref_frames, _ = golden.scalar(name)
        assert_frames_identical(ref_frames[:1], [got[name][0]])
        (graph,) = svc.scheduler.graphs()
        graph.verify_conservation()
        assert graph.counts()["lost"] == 1  # the ref task, mid-flight
        assert graph.counts()["completed"] == 0
