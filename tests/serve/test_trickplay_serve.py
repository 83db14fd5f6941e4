"""Serve-layer random access: mid-stream join and the ABR rung switch.

Two service-level behaviours ride on the closed-GOP entry guarantee:

* **Mid-stream join** — ``submit(..., start_gop=g)`` admits the
  session at the next closed GOP and decodes the tail of the stream
  (an index view on the one scan: same bytes, fewer GOPs).
  Every emitted picture must be bit-identical to the same picture of
  a full linear decode; the join is exact, not approximate.
* **Rung switch** — under sustained overload the degradation ladder's
  cheapest-first action hands the not-yet-started tail of the stream
  to a continuation session decoding a lower-resolution rung (an
  internal mid-stream join).  The switch must fire *before* drop-B,
  account for every picture (emitted + dropped + switched), and
  complete both sessions.

The injected slow clock makes overload deterministic, exactly like
the existing degradation tests.
"""

from __future__ import annotations

import pytest

from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.serve import DecodeService, DegradePolicy, SessionStatus
from repro.serve.degrade import ACTION_DROP_B, ACTION_SWITCH_RUNG, DegradeState
from repro.serve.rungs import build_rung_ladder, downscale_frame
from repro.serve.session import StreamSession
from repro.video.synthetic import SyntheticVideo
from tests.mpeg2.test_batched_parity import assert_frames_identical

#: Multi-GOP corpus vectors — single-GOP streams have no interior
#: join point to exercise.
JOIN_VECTORS = ("two_gop_48x32", "rc_64x48_gop4", "altscan_48x32_gop7")


def _slow_clock(step=1.0):
    t = [0.0]

    def clock():
        t[0] += step
        return t[0]

    return clock


@pytest.fixture(scope="module")
def abr_stream():
    """39 pictures in 3 closed 13-picture GOPs (rung-switch fodder)."""
    video = SyntheticVideo(width=48, height=32, seed=23).frames(39)
    return encode_sequence(video, EncoderConfig(gop_size=13, qscale_code=3))


class TestMidStreamJoin:
    @pytest.mark.parametrize("name", JOIN_VECTORS)
    def test_join_tail_bit_identical(self, golden, name):
        index = golden.index(name)
        for start_gop in range(1, len(index.gops)):
            base = index.gop_display_base(start_gop)
            ref_frames, _ = golden.scalar(name)
            got = {}
            svc = DecodeService(workers=0, capacity=1)
            sess = svc.submit(
                "j", golden.data(name), start_gop=start_gop,
                on_frame=lambda di, f: got.__setitem__(di, f),
            )
            svc.run()
            assert sess.status is SessionStatus.DONE
            assert sess.join_gop == start_gop
            assert sess.join_display_base == base
            assert sorted(got) == list(range(len(ref_frames) - base))
            assert_frames_identical(
                ref_frames[base:], [got[i] for i in sorted(got)]
            )

    def test_join_report_carries_source_coordinates(self, golden):
        svc = DecodeService(workers=0, capacity=1)
        sess = svc.submit("j", golden.data("two_gop_48x32"), start_gop=1)
        svc.run()
        doc = sess.report()
        assert doc["join_gop"] == 1
        assert doc["join_display_base"] == 4

    def test_join_arena_is_the_original_stream(self, golden):
        # A join copies nothing and scans nothing twice: the session
        # keeps the caller's bytes and a view of the caller's index.
        data = golden.data("rc_64x48_gop4")
        full_index = golden.index("rc_64x48_gop4")
        join = 1
        sess = StreamSession("j", data, start_gop=join, index=full_index)
        assert sess.data is data
        assert sess.index.gops[0] is full_index.gops[join]
        assert len(sess.index.gops) == len(full_index.gops) - join
        assert sess.join_gop == join
        assert sess.join_display_base == full_index.gop_display_base(join)
        # Pictures number from the join; their bytes are where the
        # full scan found them.
        first = full_index.gops[join].pictures[0].slices[0]
        assert sess.plans[0].order == 0
        assert sess.plans[0].slices[0].payload_start == first.payload_start
        # The same holds when the session scans for itself.
        own = StreamSession("k", data, start_gop=join)
        assert own.data is data
        assert own.plans == sess.plans

    def test_join_past_eof_contained(self, golden):
        # A bad join point is a scan failure: the session fails alone,
        # the service survives.
        svc = DecodeService(workers=0, capacity=1)
        sess = svc.submit("j", golden.data("two_gop_48x32"), start_gop=99)
        svc.run()
        assert sess.status is SessionStatus.FAILED
        assert sess.error["type"] == "StreamIndexError"

    def test_join_with_real_workers(self, golden, no_shm_leak, watchdog):
        name = "rc_64x48_gop4"
        index = golden.index(name)
        base = index.gop_display_base(1)
        ref_frames, _ = golden.scalar(name)
        got = {}
        svc = DecodeService(workers=2, capacity=1)
        sess = svc.submit(
            "j", golden.data(name), start_gop=1,
            on_frame=lambda di, f: got.__setitem__(di, f),
        )
        svc.run()
        assert sess.status is SessionStatus.DONE
        assert_frames_identical(
            ref_frames[base:], [got[i] for i in sorted(got)]
        )


class TestRungLadder:
    def test_ladder_preserves_gop_partition(self, abr_stream):
        from repro.mpeg2.index import build_index

        rungs = build_rung_ladder(abr_stream, levels=1)
        assert len(rungs) == 1
        rung = rungs[0]
        src = build_index(abr_stream)
        dst = build_index(rung.data)
        assert rung.width * 2 == src.sequence_header.width
        assert rung.height * 2 == src.sequence_header.height
        # GOP partitions must match rung-for-rung or the switch's
        # "hand over the tail from GOP g" arithmetic breaks.
        assert [len(g.pictures) for g in dst.gops] == [
            len(g.pictures) for g in src.gops
        ]
        assert rung.profile.pictures == src.picture_count

    def test_downscale_frame_box_filter(self, golden):
        frames, _ = golden.scalar("two_gop_48x32")
        small = downscale_frame(frames[0])
        assert small.display_width == frames[0].display_width // 2
        assert small.display_height == frames[0].display_height // 2

    def test_policy_validates_ordering(self):
        with pytest.raises(ValueError):
            DegradePolicy(drop_b_after=2, switch_rung_after=5)
        with pytest.raises(ValueError):
            DegradePolicy(switch_rung_after=0)

    def test_state_fires_switch_before_drop_b(self):
        state = DegradeState(
            DegradePolicy(drop_b_after=3, switch_rung_after=2)
        )
        actions = [state.on_emit(late=True) for _ in range(8)]
        fired = [a for a in actions if a]
        assert fired[0] == ACTION_SWITCH_RUNG
        assert ACTION_DROP_B in fired
        assert fired.index(ACTION_SWITCH_RUNG) < fired.index(ACTION_DROP_B)
        # The switch is once-per-session: never fired twice.
        assert fired.count(ACTION_SWITCH_RUNG) == 1
        snap = state.snapshot()
        assert snap["switch_rung_actions"] == 1
        assert snap["actions"][0] == ACTION_SWITCH_RUNG


class TestRungSwitchEndToEnd:
    def test_switch_fires_before_drop_b_and_accounts_pictures(
        self, abr_stream, no_shm_leak, watchdog
    ):
        rungs = [r.data for r in build_rung_ladder(abr_stream, levels=1)]
        policy = DegradePolicy(
            drop_b_after=3, skip_gop_after=6, recover_after=8,
            switch_rung_after=2,
        )
        # In process, then on real workers with a mid-stream join
        # sharing the pool and the overload.
        for workers, join_gop in ((0, None), (2, 1)):
            svc = DecodeService(
                workers=workers, capacity=4, fps=30.0, policy=policy,
                clock=_slow_clock(),
            )
            sess = svc.submit("abr", abr_stream, rungs=rungs)
            if join_gop is not None:
                join = svc.submit("join", abr_stream, start_gop=join_gop)
            svc.run()
            cont = svc.sessions.get(sess.continuation)
            assert sess.status is SessionStatus.DONE
            assert cont is not None and cont.status is SessionStatus.DONE
            if join_gop is not None:
                assert join.status is SessionStatus.DONE
                assert join.join_gop == join_gop
            # Ordering: the rung switch is the *first* degrade action —
            # cheaper than shedding pictures, so it must precede drop-B.
            actions = sess.degrade.snapshot()["actions"]
            assert actions[0] == ACTION_SWITCH_RUNG
            # Conservation: every source picture is emitted here, shed
            # here, or handed to the continuation — and the continuation
            # decodes exactly the handed-over tail.
            assert (
                sess.emitted_pictures
                + sess.dropped_pictures
                + sess.switched_pictures
                == sess.picture_count
            )
            assert cont.picture_count == sess.switched_pictures
            assert cont.rung_level == 1
            assert cont.join_gop >= 1
            doc = sess.report()
            assert doc["continuation"] == cont.name
            assert doc["switched_pictures"] == sess.switched_pictures

    def test_no_switch_without_rungs(self, abr_stream):
        # Same overload, no ladder: the policy level is configured but
        # the session has nothing to switch to — drop-B fires instead
        # and the run still completes.
        policy = DegradePolicy(
            drop_b_after=3, skip_gop_after=6, recover_after=8,
            switch_rung_after=2,
        )
        svc = DecodeService(
            workers=0, capacity=1, fps=30.0, policy=policy,
            clock=_slow_clock(),
        )
        sess = svc.submit("abr", abr_stream)
        svc.run()
        assert sess.status is SessionStatus.DONE
        assert sess.continuation is None
        assert sess.switched_pictures == 0
        assert sess.emitted_pictures + sess.dropped_pictures == (
            sess.picture_count
        )
