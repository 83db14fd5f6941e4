"""The GOP decoder streams: one GOP per task, a bounded frame window.

Two layers of evidence that ``MPGopDecoder`` hands over GOP 0 while
the rest of the stream is still to be decoded, from a frame pool whose
size does not depend on the stream's length:

* on real streams (a committed vector tiled to 8 and 16 GOPs) at
  ``workers`` 0 and 2 — one message per GOP, most of the plan still
  pending when the first GOP is in hand, same pool for both lengths;
* the window policy as pure logic — the real ``_claim`` / ``_done`` /
  ``_publish`` / ``_emit`` hooks and the real parent loop on a team
  with no processes, hypothesis choosing GOP sizes, worker count and
  which in-flight GOP finishes next.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.backend import GopResult
from repro.mpeg2.headers import PictureType, SequenceHeader
from repro.mpeg2.index import (
    GopIndex,
    PictureIndex,
    StreamIndex,
    build_index,
    sequence_prefix,
)
from repro.obs.metrics import metrics, reset_metrics
from repro.parallel.mp import MPGopDecoder

VECTOR = "two_gop_48x32"


def tile(data: bytes, times: int) -> bytes:
    """``data`` with its run of GOPs repeated ``times`` times."""
    index = build_index(data)
    start, end = index.gops[0].start_offset, index.gops[-1].end_offset
    return sequence_prefix(data, index) + data[start:end] * times + data[end:]


# ----------------------------------------------------------------------
# real streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_first_gop_arrives_while_the_plan_is_still_pending(golden, workers):
    data = tile(golden.data(VECTOR), 4)
    frames, _ = golden.scalar(VECTOR)
    reset_metrics()
    dec = MPGopDecoder(data, workers=workers)
    gops = len(dec.index.gops)
    assert gops == 8
    shown = []
    for gop, gop_frames in dec.iter_gops():
        if gop == 0:
            # Only what fits the window has been started; the rest of
            # the stream is still on the plan, not buffered in the pool.
            waiting = [n for n in dec.graph.pending() if n.kind != "publish"]
            assert len(waiting) >= gops - max(2 * workers, 1)
        shown.extend(gop_frames)
    assert [f.digest() for f in shown] == [f.digest() for f in frames] * 4
    snap = metrics().snapshot()
    assert snap["counters"]["mp.dispatch.messages"] == gops
    assert dec.last_graph.counts()["completed"] == 2 * gops


def test_pool_does_not_grow_with_the_stream(golden):
    sizes = []
    for times in (4, 8):
        dec = MPGopDecoder(tile(golden.data(VECTOR), times), workers=2)
        assert len(dec.decode_all()) == dec.index.picture_count
        sizes.append(dec.last_pool_bytes)
    longest = max(len(g.pictures) for g in dec.index.gops)
    assert sizes[0] == sizes[1] == 2 * 2 * longest * dec.layout.slot_bytes


# ----------------------------------------------------------------------
# the window policy as pure logic
# ----------------------------------------------------------------------
def synthetic_index(gop_sizes: list[int]) -> StreamIndex:
    picture = PictureIndex(PictureType.I, 0, 0, 0, False, 0, 0)
    return StreamIndex(
        SequenceHeader(16, 16),
        [GopIndex(True, False, 0, 0, [picture] * n) for n in gop_sizes],
        0,
    )


class FakePool:
    nbytes = 0

    def read_frame(self, slot: int, temporal_reference: int) -> int:
        return slot


class FakeTeam:
    """A team without processes: ``fetch`` finishes whichever in-flight
    GOP the test draws next, and ``submit`` audits the window."""

    def __init__(self, dec: MPGopDecoder, draw) -> None:
        self.dec, self.draw = dec, draw
        self.size = max(dec.workers, 1)
        self.window = max(2 * dec.workers, 1)
        self.busy: dict[int, tuple] = {}
        #: gop -> the pool slots it owns until the consumer has it.
        self.live: dict[int, set[int]] = {}
        self.submitted: list[int] = []

    def attach(self, sid, body, data, layout, slots, state):
        self.slots = slots
        return FakePool()

    def detach(self, sid) -> None:
        pass

    release = retire = lambda self: None

    def free(self, depth: int = 1) -> list[int]:
        return [w for w in range(self.size) if w not in self.busy]

    def in_flight(self, sid=None) -> int:
        return len(self.busy)

    def submit(self, wid, sid, key, task, fault=None) -> None:
        assert wid not in self.busy
        slots = set(range(task.slot_base, task.slot_base + task.picture_count))
        assert all(0 <= s < self.slots for s in slots)
        assert not any(slots & held for held in self.live.values())
        self.live[task.gop] = slots
        assert len(self.dec.held_runs) == len(self.live) <= self.window
        self.submitted.append(task.gop)
        self.busy[wid] = (sid, key, task)

    def fetch(self, stalls, on_timeout, **_names) -> tuple:
        wid = self.draw(st.sampled_from(sorted(self.busy)))
        sid, key, task = self.busy.pop(wid)
        result = GopResult(
            task.gop, task.slot_base, list(range(task.picture_count))
        )
        return "ok", wid, sid, key, result, None


@settings(max_examples=150, deadline=None)
@given(
    gop_sizes=st.lists(st.integers(min_value=0, max_value=6), max_size=12),
    workers=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_window_policy_streams_every_gop_in_order(gop_sizes, workers, data):
    dec = MPGopDecoder(b"", index=synthetic_index(gop_sizes), workers=workers)
    team = FakeTeam(dec, data.draw)
    emitted = []
    with mock.patch("repro.exec.dispatch.get_team", return_value=team):
        # A stalled policy — nothing in flight, nothing claimable, GOPs
        # left — ends the loop early and ``merger.finish`` raises.
        for gop, slots in dec.iter_gops():
            assert set(slots) == team.live.pop(gop)
            emitted.append(gop)
    assert emitted == team.submitted == list(range(len(gop_sizes)))
    assert team.slots == min(team.window, len(gop_sizes)) * max(
        gop_sizes, default=0
    )
    assert not dec.held_runs and not team.live
    assert metrics().gauge("mp.frame_pool.occupancy").value == 0
    dec.last_graph.verify_conservation()
