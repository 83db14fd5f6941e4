"""The GOP decoder streams: one GOP per task, a bounded frame window.

Two layers of evidence that ``MPGopDecoder`` hands over GOP 0 picture
by picture while the rest of the stream is still to be decoded, from a
frame pool whose size does not depend on the stream's length:

* on real streams (a committed vector tiled to 8 and 16 GOPs) at
  ``workers`` 0 and 2 — one message dispatches each GOP, the first run
  handed over is GOP 0's first picture alone while GOP 0's task is
  still running, most of the stream not even scanned then, the same
  GOPs indexed and bytes published before it at 2 GOPs as at 16, same
  pool for both lengths;
* the window policy as pure logic — the real ``_claim`` / ``_part`` /
  ``_done`` / ``_publish`` / ``_emit`` hooks and the real parent loop
  on a team with no processes, hypothesis choosing GOP sizes, worker
  count, which in-flight GOP reports next and how much of it it posts
  as parts before its result.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.backend import GopResult, LocalTeam, WorkerTeam
from repro.exec.graph import DISPATCHED
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
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

from tests.mpeg2.test_golden_vectors import CORPUS, load_vector
from tests.mpeg2.test_resilience import corrupt_slice
from tests.parallel.test_mp_slice_start import spy_start

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
        if not shown:
            # GOP 0's first picture, handed over on its own while the
            # task that decodes GOP 0 is still running.
            assert (gop, len(gop_frames)) == (0, 1)
            if workers == 0:
                assert dec.graph.state["g0.decode"] == DISPATCHED
        if gop == 0:
            # Only what fits the window has been scanned and planned;
            # the rest of the stream is not even indexed yet.
            assert dec.gops_scanned <= max(2 * workers, 1) < gops
            assert dec.graph.planned == 2 * dec.gops_scanned
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


@pytest.mark.parametrize("workers", [0, 2])
def test_work_before_first_picture_is_flat_in_stream_length(
    workers, monkeypatch, no_shm_leak
):
    # Counted when the parent first waits for a result, with every
    # worker started: which task reports first is up to the workers,
    # and a worker that finished GOP 1 before GOP 0's first picture
    # landed would start GOP 2.
    clip = load_vector("ipb_64x48_gop13")
    seen = spy_start(monkeypatch)
    waited: list[tuple] = []
    for team in (LocalTeam, WorkerTeam):

        def fetch(self, *args, _f=team.fetch, **kwargs):
            if not waited:
                waited.append((len(seen["indexed"]), sum(seen["published"])))
            return _f(self, *args, **kwargs)

        monkeypatch.setattr(team, "fetch", fetch)
    costs = []
    for times in (2, 16):
        data = tile(clip, times)
        for record in (*seen.values(), waited):
            record.clear()
        dec = MPGopDecoder(data, workers=workers)
        runs = dec.iter_gops()
        gop, first = next(runs)
        assert (gop, len(first)) == (0, 1)
        assert len(seen["indexed"]) <= max(2 * workers, 1)
        costs.append(waited[0])
        frames = [*first, *(f for _, run in runs for f in run)]
        want = CORPUS["ipb_64x48_gop13"]["frame_digests"] * times
        assert [f.digest() for f in frames] == want
    # One GOP per worker dispatched, each indexed and published once.
    (gop,) = build_index(clip).gops
    started = max(workers, 1)
    assert costs[0] == costs[1] == (started, started * gop.wire_bytes)


def _drop_slice(data: bytes, gop: int, pic: int, sl: int) -> bytes:
    """``data`` without one slice (start code and payload): lost."""
    s = build_index(data).gops[gop].pictures[pic].slices[sl]
    return data[: s.payload_start - 4] + data[s.payload_end :]


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("case", ["hole", "lossy"])
def test_gop_tasks_decode_into_reused_slots(
    golden, no_shm_leak, case, workers, engine
):
    # Six GOPs on at most 2 x 2 runs: the last GOPs decode in place into
    # slots an earlier GOP's pictures filled.  A row no slice covers
    # must read as Frame.blank's zeros there (non-resilient), and the
    # conceal sweep must see the same neighbours and references
    # (resilient) as the sequential decoder.
    data = tile(golden.data(VECTOR), 3)
    if case == "hole":
        # GOP 5's B1 (coding position 2) loses its second row.
        data = _drop_slice(data, 5, 2, 1)
    else:
        data = corrupt_slice(data, gop=4, pic=1, sl=0)
        data = _drop_slice(_drop_slice(data, 5, 2, 0), 5, 0, 1)
    resilient = case == "lossy"
    want = WorkCounters()
    ref = SequenceDecoder(
        data, engine="scalar", resilient=resilient
    ).decode_all(want)
    if case == "hole":
        blank = ref[-3]
        assert not (blank.y[16:32].any() or blank.cb[8:16].any()
                    or blank.cr[8:16].any())
    else:
        assert want.concealed_slices == 3

    got = WorkCounters()
    dec = MPGopDecoder(
        data, workers=workers, engine=engine, resilient=resilient
    )
    frames = dec.decode_all(got)
    assert len(dec.index.gops) == 6 > max(2 * workers, 1)
    assert [f.digest() for f in frames] == [f.digest() for f in ref]
    assert got == want


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
    """A team without processes: ``fetch`` reports for whichever
    in-flight GOP the test draws next — a one-frame part while it has
    frames left to post, or its result with every frame not yet
    posted — and ``submit`` audits the window."""

    def __init__(self, dec: MPGopDecoder, draw) -> None:
        self.dec, self.draw = dec, draw
        self.size = max(dec.workers, 1)
        self.window = max(2 * dec.workers, 1)
        #: wid -> [sid, key, task, frames posted so far].
        self.busy: dict[int, list] = {}
        #: gop -> the pool slots it owns until the consumer has it.
        self.live: dict[int, set[int]] = {}
        self.submitted: list[int] = []
        #: GOPs whose result has been fetched.
        self.finished: set[int] = set()
        #: Pool slots of each run's attach.
        self.attaches: list[int] = []

    def attach(self, sid, body, data, layout, slots, state):
        # A new run starts once every GOP of the last one is handed over.
        assert not self.busy and not self.live
        self.slots = slots
        self.attaches.append(slots)
        return FakePool()

    def publish(self, sid, start, end) -> None:
        pass

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
        self.busy[wid] = [sid, key, task, 0]

    def fetch(self, stalls, on_timeout, **_names) -> tuple:
        wid = self.draw(st.sampled_from(sorted(self.busy)))
        sid, key, task, posted = self.busy[wid]
        slot = task.slot_base + posted
        if posted < task.picture_count and self.draw(st.booleans()):
            self.busy[wid][3] += 1
            return "part", wid, sid, key, GopResult(task.gop, slot, [0]), None
        del self.busy[wid]
        self.finished.add(task.gop)
        rest = [0] * (task.picture_count - posted)
        return "ok", wid, sid, key, GopResult(task.gop, slot, rest), None


@settings(max_examples=150, deadline=None)
@given(
    gop_sizes=st.lists(st.integers(min_value=0, max_value=6), max_size=12),
    workers=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_window_policy_streams_every_gop_in_order(gop_sizes, workers, data):
    dec = MPGopDecoder(b"", index=synthetic_index(gop_sizes), workers=workers)
    team = FakeTeam(dec, data.draw)
    got: dict[int, list[int]] = {}
    with mock.patch("repro.exec.dispatch.get_team", return_value=team):
        # A stalled policy — nothing in flight, nothing claimable, GOPs
        # left — ends the loop early and ``merger.finish`` raises.
        for gop, slots in dec.iter_gops():
            # Every earlier GOP was handed over whole before this run.
            assert all(g in got and g not in team.live for g in range(gop))
            assert set(slots) <= team.live[gop]
            got.setdefault(gop, []).extend(slots)
            assert len(dec.held_runs) <= team.window
            if gop not in dec.held_runs:
                # Its run went back to the window with this run: the
                # GOP's result is in, and all of its frames are out, in
                # slot order.
                assert gop in team.finished
                assert got[gop] == sorted(team.live.pop(gop))
    assert list(got) == team.submitted == list(range(len(gop_sizes)))
    # Each run's window is sized from its first GOP; a longer GOP ends
    # the run and starts the next.
    firsts: list[int] = []
    for size in gop_sizes:
        if not firsts or size > firsts[-1]:
            firsts.append(size)
    assert team.attaches == [team.window * size for size in firsts]
    assert len(dec.last_graphs) == len(firsts)
    assert not team.live and not getattr(dec, "held_runs", None)
    assert metrics().gauge("mp.frame_pool.occupancy").value == 0
    for graph in dec.last_graphs:
        graph.verify_conservation()
