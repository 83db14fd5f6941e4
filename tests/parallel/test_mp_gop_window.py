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
* the window policy as pure logic — the real ``_claim`` / ``_done`` /
  ``_publish`` / ``_emit`` hooks, the real parent loop and the one
  :class:`~repro.exec.window.FrameWindow` on a team with no processes,
  hypothesis choosing GOP sizes, worker count and which in-flight GOP
  answers its next picture.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.backend import LocalTeam, WorkerTeam
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
    per = len(dec.index.gops[0].pictures)
    for gop, gop_frames in dec.iter_gops():
        if not shown:
            # GOP 0's first picture, handed over on its own while the
            # task that decodes GOP 0 is still running: the rest of its
            # pictures are still in flight.
            assert (gop, len(gop_frames)) == (0, 1)
            gop0 = [t for t, n in dec.graph.nodes.items() if n.gop == 0]
            assert DISPATCHED in {dec.graph.state[t] for t in gop0}
        if gop == 0:
            # Only what fits the window has been scanned and planned;
            # the rest of the stream is not even indexed yet.
            assert dec.gops_scanned <= max(2 * workers, 1) < gops
            assert dec.graph.planned == per * dec.gops_scanned
        shown.extend(gop_frames)
    assert [f.digest() for f in shown] == [f.digest() for f in frames] * 4
    snap = metrics().snapshot()
    # One message per GOP; one graph node per picture.
    assert snap["counters"]["mp.dispatch.messages"] == gops
    assert dec.last_graph.counts()["completed"] == per * gops


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
def synthetic_gop(size: int) -> list[PictureIndex]:
    """``size`` pictures in coding order — ``I0 P3 B1 B2 P6 B4 B5 ...``,
    the last P closing the GOP early if need be — with no bytes."""
    coding = [(PictureType.I, 0)] if size else []
    shown = 1
    while shown < size:
        p = min(shown + 2, size - 1)
        coding += [(PictureType.P, p)]
        coding += [(PictureType.B, b) for b in range(shown, p)]
        shown = p + 1
    return [PictureIndex(t, tr, 0, 0, False, 0, 0) for t, tr in coding]


def synthetic_index(gop_sizes: list[int]) -> StreamIndex:
    return StreamIndex(
        SequenceHeader(16, 16),
        [GopIndex(True, False, 0, 0, synthetic_gop(n)) for n in gop_sizes],
        0,
    )


class FakePool:
    nbytes = 0

    def read_frame(self, slot: int, temporal_reference: int) -> int:
        return slot


class FakeTeam:
    """A team without processes: ``fetch`` answers the next picture of
    whichever in-flight GOP the test draws — in display order, as a
    worker's decode lands them — and ``submit`` audits the window.
    With ``lose_after`` the drawn worker dies instead of sending that
    answer (counted over the whole run), and the decoder's liveness
    poll is told, as a real team's ``fetch`` would."""

    def __init__(self, dec: MPGopDecoder, draw, lose_after=None) -> None:
        self.dec, self.draw, self.lose_after = dec, draw, lose_after
        self.size = max(dec.workers, 1)
        self.workers = {
            wid: SimpleNamespace(proc=SimpleNamespace(exitcode=None))
            for wid in range(self.size)
        }
        #: wid -> [sid, the chain's keys still to answer, its task].
        self.busy: dict[int, list] = {}
        #: gop -> the task it was sent, until the consumer has it all.
        self.live: dict[int, object] = {}
        self.submitted: list[int] = []
        #: GOPs whose every picture has been answered.
        self.finished: set[int] = set()
        #: Pool slots of each run's attach.
        self.attaches: list[int] = []
        self.answered = 0

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
        return sum(len(left) for _sid, left, _task in self.busy.values())

    def submit(self, wid, sid, keys, task, fault=None) -> None:
        assert wid not in self.busy
        assert len(task.slots) == len(keys) == len(task.index.pictures)
        assert all(0 <= s < self.slots for s in task.slots)
        window = self.dec.window
        # No chain starts before the window's base allows: all of it
        # lies below the limit, so no slot holder is past it.
        assert window.base <= keys[0] and keys[-1] < window.limit
        assert [window.slot(key) for key in keys] == list(task.slots)
        held = [window.slot(o) for o in range(window.pictures)]
        held = [slot for slot in held if slot is not None]
        assert len(held) == len(set(held)) == window.held <= window.size
        self.live[task.gop] = task
        self.submitted.append(task.gop)
        order = task.index.display_order()
        self.busy[wid] = [sid, [keys[pos] for pos in order], task]

    def fetch(self, stalls, on_timeout, **_names) -> tuple:
        wid = self.draw(st.sampled_from(sorted(self.busy)))
        sid, left, task = self.busy[wid]
        if self.answered == self.lose_after:
            self.workers[wid].proc.exitcode = 23
            on_timeout()
            raise AssertionError("a dead worker went unreported")
        self.answered += 1
        key = left.pop(0)
        if not left:
            del self.busy[wid]
            self.finished.add(task.gop)
        return "ok", wid, sid, key, WorkCounters(), None


@settings(max_examples=150, deadline=None)
@given(
    gop_sizes=st.lists(st.integers(min_value=0, max_value=7), max_size=12),
    workers=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_window_policy_streams_every_gop_in_order(gop_sizes, workers, data):
    dec = MPGopDecoder(b"", index=synthetic_index(gop_sizes), workers=workers)
    team = FakeTeam(dec, data.draw)
    got: dict[int, list[int]] = {}
    #: GOPs seen giving an I/P slot back before their last picture.
    early: set[int] = set()
    counters = WorkCounters()
    with mock.patch("repro.exec.dispatch.get_team", return_value=team):
        # A stalled policy — nothing in flight, nothing claimable, GOPs
        # left — ends the loop early and ``merger.finish`` raises.
        for gop, slots in dec.iter_gops(counters):
            # Every earlier GOP was handed over whole before this run.
            assert all(
                g in got and g not in team.live
                for g in range(gop) if gop_sizes[g]
            )
            got.setdefault(gop, []).extend(slots)
            assert dec.window.held <= team.slots
            for g, task in team.live.items():
                # The reference rule: a picture holds its slot until it
                # and every picture that references it are out.
                order = task.index.display_order()
                out = set(order[: len(got.get(g, ()))])
                users = {pos: {pos} for pos in order}
                for pos, refs in enumerate(task.index.references()):
                    for ref in filter(lambda r: r is not None, refs):
                        users[ref].add(pos)
                for pos, pic in enumerate(task.index.pictures):
                    holds = dec.window.slot(task.base + pos) is not None
                    assert holds == (not users[pos] <= out), (g, pos)
                    ref = pic.picture_type.is_reference
                    if ref and not holds and len(out) < len(order):
                        early.add(g)
            task = team.live[gop]
            if len(got[gop]) == len(task.index.pictures):
                # Every picture is answered, and all of its frames are
                # out, in display order.
                assert gop in team.finished
                order = task.index.display_order()
                assert got[gop] == [task.slots[pos] for pos in order]
                del team.live[gop]
    pictured = [g for g, size in enumerate(gop_sizes) if size]
    assert list(got) == team.submitted == pictured
    # Each run's window is sized from its first GOP; a longer GOP ends
    # the run and starts the next.
    firsts: list[int] = []
    for size in gop_sizes:
        if not firsts or size > firsts[-1]:
            firsts.append(size)
    window = max(2 * workers, 1)
    assert team.attaches == [window * size for size in firsts]
    assert len(dec.last_graphs) == len(firsts)
    assert not team.live
    if gop_sizes:
        assert not dec.window.held
    assert metrics().gauge("mp.frame_pool.occupancy").value == 0
    # The stream's first GOP hands its pictures over one at a time: one
    # of five or more (two reference intervals) gives its I slot back
    # while its last picture is still to come.
    pictured = [g for g, size in enumerate(gop_sizes) if size]
    if pictured and gop_sizes[pictured[0]] >= 5:
        assert pictured[0] in early
    # One node per picture, each completed once; a GOP with no picture
    # is its header, charged by the parent.
    for graph in dec.last_graphs:
        graph.verify_conservation()
    assert sum(g.completed for g in dec.last_graphs) == sum(gop_sizes)
    empty = gop_sizes.count(0)
    assert (counters.headers, counters.bits) == (empty, 32 * empty)
