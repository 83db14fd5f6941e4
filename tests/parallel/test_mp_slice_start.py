"""The slice decoder's start-up does not grow with the stream.

Before its first picture, :class:`~repro.parallel.mp_slice.MPSliceDecoder`
indexes only the GOPs its frame window reaches (the scan is a cursor,
not a prelude), copies only their bytes into the shared arena, plans
only their pictures, and attaches a decode context that carries no
plan at all (each batch carries its own picture's header and slice
ranges).  So two tilings of one clip, 2 GOPs and 16, must look the
same up to the first yielded frame — the paper's argument for slice
grain (§5.2): latency and memory set by the GOP structure, not by the
stream's length.

The queue underneath plans a GOP at a time; the property test pins that
this is only *when* the graph is built, never *what* is dispatched: the
same completion schedule claims the same batches, in the same slots, as
a queue handed the whole stream at once.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.backend import LocalTeam, WorkerTeam
from repro.mpeg2.index import IndexCursor, build_index
from repro.exec.window import FrameWindow
from repro.parallel.mp_slice import MPSliceDecoder, PictureSliceQueue

from tests.mpeg2.test_golden_vectors import CORPUS, load_vector
from tests.parallel.test_mp_slice_parity import tile_gops
from tests.parallel.test_mp_slice_properties import (
    MODES,
    Schedule,
    gop_structures,
    plans,
)

VECTOR = "ipb_64x48_gop13"


def spy_start(monkeypatch) -> dict[str, list]:
    """Record, on both teams, the pickled bytes of every attach state
    and the byte range of every arena publish, and every GOP the scan
    cursor indexes."""
    seen: dict[str, list] = {"states": [], "published": [], "indexed": []}
    for team in (LocalTeam, WorkerTeam):

        def attach(self, sid, body, data, layout, slots, state, _f=team.attach):
            seen["states"].append(len(pickle.dumps(state)))
            return _f(self, sid, body, data, layout, slots, state)

        def publish(self, sid, start, end, _f=team.publish):
            seen["published"].append(end - start)
            return _f(self, sid, start, end)

        monkeypatch.setattr(team, "attach", attach)
        monkeypatch.setattr(team, "publish", publish)

    def gop(self, head, hits, _f=IndexCursor._gop):
        seen["indexed"].append(head[0])
        return _f(self, head, hits)

    monkeypatch.setattr(IndexCursor, "_gop", gop)
    return seen


def start_cost(data: bytes, workers: int, mode: str, monkeypatch) -> tuple:
    """``(picture plans built, graph nodes planned, pickled bytes of
    each attach state, GOPs indexed, arena bytes published)`` when the
    first frame is yielded; the run is then finished and checked
    against the golden digests."""
    seen = spy_start(monkeypatch)
    dec = MPSliceDecoder(data, workers=workers, mode=mode)
    frames = dec.iter_frames()
    first = next(frames)
    cost = (
        len(dec.plans), dec.q.graph.planned, list(seen["states"]),
        len(seen["indexed"]), sum(seen["published"]),
    )
    assert dec.gops_scanned == len(seen["indexed"])
    digests = [f.digest() for f in (first, *frames)]
    gops = len(dec.index.gops)
    assert digests == CORPUS[VECTOR]["frame_digests"] * gops
    assert len(dec.plans) == dec.index.picture_count
    # Every GOP was indexed once by the decode (and once more by the
    # ``index`` read above), and published once.
    assert len(seen["indexed"]) == 2 * gops
    assert sum(seen["published"]) == sum(g.wire_bytes for g in dec.index.gops)
    return cost


@pytest.mark.parametrize("workers", (0, 2))
@pytest.mark.parametrize("mode", MODES)
def test_work_before_first_picture_is_flat_in_stream_length(
    workers, mode, monkeypatch, no_shm_leak
):
    clip = load_vector(VECTOR)
    short, long = (
        start_cost(tile_gops(clip, n), workers, mode, monkeypatch)
        for n in (2, 16)
    )
    assert short == long
    plans, _nodes, states, indexed, published = long
    # A GOP is planned when a claim with a free credit finds nothing to
    # start and the window (one 13-picture GOP + 1 slot) reaches it: at
    # 2 workers the spare credits reach GOP 1 while GOP 0's P waits for
    # its I; the one credit of workers=0 never does before picture 0.
    # Those GOPs are indexed and published, nothing past them.
    reached = 2 if workers else 1
    assert plans == 13 * reached
    assert len(states) == 1
    assert indexed == reached
    (gop,) = build_index(load_vector(VECTOR)).gops
    assert published == reached * gop.wire_bytes


@st.composite
def schedules(draw):
    structure = draw(gop_structures())
    picks = draw(st.lists(st.integers(0, 63), min_size=1, max_size=40))
    return structure, picks


def drain(sched: Schedule, picks: list[int]) -> Schedule:
    """The parent's round, completing in-flight batches in ``picks``
    order (cycled)."""
    sched.pump()
    step = 0
    while sched.in_flight:
        pick = picks[step % len(picks)] % len(sched.in_flight)
        batch = sched.in_flight.pop(pick)
        sched.queue.complete(batch.tid)
        sched.pump()
        step += 1
    assert sched.queue.pictures_complete == len(sched.counts)
    assert sched.merger.done
    return sched


@settings(max_examples=200, deadline=None)
@given(
    drawn=schedules(),
    workers=st.integers(min_value=0, max_value=3),
)
@pytest.mark.parametrize("mode", MODES)
def test_planning_a_gop_at_a_time_dispatches_as_the_whole_stream(
    drawn, workers, mode
):
    structure, picks = drawn
    counts, deps, _types, gops, _display = structure
    sizes = [gops.count(g) for g in range(gops[-1] + 1)]
    logs = []
    for gop_sizes in ([len(counts)], sizes):
        # The decoder's planning step adds a GOP when a claim finds
        # nothing to start and the window reaches the GOP.
        sched = Schedule(
            structure, mode, workers,
            on_claim=lambda s, b: s.log.append((b.order, tuple(b.sidxs), b.slot)),
            plan_sizes=gop_sizes,
        )
        sched.log = []
        drain(sched, picks)
        logs.append((sched.log, sched.completion_order, sched.emitted))
        assert sched.reached == gop_sizes
    assert logs[0] == logs[1]


def test_dependency_outside_its_gop_is_rejected():
    queue = PictureSliceQueue("improved", FrameWindow(2))
    queue.add_gop(plans([1, 1], [[], [0]], range(1)))
    with pytest.raises(ValueError, match="outside its GOP"):
        queue.add_gop(plans([1, 1], [[], [0]], range(1, 2)))
