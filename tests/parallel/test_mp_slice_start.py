"""The slice decoder's start-up does not grow with the stream.

Before its first picture, :class:`~repro.parallel.mp_slice.MPSliceDecoder`
plans only the GOPs its frame window reaches, builds only their picture
plans, and attaches a decode context that carries no plan at all (each
batch carries its own picture's header and slice ranges).  So two
tilings of one clip, 2 GOPs and 16, must look the same up to the first
yielded frame — the paper's argument for slice grain (§5.2): latency
and memory set by the GOP structure, not by the stream's length.

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
from repro.parallel.mp_slice import MPSliceDecoder, PictureSliceQueue

from tests.mpeg2.test_golden_vectors import CORPUS, load_vector
from tests.parallel.test_mp_slice_parity import tile_gops
from tests.parallel.test_mp_slice_properties import (
    MODES,
    Schedule,
    gop_structures,
)

VECTOR = "ipb_64x48_gop13"


def start_cost(data: bytes, workers: int, mode: str, monkeypatch) -> tuple:
    """``(picture plans built, graph nodes planned, pickled bytes of
    each attach state)`` when the first frame is yielded; the run is
    then finished and checked against the golden digests."""
    states: list[int] = []
    for team in (LocalTeam, WorkerTeam):

        def spy(self, sid, body, data, layout, slots, state, _attach=team.attach):
            states.append(len(pickle.dumps(state)))
            return _attach(self, sid, body, data, layout, slots, state)

        monkeypatch.setattr(team, "attach", spy)
    dec = MPSliceDecoder(data, workers=workers, mode=mode)
    frames = dec.iter_frames()
    first = next(frames)
    cost = (len(dec.plans), dec.q.graph.planned, list(states))
    digests = [f.digest() for f in (first, *frames)]
    gops = len(dec.index.gops)
    assert digests == CORPUS[VECTOR]["frame_digests"] * gops
    assert len(dec.plans) == dec.index.picture_count
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
    plans, _nodes, states = long
    # The window (one 13-picture GOP + 1 slot) reaches GOPs 0 and 1.
    assert plans == 26
    assert len(states) == 1


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
        sched.queue.complete_batch(batch.order, len(batch.sidxs))
        sched.pump()
        step += 1
    assert sched.queue.done and sched.merger.done
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
        reached: list[int] = []
        sched = Schedule(
            structure, mode, workers,
            on_claim=lambda s, b: s.log.append((b.order, tuple(b.sidxs), b.slot)),
        )
        sched.log = []
        sched.queue = PictureSliceQueue(
            counts, deps, mode, gop_sizes, sched.window, workers=workers,
            on_gop=reached.append,
        )
        drain(sched, picks)
        logs.append((sched.log, sched.completion_order, sched.emitted))
        assert reached == list(range(len(gop_sizes)))
    assert logs[0] == logs[1]


def test_dependency_outside_its_gop_is_rejected():
    with pytest.raises(ValueError, match="outside its GOP"):
        PictureSliceQueue([1, 1], [[], [0]], "improved", [1, 1], 2)
