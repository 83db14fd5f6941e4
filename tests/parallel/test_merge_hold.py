"""The ``merge.reorder`` stall is booked once per hold episode.

A hold episode is the stretch from the reorder buffer first holding a
picture that must wait for an earlier one until the buffer drains.
Pictures held at the same time share one episode, so the stall is the
union of their holds, never their sum, and cannot exceed the display
side's own wall time.
"""

from __future__ import annotations

import json
import os
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.parallel.merge import DisplayMerger

from tests.conftest import VECTOR_DIR
from tests.parallel.test_mp_slice_parity import tile_gops


class Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def merger_with_log(total: int) -> tuple[DisplayMerger, Clock, list]:
    clock, booked = Clock(), []
    merger = DisplayMerger(
        total, on_hold=lambda item, since, held: booked.append((item, since, held)),
        clock=clock,
    )
    return merger, clock, booked


def test_overlapping_holds_book_their_union_once():
    merger, clock, booked = merger_with_log(6)
    # Display 2 is held from t=0 and display 1 from t=3; display 0
    # lands at t=5 and drains both: one episode of 5, not 5 + 2.
    for t, display in ((0, 2), (3, 1), (5, 0)):
        clock.now = t
        merger.push(display, display)
    assert booked == [(2, 0, 5)]
    # In order: nothing is held, nothing is booked.
    clock.now = 6
    assert merger.push(3, 3) == [3]
    # A second, disjoint episode.
    for t, display in ((7, 5), (9, 4)):
        clock.now = t
        merger.push(display, display)
    assert booked == [(2, 0, 5), (5, 7, 2)]
    assert merger.done


@settings(max_examples=200, deadline=None)
@given(perm=st.permutations(list(range(10))))
def test_episodes_are_disjoint_and_inside_the_merge(perm):
    merger, clock, booked = merger_with_log(len(perm))
    for t, display in enumerate(perm):
        clock.now = t
        merger.push(display, display)
    ends = [since + held for _item, since, held in booked]
    starts = [since for _item, since, _held in booked]
    assert all(end <= start for end, start in zip(ends, starts[1:]))
    assert sum(held for _i, _s, held in booked) <= len(perm) - 1


def test_traced_gop_decode_stall_fits_in_its_wall_time(tmp_path, no_shm_leak):
    with open(os.path.join(VECTOR_DIR, "ipb_64x48_gop13.m2v"), "rb") as fh:
        stream = tmp_path / "gop13x4.m2v"
        stream.write_bytes(tile_gops(fh.read(), 4))
    trace = tmp_path / "trace.json"
    t0 = time.perf_counter()
    assert main([
        "decode", str(stream), "--workers", "2", "--trace", str(trace),
    ]) == 0
    wall_us = (time.perf_counter() - t0) * 1e6
    events = json.loads(trace.read_text())["traceEvents"]
    holds = sorted(
        (e["ts"], e["ts"] + e["dur"])
        for e in events if e.get("name") == "mp.merge.hold"
    )
    assert sum(end - start for start, end in holds) <= wall_us
    for (_s, end), (start, _e) in zip(holds, holds[1:]):
        assert end <= start
