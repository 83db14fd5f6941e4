"""The frame window as pure logic: one allocator, any GOP structure.

:class:`~repro.exec.window.FrameWindow` lends both real-process grains
their frame-pool slots.  Hypothesis draws GOP structures (reference
sets included), a window at least as long as the longest GOP, and the
order in which pictures take their slots and leave the display merge,
and checks what the decoders rely on: slots are distinct, no more than
``size`` pictures hold one, every holder lies in ``[base, base +
size)``, a slot comes back exactly when its picture and every picture
referencing it are out, the head picture never waits for a slot, and
the window is empty at the end.
"""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.window import FrameWindow
from repro.obs.metrics import metrics

from tests.parallel.test_mp_slice_properties import gop_structures


@st.composite
def window_runs(draw):
    """``(dependencies, gop_sizes, size)``: a stream's reference sets
    in coding order, its GOP sizes and a window that holds its longest
    GOP."""
    _counts, deps, _types, gops, _display = draw(gop_structures())
    sizes = [gops.count(g) for g in range(gops[-1] + 1)]
    return deps, sizes, draw(st.integers(max(sizes), max(sizes) + 4))


@settings(max_examples=300, deadline=None)
@given(run=window_runs(), data=st.data())
def test_slots_are_distinct_bounded_and_all_come_back(run, data):
    deps, sizes, size = run
    total = len(deps)
    gop_of = [g for g, n in enumerate(sizes) for _ in range(n)]
    starts = [0, *accumulate(sizes)]
    #: Per picture: itself and the pictures that reference it.
    users = [{o} for o in range(total)]
    for o, refs in enumerate(deps):
        for d in refs:
            users[d].add(o)
    window = FrameWindow(size)
    acquired: set[int] = set()
    emitted: set[int] = set()
    used: set[int] = set()
    gops = 0
    while len(emitted) < total:
        # A decoder adds a GOP when the window reaches its first picture.
        while gops < len(sizes) and starts[gops] < window.limit:
            for o in range(starts[gops], starts[gops + 1]):
                window.add(o, deps[o])
            gops += 1
        head = min(set(range(total)) - acquired, default=None)
        if head is not None and gop_of[head] == gop_of[window.base]:
            # The head picture never waits for a slot: its GOP is the
            # base's, which the window holds whole.
            assert head < window.limit and window.held < size
        moves = [("emit", o) for o in sorted(acquired - emitted)] + [
            ("acquire", o)
            for o in range(window.pictures)
            if o not in acquired and o < window.limit
            and all(d in acquired for d in deps[o])
        ]
        assert moves, "the window wedged"
        move, order = data.draw(st.sampled_from(moves))
        if move == "acquire":
            slot, reused = window.acquire(order)
            assert reused == (slot in used)
            assert window.acquire(order) == (slot, False)
            used.add(slot)
            acquired.add(order)
        else:
            window.emitted(order)
            emitted.add(order)
        holders = {o: window.slot(o) for o in acquired if window.slot(o) is not None}
        assert len(set(holders.values())) == len(holders) == window.held <= size
        assert all(window.base <= o < window.limit for o in holders)
        assert all(0 <= s < size for s in holders.values())
        # A slot comes back exactly when its picture and every picture
        # referencing it have left the merge.
        for o in acquired:
            assert (o in holders) == (not users[o] <= emitted)
        assert metrics().gauge("mp.frame_pool.occupancy").value == window.held
    assert (window.held, window.base, window.pictures) == (0, total, total)
    window.close()
    assert metrics().gauge("mp.frame_pool.occupancy").value == 0


def test_a_picture_outside_the_window_takes_no_slot():
    window = FrameWindow(2)
    for order, refs in enumerate([[], [0], []]):
        window.add(order, refs)
    assert window.acquire(0) == (0, False)
    assert window.acquire(1) == (1, False)
    with pytest.raises(ValueError, match=r"outside the frame window \[0, 2\)"):
        window.acquire(2)
    # Picture 0 is held until picture 1, which references it, is out.
    window.emitted(0)
    assert (window.base, window.slot(0)) == (0, 0)
    window.emitted(1)
    assert (window.base, window.held) == (2, 0)
    # Freed slots are lent again, last freed first, flagged for blanking.
    assert window.acquire(2) == (0, True)


def test_pictures_are_added_in_coding_order():
    window = FrameWindow(1)
    with pytest.raises(ValueError, match="out of order"):
        window.add(1, [])
