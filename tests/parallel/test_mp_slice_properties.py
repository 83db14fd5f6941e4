"""Property-based tests for the 2-D picture/slice queue and merger.

The scheduler logic of :mod:`repro.parallel.mp_slice` is pure
(:class:`PictureSliceQueue`, :class:`DisplayMerger`), so hypothesis
can drive it through random GOP structures, random display orders and
random batch-completion orders — replaying exactly the
publish / claim / emit round the decoder's parent runs — and check the
safety properties the real pipeline relies on:

* no deadlock — every generated schedule drains the queue, zero-slice
  pictures and 1-picture GOPs included, planned a GOP at a time as the
  decoder plans them, on the decoder's frame window
  (:class:`~repro.exec.window.FrameWindow` of ``max(longest GOP, 2 x
  workers) + 1`` slots);
* a picture never completes before its dependencies (never emitted
  early by the merger either);
* **improved mode never schedules a B-slice before both its reference
  pictures are complete** (the paper's correctness argument for
  rolling into B-runs);
* simple mode never schedules a slice before every earlier picture is
  complete (the stronger barrier the improved variant relaxes);
* claims come **earliest picture first**: a later picture is served
  only while no earlier one has an available, unclaimed slice;
* batches in flight never exceed the credit, slots in use never exceed
  the pool, no two live pictures share a slot, and the first
  incomplete picture is never kept waiting for a slot.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.window import FrameWindow
from repro.parallel.merge import DisplayMerger
from repro.parallel.mp_slice import PictureSliceQueue

MODES = ("simple", "improved")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def gop_structures(draw):
    """A coding-order picture list with MPEG-2 reference structure.

    Returns ``(slice_counts, dependencies, types, gops, display)``:
    1-4 closed GOPs of 1-6 pictures, types drawn I/P/B with a leading
    I, dependencies following the two-slot rule inside the GOP (P ->
    newest reference; B -> the two newest references), slice counts
    including zero (a legal degenerate the queue must auto-settle), and
    display indices an **arbitrary** permutation inside each GOP — what
    a corrupted ``temporal_reference`` can produce, and the worst case
    for the frame window.
    """
    counts: list[int] = []
    deps: list[list[int]] = []
    types: list[str] = []
    gops: list[int] = []
    display: list[int] = []
    for gop in range(draw(st.integers(min_value=1, max_value=4))):
        base = len(types)
        size = draw(st.integers(min_value=1, max_value=6))
        ref_old: int | None = None
        ref_new: int | None = None
        for pos in range(size):
            if pos == 0:
                t = "I"
            else:
                t = draw(st.sampled_from("IPB" if ref_old is not None else "IP"))
            types.append(t)
            gops.append(gop)
            if t == "I":
                deps.append([])
            elif t == "P":
                deps.append([ref_new])
            else:
                deps.append([ref_old, ref_new])
            if t in "IP":
                ref_old, ref_new = ref_new, base + pos
            counts.append(draw(st.integers(min_value=0, max_value=4)))
        display.extend(base + r for r in draw(st.permutations(range(size))))
    return counts, deps, types, gops, display


def plans(counts, deps, orders) -> list[SimpleNamespace]:
    """What the queue reads of the picture plans of ``orders``: their
    slices and their dependencies."""
    return [
        SimpleNamespace(slices=range(counts[o]), dependencies=deps[o])
        for o in orders
    ]


def one_gop_queue(counts, deps, mode, size, workers=1, **hooks):
    """A queue on a ``size``-slot window, every picture planned as one
    GOP."""
    window = FrameWindow(size)
    queue = PictureSliceQueue(mode, window, workers, **hooks)
    queue.add_gop(plans(counts, deps, range(len(counts))))
    for order, refs in enumerate(deps):
        window.add(order, refs)
    return queue


class Schedule:
    """The decoder parent's publish / claim / emit round, on the pure
    queue and the decoder's frame window, with hypothesis choosing which
    batch finishes next.  GOPs are planned as the decoder plans them:
    one when a claim with a free credit finds nothing to start and the
    window reaches the GOP (``plan_sizes`` regroups them)."""

    def __init__(self, structure, mode, workers, on_claim=None, plan_sizes=None):
        self.counts, self.deps, self.types, gops, self.display = structure
        self.gop_sizes = [gops.count(g) for g in range(gops[-1] + 1)]
        self.window = FrameWindow(max(max(self.gop_sizes), 2 * workers) + 1)
        self.queue = PictureSliceQueue(mode, self.window, workers, self.reach)
        self.planning = iter(plan_sizes or self.gop_sizes)
        #: Sizes of the GOPs planned so far.
        self.reached: list[int] = []
        self.merger = DisplayMerger(len(self.counts))
        self.on_claim = on_claim
        self.in_flight: list = []
        self.claimed = [0] * len(self.counts)
        self.complete: set[int] = set()
        self.completion_order: list[int] = []
        self.emitted: list[int] = []

    def reach(self) -> bool:
        """The decoder's planning step (``StreamDecoder._reach``)."""
        first = self.queue.pictures
        if first >= self.window.limit:
            return False
        size = next(self.planning, None)
        if size is None:
            return False
        orders = range(first, first + size)
        self.queue.add_gop(plans(self.counts, self.deps, orders))
        for order in orders:
            self.window.add(order, self.deps[order])
        self.reached.append(size)
        return True

    def pump(self):
        q = self.queue
        more = True
        while more:
            completed = q.take_completed()
            ready: list[int] = []
            for order in completed:
                self.complete.add(order)
                self.completion_order.append(order)
                ready.extend(self.merger.push(self.display[order], order))
            while (batch := q.claim_batch()) is not None:
                if self.on_claim is not None:
                    self.on_claim(self, batch)
                self.claimed[batch.order] += len(batch.sidxs)
                self.in_flight.append(batch)
                self.check_bounds()
            for done in ready:
                self.window.emitted(done)
                self.emitted.append(done)
            self.check_bounds()
            # A claim may have taken a zero-slice picture's publish step.
            more = completed or q.due

    def live_slots(self):
        """Picture -> the slot it holds."""
        slots = map(self.window.slot, range(len(self.counts)))
        return {o: s for o, s in enumerate(slots) if s is not None}

    def check_bounds(self):
        q, window = self.queue, self.window
        assert q.in_flight == len(self.in_flight) <= q.credit
        live = self.live_slots()
        assert len(live) == len(set(live.values())) == window.held <= window.size
        # The no-overflow rule: every holder lies in [base, base + size).
        assert all(window.base <= o < window.limit for o in live)

    def run(self, data, max_steps=10_000):
        """Drain the queue; raises if the schedule wedges (nothing in
        flight, queue not done) — the deadlock property."""
        q = self.queue
        self.pump()
        for _ in range(max_steps):
            if not self.in_flight:
                assert self.merger.done, (
                    f"deadlock: counts={self.counts} window={self.window.size}"
                )
                assert q.pictures_complete == q.pictures == len(self.counts)
                assert not self.live_slots() and not self.window.held
                return self
            if q.in_flight < q.credit:
                # A free credit went unused.  The first incomplete
                # picture is always available, so the only excuse is
                # that all its slices are already out — never that it
                # waits for a slot.
                head = min(set(range(len(self.counts))) - self.complete)
                assert self.counts[head] > 0
                assert self.claimed[head] == self.counts[head]
            idx = data.draw(
                st.integers(min_value=0, max_value=len(self.in_flight) - 1),
                label="completion pick",
            )
            batch = self.in_flight.pop(idx)
            q.complete(batch.tid)
            self.pump()
        raise AssertionError("schedule did not terminate")


# ----------------------------------------------------------------------
# queue properties
# ----------------------------------------------------------------------
class TestQueueProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        structure=gop_structures(),
        workers=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_never_deadlocks_and_completes_every_picture(
        self, structure, workers, data, mode
    ):
        # Includes the credit / window / distinct-slot bounds, checked
        # by the driver after every claim and every emission.
        sched = Schedule(structure, mode, workers).run(data)
        assert sched.queue.pictures_complete == len(sched.counts)
        assert sorted(sched.emitted) == list(range(len(sched.counts)))
        assert [sched.display[o] for o in sched.emitted] == sorted(
            sched.display
        )

    @settings(max_examples=200, deadline=None)
    @given(
        structure=gop_structures(),
        workers=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_improved_never_schedules_before_references_published(
        self, structure, workers, data
    ):
        def on_claim(sched, batch):
            # THE property: at claim time every reference of the
            # claimed picture — both of them for a B — is complete,
            # and the batch names the slots they live in.
            for dep, slot in zip(sched.deps[batch.order], batch.ref_slots):
                assert sched.queue.is_complete(dep), (
                    f"{sched.types[batch.order]}-picture {batch.order} "
                    f"scheduled before reference {dep} was published"
                )
                assert slot is not None
                assert slot == sched.window.slot(dep)
            assert batch.slot == sched.window.slot(batch.order)

        Schedule(structure, "improved", workers, on_claim).run(data)

    @settings(max_examples=150, deadline=None)
    @given(
        structure=gop_structures(),
        workers=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_simple_never_schedules_past_an_incomplete_picture(
        self, structure, workers, data
    ):
        def on_claim(sched, batch):
            for earlier in range(batch.order):
                assert sched.queue.is_complete(earlier), (
                    f"simple mode scheduled picture {batch.order} before "
                    f"picture {earlier} completed"
                )

        Schedule(structure, "simple", workers, on_claim).run(data)

    @settings(max_examples=200, deadline=None)
    @given(
        structure=gop_structures(),
        workers=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_claims_earliest_available_picture_first(
        self, structure, workers, data, mode
    ):
        def on_claim(sched, batch):
            # Every earlier picture with slices still to hand out must
            # be unavailable (waiting for a reference).
            sidxs = list(batch.sidxs)
            assert sidxs == list(
                range(sched.claimed[batch.order], sidxs[-1] + 1)
            )
            assert len(sidxs) <= -(
                -sched.counts[batch.order] // max(workers, 1)
            )
            for earlier in range(batch.order):
                if sched.claimed[earlier] < sched.counts[earlier]:
                    assert mode == "improved"
                    assert not all(
                        d in sched.complete for d in sched.deps[earlier]
                    ), (
                        f"picture {batch.order} served while available "
                        f"picture {earlier} had unclaimed slices"
                    )

        Schedule(structure, mode, workers, on_claim).run(data)

    @settings(max_examples=100, deadline=None)
    @given(structure=gop_structures(), data=st.data())
    def test_completion_respects_dependencies(self, structure, data):
        sched = Schedule(structure, "improved", 2).run(data)
        seen: set[int] = set()
        for order in sched.completion_order:
            assert all(d in seen for d in sched.deps[order])
            seen.add(order)

    def test_rejects_forward_dependencies(self):
        queue = PictureSliceQueue("improved", FrameWindow(2))
        with pytest.raises(ValueError, match="earlier in coding order"):
            queue.add_gop(plans([1, 1], [[1], []], range(2)))
        queue = PictureSliceQueue("improved", FrameWindow(1))
        with pytest.raises(ValueError, match="earlier in coding order"):
            queue.add_gop(plans([1], [[0]], range(1)))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PictureSliceQueue("bogus", FrameWindow(1))

    def test_overcompletion_raises(self):
        queue = one_gop_queue([1], [[]], "simple", 1)
        batch = queue.claim_batch()
        assert (batch.order, batch.sidxs, batch.tid) == (0, range(0, 1), "p0.s0")
        assert queue.complete(batch.tid) is True
        with pytest.raises(ValueError, match="completed without dispatch"):
            queue.complete(batch.tid)

    def test_gating_callbacks_fire_in_pairs(self):
        gated: list[int] = []
        released: list[int] = []
        queue = one_gop_queue(
            [1, 1, 1], [[], [0], [0, 1]], "simple", 3,
            on_gated=gated.append, on_released=released.append,
        )
        first = queue.claim_batch()
        assert first.order == 0
        # A second credit is free and finds picture 1 in the way.
        assert queue.claim_batch() is None
        assert gated == [1]
        # The last batch of a picture releases its publish step, which
        # the caller runs before it claims again.
        queue.complete(first.tid)
        assert queue.take_completed() == [0]
        second = queue.claim_batch()
        assert second.order == 1
        assert released == [1]
        assert queue.claim_batch() is None
        queue.complete(second.tid)
        assert queue.take_completed() == [1]
        queue.complete(queue.claim_batch().tid)
        assert queue.take_completed() == [2]
        assert queue.pictures_complete == 3
        assert gated == released == [1, 2]
        for order in range(3):
            queue.window.emitted(order)
        assert (queue.window.held, queue.window.base) == (0, 3)

    def test_spent_credit_starts_no_gate_clock(self):
        # workers=0 -> one credit: while it is out, a claim finds no
        # free credit, so nothing is "gated" (no stall is booked for
        # time in which the scheduler had nothing to place).
        gated: list[int] = []
        queue = one_gop_queue(
            [2, 2], [[], [0]], "improved", 2, workers=0,
            on_gated=gated.append,
        )
        assert list(queue.claim_batch().sidxs) == [0, 1]
        assert queue.claim_batch() is None
        assert gated == []

    def test_work_conserving_but_earliest_first(self):
        # Two GOPs of I,P; two workers.  While GOP 0's P waits for its
        # I, the spare credits go to GOP 1's I — and GOP 0's P takes
        # precedence again the moment it becomes available.
        queue = one_gop_queue(
            [2, 2, 2, 2], [[], [0], [], [2]], "improved", 5, workers=2
        )
        first = [queue.claim_batch() for _ in range(4)]
        assert [b.order for b in first] == [0, 0, 2, 2]
        assert queue.claim_batch() is None  # credit (2 x workers) spent
        queue.complete(first[0].tid)
        assert queue.claim_batch() is None  # P0 gated, GOP 1's P gated
        for batch in first[1:]:
            queue.complete(batch.tid)
        assert queue.take_completed() == [0, 2]
        assert [queue.claim_batch().order for _ in range(4)] == [1, 1, 3, 3]

    def test_zero_slice_picture_is_claimed_as_its_publish_step(self):
        # An I with no slice and the P that predicts from it: a claim
        # takes the I's slot and its publish step, and the P may start
        # only once the caller has run that step.
        queue = one_gop_queue([0, 1], [[], [0]], "improved", 2)
        assert queue.claim_batch() is None
        assert (queue.due, queue.in_flight, queue.window.slot(0)) == (True, 0, 0)
        assert queue.take_completed() == [0]
        batch = queue.claim_batch()
        assert (batch.order, batch.ref_slots) == (1, (0,))


# ----------------------------------------------------------------------
# merger properties
# ----------------------------------------------------------------------
class TestMergerProperties:
    @settings(max_examples=200, deadline=None)
    @given(perm=st.permutations(list(range(10))))
    def test_random_push_order_emits_display_order(self, perm):
        merger = DisplayMerger(len(perm))
        emitted: list[int] = []
        for di in perm:
            out = merger.push(di, di)
            # Never emits an index before all smaller ones arrived:
            for item in out:
                assert item == len(emitted)
                emitted.append(item)
        assert emitted == sorted(perm)
        assert merger.done
        assert merger.held == 0

    @settings(max_examples=100, deadline=None)
    @given(perm=st.permutations(list(range(8))), cut=st.integers(0, 7))
    def test_prefix_never_emits_early(self, perm, cut):
        merger = DisplayMerger(len(perm))
        pushed = set()
        for di in perm[:cut]:
            out = merger.push(di, di)
            pushed.add(di)
            for item in out:
                # Everything emitted so far must be a closed prefix of
                # what was pushed — no picture escapes early.
                assert set(range(item + 1)) <= pushed
        assert merger.emitted + merger.held == cut

    def test_duplicate_push_raises(self):
        merger = DisplayMerger(3)
        merger.push(1, "a")
        with pytest.raises(ValueError, match="twice"):
            merger.push(1, "b")
        merger.push(0, "c")
        with pytest.raises(ValueError, match="twice"):
            merger.push(0, "d")

    def test_out_of_range_raises(self):
        merger = DisplayMerger(2)
        with pytest.raises(ValueError, match="out of range"):
            merger.push(2, "x")
        with pytest.raises(ValueError, match="out of range"):
            merger.push(-1, "x")

    def test_max_depth_tracks_reorder_buffer(self):
        merger = DisplayMerger(4)
        merger.push(3, 3)
        merger.push(2, 2)
        merger.push(1, 1)
        assert merger.max_depth == 3
        out = merger.push(0, 0)
        assert out == [0, 1, 2, 3]
        assert merger.done
