"""Real-hardware slice-level parallel decoding with OS processes.

:mod:`repro.parallel.mp` brings the paper's **GOP-level** decomposition
(Section 5.1) to real cores; this module does the same for the
**slice-level** decomposition (Section 5.2), the one the paper finds
superior on latency and memory.  Tasks are individual slices, organised
by the 2-D picture/slice queue; two synchronisation policies mirror the
simulated :class:`repro.parallel.slice_level.SliceLevelDecoder`:

* ``simple`` — a picture's slices become available only when **every**
  earlier picture (coding order) has completed: a barrier after each
  picture.
* ``improved`` — a picture's slices become available as soon as its
  **reference pictures** have been decoded and published: consecutive
  B-pictures interleave freely, so the barrier survives only after
  I/P pictures.

The paper's three roles map onto real primitives:

* **scan** — the parent flattens the :class:`repro.mpeg2.index.
  StreamIndex` into coding-order :class:`PicturePlan` records (byte
  ranges, reference links, display indices) without decoding
  (:func:`scan_slice_tasks`), and drives the pure-logic
  :class:`PictureSliceQueue` that embodies the availability rule, the
  dispatch credit and the frame window.
* **workers** — the warm :class:`repro.exec.backend.WorkerTeam`
  shared with the GOP decoder and the serve layer; this module only
  supplies the partition: a session context (:func:`picture_state`)
  and a task body (:func:`decode_batch`) run per :class:`SliceBatch`.
  The coded stream is published once into shared memory; workers
  attach by name and slice payload byte ranges straight out of the
  segment.  One function, :func:`decode_batch_into_pool`, is the whole
  decode — for the task body on either transport and the serve
  layer's :func:`decode_picture_into_pool` alike: every slice of the
  batch gets the phase-1 bit-only parse
  (:func:`repro.mpeg2.batched.parse_slice`), then **one**
  :func:`~repro.mpeg2.batched.reconstruct_slices` call reconstructs
  the batch's statically-final rows in place on the shared-memory
  frame pool, reading reference pictures through zero-copy views.
  Only the batch's summed work counters and its corrupt row numbers
  cross the process boundary — pixels and bitstream never do.
* **display** — the parent completes pictures (concealment for corrupt
  rows, publish for dependents), then merges them into display order
  through :class:`DisplayMerger`.

Dispatch: earliest picture first, on credit, inside a frame window
-------------------------------------------------------------------
The parent keeps at most ``2 x workers`` batches in flight (one running
and one queued on the least-loaded worker) and refills one credit per
result from
:meth:`PictureSliceQueue.claim_batch`, which always serves the
**earliest-coded available** picture — the paper's in-order 2-D queue —
in at most ``workers`` batches of ``ceil(slices / workers)`` consecutive
slices, so every worker can take a share of the same picture.  The rule
is work-conserving (while GOP 0 waits for a reference, the next GOP's
I-picture runs) but GOP 0 always has priority, so display order
completes front to back and the first pictures are ready after one
picture time, not after every GOP's I-picture.

Decoded pictures live in a pool of ``max(longest GOP, 2 x workers) + 1``
slots handed out from a free list (:func:`frame_window`); slot numbers
ride in the task.  A picture may start only while it lies within that
many pictures of the first one still holding or needing a slot, and a
slot is freed once its picture **and every picture that references
it** have been emitted.  Pool size thus depends on GOP structure and
worker count, never on stream length (the paper's Fig. 8).  It cannot
deadlock: every picture the oldest slot holder waits for —
display-earlier pictures and dependents — belongs to its own closed
GOP, which fits inside the window.

Bit-exactness
-------------
A slice resets all predictors, so its parse depends on nothing but its
own payload; its reconstruction depends only on the published reference
frames, which the availability rule guarantees are final before any of
the picture's slices start.  Within a picture, slices cover disjoint
macroblock rows, so concurrent in-place writes never overlap — whether
the rows of one batch are reconstructed one call each or all in one.
Duplicate slices (same row twice) are resolved *statically*: the
parser runs for every slice (work counters are exact), but only the
bitstream-last slice of each row carries ``reconstruct=True`` — the
sequential decoder's last-write-wins outcome without a write race.
Every slot is zeroed when it is handed out, so rows no slice covers
read as the sequential decoder's blank frame.  The result is
bit-identical to ``SequenceDecoder.decode_all()``, frames and
counters, pinned by ``tests/parallel/test_mp_slice_parity``.

Stall attribution (paper Table 3 / Fig. 12)
-------------------------------------------
A gate clock starts only when a **free credit** finds nothing it may
dispatch because a picture is unavailable, and stops when that picture
is found available again; at most one clock runs at a time, so the
scheduler's gated seconds never exceed wall seconds.  The wait splits
on release:

* time the picture spent waiting for its references to be published is
  :data:`~repro.obs.stalls.REASON_REF_PUBLISH` — a true data
  dependency, paid by both policies;
* the remainder (simple mode only: waiting for unrelated earlier
  pictures) is :data:`~repro.obs.stalls.REASON_BARRIER` — the
  policy-imposed cost the improved variant eliminates.  By
  construction the improved decoder reports **zero** barrier stall,
  which is exactly the paper's argument for it.

Worker idle time is ``queue.get``; display reordering is
``merge.reorder`` — the same canonical vocabulary as the GOP decoder
and the SMP simulator, so all three report through one
``stall_breakdown()``.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.bitstream.emulation import unescape_payload
from repro.mpeg2.batched import parse_slice, reconstruct_slices
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import (
    SLICE_CORRUPTION_ERRORS,
    DecodeError,
)
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader
from repro.mpeg2.index import StreamIndex
from repro.mpeg2.reconstruct import conceal_rows, missing_rows
from repro.obs.metrics import metrics
from repro.obs.stalls import (
    REASON_BARRIER,
    REASON_MERGE,
    REASON_REF_PUBLISH,
    StallTable,
    record_concealment,
)
from repro.obs.trace import trace_complete, trace_span
from repro.exec.backend import (
    TaskContext,
    fetch_or_raise,
    scan_index,
    team_run,
)
from repro.exec.shm import FrameLayout
from repro.parallel.slice_level import SliceMode


# ======================================================================
# scan: stream index -> coding-order picture/slice plans
# ======================================================================
@dataclass(frozen=True)
class SlicePlan:
    """One slice task: wire byte range + static reconstruction flag.

    ``reconstruct`` is ``True`` for exactly one slice per macroblock
    row — the bitstream-*last* one — realising the sequential
    decoder's last-write-wins semantics for duplicated slices without
    any concurrent-write hazard (every other duplicate is parse-only:
    its work counters still accrue, its pixels never land).
    """

    vertical_position: int
    payload_start: int
    payload_end: int
    reconstruct: bool


@dataclass(frozen=True)
class PicturePlan:
    """Scan product for one picture: everything a worker or the
    scheduler needs, no pixels, fully picklable."""

    #: Global coding-order number.
    order: int
    #: GOP number and coding position within it (diagnostics).
    gop: int
    #: Global display-order number across the stream.
    display_index: int
    header: PictureHeader
    #: Bits of the picture header incl. start code (counter parity).
    header_bits: int
    #: Coding-order numbers of the forward / backward reference
    #: pictures, or ``None`` (I has neither, P no backward).
    fwd: int | None
    bwd: int | None
    slices: tuple[SlicePlan, ...]

    @property
    def dependencies(self) -> tuple[int, ...]:
        return tuple(d for d in (self.fwd, self.bwd) if d is not None)

    @property
    def is_reference(self) -> bool:
        return self.header.picture_type.is_reference


def scan_slice_tasks(index: StreamIndex) -> list[PicturePlan]:
    """Flatten the scan index into coding-order picture plans.

    Validates upfront what the sequential decoder validates lazily —
    closed GOPs only, references present — raising
    :class:`~repro.mpeg2.decoder.DecodeError` with the sequential
    decoder's messages, so malformed streams are rejected identically.
    """
    plans: list[PicturePlan] = []
    base = 0
    display_base = 0
    for gi, gop in enumerate(index.gops):
        if not gop.closed_gop:
            raise DecodeError(
                "GOP-level decode requires closed GOPs (paper assumption)"
            )
        ranks = gop.display_ranks()
        ref_old: int | None = None
        ref_new: int | None = None
        for pos, pic in enumerate(gop.pictures):
            letter = pic.picture_type.letter
            if letter == "I":
                fwd = bwd = None
            elif letter == "P":
                fwd, bwd = ref_new, None
                if fwd is None:
                    raise DecodeError("P-picture without forward reference")
            else:
                fwd, bwd = ref_old, ref_new
                if fwd is None:
                    raise DecodeError("B-picture without forward reference")
                if bwd is None:
                    raise DecodeError("B-picture without backward reference")
            order = base + pos
            # Static duplicate resolution: the bitstream-last slice of
            # each row reconstructs; earlier duplicates are parse-only.
            last_for_row: dict[int, int] = {
                sl.vertical_position: si for si, sl in enumerate(pic.slices)
            }
            plans.append(
                PicturePlan(
                    order=order,
                    gop=gi,
                    display_index=display_base + ranks[pos],
                    header=pic.header(),
                    header_bits=(
                        pic.header_payload_end - pic.header_payload_start + 4
                    )
                    * 8,
                    fwd=base + fwd if fwd is not None else None,
                    bwd=base + bwd if bwd is not None else None,
                    slices=tuple(
                        SlicePlan(
                            vertical_position=sl.vertical_position,
                            payload_start=sl.payload_start,
                            payload_end=sl.payload_end,
                            reconstruct=last_for_row[sl.vertical_position]
                            == si,
                        )
                        for si, sl in enumerate(pic.slices)
                    ),
                )
            )
            if pic.picture_type.is_reference:
                ref_old, ref_new = ref_new, pos
        base += len(gop.pictures)
        display_base += len(gop.pictures)
    return plans


def frame_window(plans: Sequence[PicturePlan], workers: int) -> int:
    """Pool slots for a slice-grain decode of ``plans``.

    ``lookahead + 1``, where lookahead is the longest GOP (so all of
    the GOP the oldest slot holder belongs to can be decoded, which is
    what frees it) or ``2 x workers`` pictures if that is more (so the
    dispatch credit is never starved by the window).  Independent of
    how many GOPs the stream has.
    """
    longest = max(Counter(p.gop for p in plans).values(), default=1)
    return max(longest, 2 * workers) + 1


# ======================================================================
# the 2-D picture/slice queue (pure logic — shared by the mp parent,
# the workers=0 fallback, and the hypothesis property tests)
# ======================================================================
class SliceBatch(NamedTuple):
    """One dispatched task: consecutive slices of one picture, plus the
    pool slots the picture and its references live in."""

    order: int
    sidxs: Sequence[int]
    slot: int
    #: Slots of ``PicturePlan.dependencies``, in that order (forward
    #: first, then backward).
    ref_slots: tuple[int, ...]


class PictureSliceQueue:
    """The 2-D task queue: availability, dispatch credit, frame window.

    The real-silicon twin of the simulated
    :class:`repro.parallel.queues.SliceTaskQueue`: same availability
    rules, same earliest-available-first service order, no simulator.
    It also holds what is in flight and which pool slot each picture
    occupies, so credit, window and never-before-references can be
    property-tested without a process.

    Parameters
    ----------
    slice_counts:
        Slices per picture, coding order.
    dependencies:
        Per picture, the coding-order numbers it references.  Every
        dependency must be *earlier* (MPEG-2 coding order guarantees
        this; the queue enforces it).
    mode:
        ``"simple"`` (every earlier picture must be complete) or
        ``"improved"`` (only the dependencies must be complete).
    workers:
        Sets both bounds on dispatch: a picture is split into at most
        ``workers`` batches, and at most ``2 x workers`` batches (one
        when ``workers`` is 0) are in flight.
    window:
        Pool slots (:func:`frame_window`; ``None``: one per picture).
        A picture may start only within ``window`` pictures of the
        first one that still holds or needs a slot.
    on_gated / on_released:
        Stall attribution: ``on_gated(order)`` fires when a free credit
        finds nothing to dispatch and ``order`` is the earliest picture
        in the way; ``on_released(order)`` when a later claim finds
        that picture available.  At most one picture is gated at a time.
    on_slot:
        ``on_slot(slot)`` fires when a picture is given ``slot``, before
        any of its slices is handed out (the owner blanks the slot).
    """

    def __init__(
        self,
        slice_counts: Sequence[int],
        dependencies: Sequence[Sequence[int]],
        mode: str | SliceMode,
        workers: int = 1,
        window: int | None = None,
        on_gated: Callable[[int], None] | None = None,
        on_released: Callable[[int], None] | None = None,
        on_slot: Callable[[int], None] | None = None,
    ) -> None:
        mode = SliceMode(mode).value
        if len(slice_counts) != len(dependencies):
            raise ValueError("slice_counts and dependencies length mismatch")
        for order, deps in enumerate(dependencies):
            for d in deps:
                if not 0 <= d < order:
                    raise ValueError(
                        f"picture {order} depends on {d}: dependencies must "
                        "be earlier in coding order"
                    )
        self.mode = mode
        self.credit = max(1, 2 * workers)
        self.in_flight = 0
        self._deps = [tuple(dict.fromkeys(d)) for d in dependencies]
        self._counts = list(slice_counts)
        #: Slices per batch: ceil(slices / workers).
        self._per = [-(-c // max(workers, 1)) for c in slice_counts]
        self._next_slice = [0] * len(slice_counts)
        self._remaining = list(slice_counts)
        self._complete = [False] * len(slice_counts)
        self._complete_count = 0
        self._newly_complete: list[int] = []
        #: Zero-slice pictures not yet settled (nothing to hand out).
        self._empty = [o for o, c in enumerate(slice_counts) if c == 0]
        self._head = 0
        self._gate: int | None = None
        self._on_gated = on_gated
        self._on_released = on_released
        self._on_slot = on_slot
        # -- frame window ------------------------------------------------
        self.window = max(len(slice_counts), 1) if window is None else window
        self._free = list(range(self.window - 1, -1, -1))
        self._slot: list[int | None] = [None] * len(slice_counts)
        #: Emissions a picture's slot still waits for: its own and one
        #: per picture that references it.
        self._holds = [1] * len(slice_counts)
        for deps in self._deps:
            for d in deps:
                self._holds[d] += 1
        #: First picture whose slot is not yet back on the free list.
        self._base = 0

    # -- availability --------------------------------------------------
    def _available(self, order: int) -> bool:
        if self.mode == "simple":
            # Every earlier picture (coding order) must be complete.
            return self._complete_count >= order
        # improved: only the references must be complete.
        return all(self._complete[d] for d in self._deps[order])

    def _set_complete(self, order: int) -> None:
        self._complete[order] = True
        self._complete_count += 1
        self._newly_complete.append(order)

    def _limit(self) -> int:
        """One past the last picture the frame window lets start."""
        return min(len(self._counts), self._base + self.window)

    def _acquire(self, order: int) -> int:
        slot = self._slot[order]
        if slot is None:
            slot = self._slot[order] = self._free.pop()
            if self._on_slot is not None:
                self._on_slot(slot)
        return slot

    # -- scheduler side --------------------------------------------------
    def claim_batch(self) -> SliceBatch | None:
        """Claim the next batch; ``None`` if the credit is spent or
        nothing may start right now.

        Serves the earliest-coded available picture inside the frame
        window — the paper's in-order queue: a later picture is served
        only while every earlier one is fully handed out or waiting for
        a reference.  In simple mode nothing after the first
        unavailable picture can be available, so the scan stops there.
        """
        if self.in_flight >= self.credit:
            return None
        blocked: int | None = None
        for order in range(self._head, self._limit()):
            count = self._counts[order]
            if self._next_slice[order] >= count:
                if order == self._head:
                    self._head += 1
                continue
            if not self._available(order):
                if blocked is None:
                    blocked = order
                if self.mode == "simple":
                    break
                continue
            if order == self._gate:
                self._gate = None
                if self._on_released is not None:
                    self._on_released(order)
            start = self._next_slice[order]
            stop = self._next_slice[order] = min(count, start + self._per[order])
            self.in_flight += 1
            return SliceBatch(
                order,
                range(start, stop),
                self._acquire(order),
                tuple(self._slot[d] for d in self._deps[order]),
            )
        if blocked is not None and self._gate is None:
            self._gate = blocked
            if self._on_gated is not None:
                self._on_gated(blocked)
        return None

    def complete_batch(self, order: int, slices: int) -> bool:
        """Report one finished batch of ``slices`` slices of ``order``
        (returns its credit); ``True`` if that completed the picture."""
        done = self._counts[order] - self._remaining[order]
        if not 0 < slices <= self._next_slice[order] - done:
            raise ValueError(f"picture {order} has no outstanding slices")
        self.in_flight -= 1
        self._remaining[order] -= slices
        if self._remaining[order] == 0:
            self._set_complete(order)
            return True
        return False

    def take_completed(self) -> list[int]:
        """Pictures completed since the last call, for the caller to
        publish **before** it claims again: finished by a batch, or
        zero-slice pictures that settle here because they are available
        and inside the window (they take a slot — dependents and the
        display read it blank — but there is nothing to hand out)."""
        limit = self._limit()
        for order in [o for o in self._empty if o < limit]:
            if self._available(order):
                self._empty.remove(order)
                self._acquire(order)
                self._set_complete(order)
        out, self._newly_complete = self._newly_complete, []
        return out

    def mark_emitted(self, order: int) -> None:
        """``order`` has left the display merger: drop its hold on its
        own slot and on its references' slots, freeing those no later
        emission waits for."""
        for d in (order, *self._deps[order]):
            self._holds[d] -= 1
            if self._holds[d] == 0:
                self._free.append(self._slot[d])
                self._slot[d] = None
        while self._base < len(self._holds) and not self._holds[self._base]:
            self._base += 1

    # -- diagnostics -----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._complete_count == len(self._counts)

    @property
    def pictures_complete(self) -> int:
        return self._complete_count

    def is_complete(self, order: int) -> bool:
        return self._complete[order]

    def slot_of(self, order: int) -> int | None:
        """Pool slot ``order`` occupies (``None`` when it has none)."""
        return self._slot[order]


class DisplayMerger:
    """Reorder completed items into display order (pure logic).

    The display process's reorder buffer, shared by the GOP merge, the
    slice merge and the serve sessions: completions arrive in
    load-dependent order; :meth:`push` banks one and returns the run of
    items that are now emittable in display order.  The paper's display
    process plays exactly this role with its picture reorder queue.

    ``on_hold(item, since_ns, held_ns)`` (optional) fires when an item
    that had to wait for an earlier one is released — the
    ``merge.reorder`` stall.
    """

    def __init__(
        self,
        total: int,
        on_hold: Callable[[object, int, int], None] | None = None,
    ) -> None:
        if total < 0:
            raise ValueError(f"negative picture count: {total}")
        self.total = total
        self._pending: dict[int, object] = {}
        self._next = 0
        self._on_hold = on_hold
        self._held_since: dict[int, int] = {}
        #: High-water mark of the reorder buffer (memory diagnostics).
        self.max_depth = 0

    def push(self, display_index: int, item) -> list:
        if not 0 <= display_index < self.total:
            raise ValueError(
                f"display index {display_index} out of range 0..{self.total - 1}"
            )
        if display_index < self._next or display_index in self._pending:
            raise ValueError(f"display index {display_index} pushed twice")
        self._pending[display_index] = item
        self.max_depth = max(self.max_depth, len(self._pending))
        if self._on_hold is not None and display_index != self._next:
            self._held_since[display_index] = time.monotonic_ns()
        out = []
        while self._next in self._pending:
            item = self._pending.pop(self._next)
            since = self._held_since.pop(self._next, None)
            if since is not None:
                self._on_hold(item, since, time.monotonic_ns() - since)
            out.append(item)
            self._next += 1
        return out

    def finish(self, what: str) -> None:
        """Raise if any index was never pushed (a lost result)."""
        if not self.done:
            missing = sorted(
                set(range(self._next, self.total)) - self._pending.keys()
            )
            raise RuntimeError(f"worker pool lost {what}: {missing}")

    @property
    def emitted(self) -> int:
        return self._next

    @property
    def held(self) -> int:
        return len(self._pending)

    @property
    def done(self) -> bool:
        return self._next == self.total


def record_merge_hold(
    stalls: StallTable, since_ns: int, held_ns: int, **ident
) -> None:
    """Book one reorder-buffer hold as the ``merge.reorder`` stall."""
    stalls.record("merge", REASON_MERGE, held_ns / 1e9)
    trace_complete(
        "mp.merge.hold", "stall", since_ns, held_ns,
        reason=REASON_MERGE, **ident,
    )


# ======================================================================
# the task body (worker loop, workers=0 path and the serve layer)
# ======================================================================
def decode_batch_into_pool(
    data: bytes | memoryview,
    plan: PicturePlan,
    batch: SliceBatch,
    seq: SequenceHeader,
    mb_width: int,
    mb_height: int,
    pool,
    resilient: bool,
) -> tuple[WorkCounters, list[int]]:
    """Decode one batch of one picture of ``data`` in place on ``pool``.

    Parses **every** slice of ``batch`` (duplicates included, so work
    counters match the sequential oracle exactly), then reconstructs
    the statically-final slices among them with one
    :func:`reconstruct_slices` call into slot ``batch.slot``
    (references read through zero-copy views of ``batch.ref_slots`` —
    the availability rule must already hold).  ``pool`` is any
    :class:`repro.exec.shm.FramePoolBase`.

    Returns the batch's summed work counters and the macroblock rows
    whose final slice was corrupt: a corrupt slice is skipped and
    counted in ``concealed_slices`` when ``resilient`` (the caller's
    end-of-picture :func:`conceal_in_pool` sweep repairs the rows) and
    raises otherwise — exactly the sequential decoder's contract.
    """
    counters = WorkCounters()
    corrupt_rows: list[int] = []
    parses = []
    for sidx in batch.sidxs:
        sl = plan.slices[sidx]
        # bytes() materialises shared-memory views (workers read the
        # stream from an arena); for a bytes slice it is a no-op.
        payload = unescape_payload(bytes(data[sl.payload_start : sl.payload_end]))
        try:
            with trace_span(
                "mp.slice.parse", cat="mp",
                order=plan.order, row=sl.vertical_position,
            ):
                sp = parse_slice(
                    payload, sl.vertical_position, plan.header,
                    mb_width, mb_height, plan.fwd is not None,
                )
        except SLICE_CORRUPTION_ERRORS:
            if not resilient:
                raise
            counters.concealed_slices += 1
            if sl.reconstruct:
                corrupt_rows.append(sl.vertical_position - 1)
            continue
        counters.add(sp.counters)
        if sl.reconstruct:
            parses.append(sp)
    if parses:
        out = pool.view_frame(batch.slot, plan.header.temporal_reference)
        fwd, bwd = (*map(pool.view_frame, batch.ref_slots), None, None)[:2]
        try:
            with trace_span(
                "mp.slice.reconstruct", cat="mp",
                order=plan.order, slices=len(parses),
            ):
                reconstruct_slices(parses, seq, plan.header, out, fwd, bwd)
        finally:
            del out, fwd, bwd
    return counters, corrupt_rows


def conceal_in_pool(
    plan: PicturePlan,
    corrupt_rows,
    slot: int,
    fwd_slot: int | None,
    mb_height: int,
    pool,
    resilient: bool,
) -> tuple[int, int, int]:
    """End-of-picture concealment sweep on a frame pool.

    Rows whose *final* slice was corrupt, plus — when ``resilient`` —
    rows no slice covered at all (lost on the wire), get the
    sequential decoder's :func:`conceal_rows` sweep.  Returns
    ``(lost rows, temporal, spatial)`` counts.
    """
    lost: list[int] = []
    if resilient:
        covered = (sl.vertical_position - 1 for sl in plan.slices)
        lost = missing_rows(mb_height, covered)
    rows = set(corrupt_rows).union(lost)
    if not rows:
        return 0, 0, 0
    out = pool.view_frame(slot, plan.header.temporal_reference)
    fwd = pool.view_frame(fwd_slot) if fwd_slot is not None else None
    try:
        return (len(lost), *conceal_rows(out, fwd, rows))
    finally:
        del out, fwd


def decode_picture_into_pool(
    data: bytes | memoryview,
    plan: PicturePlan,
    seq: SequenceHeader,
    mb_width: int,
    mb_height: int,
    pool,
    resilient: bool,
    counters: WorkCounters | None = None,
) -> int:
    """Decode one whole picture into ``pool`` slot ``plan.order``.

    The picture-granularity composition the serve layer runs (its pools
    have one slot per picture, so slots are coding-order numbers): one
    :func:`decode_batch_into_pool` over every slice, then the
    :func:`conceal_in_pool` sweep.

    Returns the number of concealed slices (0 unless ``resilient``);
    raises the slice-corruption error when ``resilient`` is off.
    """
    batch = SliceBatch(
        plan.order, range(len(plan.slices)), plan.order, plan.dependencies
    )
    done, corrupt_rows = decode_batch_into_pool(
        data, plan, batch, seq, mb_width, mb_height, pool, resilient
    )
    lost, _, _ = conceal_in_pool(
        plan, corrupt_rows, plan.order, plan.fwd, mb_height, pool, resilient
    )
    done.concealed_slices += lost
    if counters is not None:
        counters.add(done)
    return done.concealed_slices


# ======================================================================
# what a worker is given: the session state and the batch task body
# ======================================================================
def picture_state(
    plans: list[PicturePlan], index: StreamIndex, resilient: bool
) -> dict:
    """The immutable picture-grain decode context of one stream —
    shipped to every worker once, at attach (slice decoder and serve
    sessions alike)."""
    return {
        "plans": plans,
        "seq": index.sequence_header,
        "mb_width": index.mb_width,
        "mb_height": index.mb_height,
        "resilient": resilient,
    }


def decode_batch(ctx: TaskContext, key, batch: SliceBatch) -> tuple:
    """Task body: one :func:`decode_batch_into_pool` on the session's
    pool.  Returns ``(order, slices, counters, corrupt_rows)``; a
    corrupt slice when not resilient, or a failure inside the fused
    reconstruct, is raised — the runtime reports it as an ``err``
    result for the parent to re-raise, never as a dead worker."""
    state = ctx.state
    return (batch.order, len(batch.sidxs)) + decode_batch_into_pool(
        ctx.data, state["plans"][batch.order], batch, state["seq"],
        state["mb_width"], state["mb_height"], ctx.pool, state["resilient"],
    )


# ======================================================================
# the decoder
# ======================================================================
class MPSliceDecoder:
    """Slice-level parallel decoder on real cores (paper Section 5.2).

    Parameters
    ----------
    data:
        The complete coded stream.
    index:
        Optional pre-built scan index (shared between the scan step and
        the workers, as in the paper).
    workers:
        ``0`` runs the identical queue/claim/complete pipeline
        in-process (deterministic CI path, no processes); ``>= 1``
        spawns that many persistent OS worker processes.  ``None``
        uses the available CPU count.
    mode:
        ``"simple"`` barriers after every picture; ``"improved"``
        (default) barriers only after reference pictures, letting
        consecutive B-pictures interleave.
    resilient:
        Conceal corrupt slices instead of failing (identical
        last-action-wins semantics to the sequential decoder).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``"fork"`` on Linux keeps the coded bytes copy-on-write).
    """

    def __init__(
        self,
        data: bytes,
        index: StreamIndex | None = None,
        workers: int | None = None,
        mode: str | SliceMode = SliceMode.IMPROVED,
        resilient: bool = False,
        start_method: str | None = None,
        _crash_task: tuple[int, int] | None = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.data = data
        self.index = scan_index(data, index)
        self.workers = workers
        self.mode = SliceMode(mode)
        self.resilient = resilient
        self.start_method = start_method
        #: Test-only fault injection: the worker that picks up this
        #: ``(picture_order, slice_index)`` dies with ``os._exit``.
        self._crash_task = _crash_task
        self.seq = self.index.sequence_header
        self.layout = FrameLayout.for_display(self.seq.width, self.seq.height)
        self.plans = scan_slice_tasks(self.index)
        #: Shared-pool bytes the last parallel run allocated; 0 for the
        #: in-process path.
        self.last_pool_bytes = 0
        #: Stall attribution for the last run (wall seconds, canonical
        #: :mod:`repro.obs.stalls` reasons; workers + scheduler).
        self.last_stalls = StallTable()
        #: Wall seconds of the last decode.
        self.last_wall_seconds = 0.0

    # ------------------------------------------------------------------
    def stall_breakdown(self) -> dict[str, float]:
        """Fraction of aggregate process time blocked, per reason.

        Denominator: ``wall seconds x (worker processes + scheduler)``
        — directly comparable with ``MPGopDecoder.stall_breakdown()``
        and the simulator's ``finish_cycles x processes``.
        """
        procs = self.workers + 1 if self.workers else 1
        return self.last_stalls.breakdown(self.last_wall_seconds * procs)

    def _base_counters(self) -> WorkCounters:
        """GOP + picture header contributions (the parent's share).

        The sequential decoder charges one header + its wire bits per
        GOP and per picture; slice headers/bits are charged inside
        :func:`parse_slice` by whichever process parses the slice.
        """
        c = WorkCounters()
        for gop in self.index.gops:
            c.headers += 1
            c.bits += (gop.header_payload_end - gop.header_payload_start + 4) * 8
        for plan in self.plans:
            c.headers += 1
            c.bits += plan.header_bits
        return c

    # ------------------------------------------------------------------
    def decode_all(self, counters: WorkCounters | None = None) -> list[Frame]:
        """Decode the whole stream to display-ordered frames.

        Bit-identical to ``SequenceDecoder(data).decode_all()`` —
        frames *and* aggregate work counters.
        """
        return list(self.iter_frames(counters))

    def iter_frames(
        self, counters: WorkCounters | None = None
    ) -> Iterator[Frame]:
        """Yield decoded frames in display order."""
        if counters is not None:
            counters.add(self._base_counters())
        self.last_stalls = stalls = StallTable()
        workers = self.workers
        reg = metrics()
        depth_gauge = reg.gauge("queue.depth")
        dispatch_msgs = reg.counter("mp.dispatch.messages")
        crash_order, crash_sidx = self._crash_task or (None, None)
        t_run = time.perf_counter()
        try:
            with team_run(
                workers, self.start_method, decode_batch, self.data,
                self.layout, frame_window(self.plans, workers),
                picture_state(self.plans, self.index, self.resilient),
            ) as (team, sid, pool):
                self.last_pool_bytes = pool.nbytes if workers else 0

                def submit(batch: SliceBatch) -> None:
                    # One running and one queued batch per worker: the
                    # credit (2 x workers) always leaves one with room.
                    crash = (
                        batch.order == crash_order
                        and crash_sidx in batch.sidxs
                    )
                    team.submit(
                        team.free(2)[0], sid,
                        (batch.order, batch.sidxs[0]), batch,
                        "crash" if crash else None,
                    )
                    depth_gauge.inc()
                    dispatch_msgs.inc()

                def fetch() -> tuple:
                    result = fetch_or_raise(
                        team, stalls, "slice", "picture", "slice"
                    )
                    depth_gauge.dec()
                    return result

                yield from self._schedule(counters, pool, submit, fetch)
        finally:
            self.last_wall_seconds = time.perf_counter() - t_run

    # ------------------------------------------------------------------
    # the scheduler: one loop for both transports
    # ------------------------------------------------------------------
    def _schedule(
        self,
        counters: WorkCounters | None,
        pool,
        submit: Callable[[SliceBatch], None],
        fetch: Callable[[], tuple],
    ) -> Iterator[Frame]:
        """Claim on credit, publish, merge, emit — to the last picture.

        ``submit`` hands a batch to the team and ``fetch`` returns the
        next ``(order, slices, counters, corrupt_rows)`` result (or
        raises what the task raised); worker processes and the
        in-process transport differ in nothing else.
        """
        plans = self.plans
        stalls = self.last_stalls
        mb_height = self.index.mb_height
        gated_since: dict[int, int] = {}
        publish_ns: dict[int, int] = {}

        def on_gated(order: int) -> None:
            gated_since[order] = time.monotonic_ns()

        def on_released(order: int) -> None:
            t0 = gated_since.pop(order)
            now = time.monotonic_ns()
            total_s = (now - t0) / 1e9
            if self.mode is SliceMode.IMPROVED:
                # The improved rule gates only on unpublished
                # references: the whole wait is a true data dependency.
                ref_s, barrier_s = total_s, 0.0
            else:
                # Simple rule: split the wait into the part covered by
                # reference publication (true dependency) and the
                # remainder — the policy-imposed per-picture barrier
                # the improved variant removes.
                dep_ns = max(
                    (publish_ns.get(d, t0) for d in plans[order].dependencies),
                    default=t0,
                )
                ref_s = max(0.0, (min(dep_ns, now) - t0) / 1e9)
                barrier_s = max(0.0, total_s - ref_s)
            if ref_s > 0.0:
                stalls.record("scheduler", REASON_REF_PUBLISH, ref_s)
            if barrier_s > 0.0:
                stalls.record("scheduler", REASON_BARRIER, barrier_s)
            reason = REASON_BARRIER if barrier_s > 0.0 else REASON_REF_PUBLISH
            trace_complete(
                "mp.slice.gate", "stall", t0, now - t0,
                order=order, reason=reason,
            )

        q = PictureSliceQueue(
            [len(p.slices) for p in plans],
            [p.dependencies for p in plans],
            self.mode,
            workers=self.workers,
            window=pool.slots,
            on_gated=on_gated,
            on_released=on_released,
            on_slot=pool.clear_frame,
        )
        merger = DisplayMerger(
            len(plans),
            on_hold=(
                (lambda o, t0, ns: record_merge_hold(stalls, t0, ns, order=o))
                if self.workers
                else None
            ),
        )
        corrupt_rows: dict[int, list[int]] = {}

        def publish(completed: list[int]) -> list[int]:
            """Publish newly complete pictures (conceal + record
            publish time + bank in the display merger); return the
            display-ready run.  Runs *before* the next claim so the
            stall split sees fresh publish times; the caller emits the
            returned frames after dispatching, keeping workers fed."""
            ready: list[int] = []
            for order in completed:
                plan = plans[order]
                fwd_slot = q.slot_of(plan.fwd) if plan.fwd is not None else None
                t0 = time.perf_counter()
                lost, n_t, n_s = conceal_in_pool(
                    plan, corrupt_rows.pop(order, ()), q.slot_of(order),
                    fwd_slot, mb_height, pool, self.resilient,
                )
                record_concealment(
                    stalls, "scheduler", n_t, n_s, time.perf_counter() - t0
                )
                if counters is not None:
                    counters.concealed_slices += lost
                publish_ns[order] = time.monotonic_ns()
                ready.extend(merger.push(plan.display_index, order))
            return ready

        def emit(ready: list[int]) -> Iterator[Frame]:
            for done in ready:
                with trace_span("mp.shm.read", cat="mp", order=done):
                    frame = pool.read_frame(
                        q.slot_of(done), plans[done].header.temporal_reference
                    )
                q.mark_emitted(done)
                yield frame

        def pump() -> Iterator[Frame]:
            # Emitting frees slots, which may let more pictures start or
            # settle: go round until a round completes nothing.
            completed = True
            while completed:
                completed = q.take_completed()
                ready = publish(completed)
                while (batch := q.claim_batch()) is not None:
                    submit(batch)
                yield from emit(ready)

        yield from pump()
        while q.in_flight:
            order, slices, done, rows = fetch()
            if counters is not None:
                counters.add(done)
            if rows:
                corrupt_rows.setdefault(order, []).extend(rows)
            q.complete_batch(order, slices)
            yield from pump()
        if not q.done:  # pragma: no cover - defensive
            raise RuntimeError(
                "picture/slice queue stuck with incomplete pictures"
            )


def decode_slice_parallel(
    data: bytes,
    workers: int | None = None,
    mode: str | SliceMode = SliceMode.IMPROVED,
    resilient: bool = False,
    start_method: str | None = None,
) -> list[Frame]:
    """Convenience: slice-parallel decode to display-ordered frames."""
    return MPSliceDecoder(
        data,
        workers=workers,
        mode=mode,
        resilient=resilient,
        start_method=start_method,
    ).decode_all()
