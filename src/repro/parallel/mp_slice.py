"""Real-hardware slice-level parallel decoding with OS processes.

:mod:`repro.parallel.mp` brings the paper's **GOP-level** decomposition
(Section 5.1) to real cores; this module does the same for the
**slice-level** decomposition (Section 5.2), the one the paper finds
superior on latency and memory.  Tasks are batches of a picture's
slices, and *when* a picture's slices may start is the edges of the
slice-grain task graph (:func:`~repro.exec.plan.add_slice_picture`);
the two synchronisation policies of the simulated
:class:`repro.parallel.slice_level.SliceLevelDecoder` are two
topologies of it:

* ``simple`` — besides its reference edges, every picture carries a
  **barrier edge** from the picture before it: its slices become
  available only when every earlier picture (coding order) is complete.
* ``improved`` — **reference edges only**: a picture's slices become
  available as soon as its reference pictures have been decoded and
  published, so consecutive B-pictures interleave freely and the
  barrier survives only after I/P pictures.

The paper's three roles map onto real primitives:

* **scan** — a stage, done a GOP at a time.  When the frame window
  (:func:`gop_frame_window`, sized from the first GOP: pool size
  depends on GOP structure and worker count, never on stream length —
  the paper's Fig. 8 — and cannot deadlock; argument in DESIGN §2.4)
  first reaches a GOP, the parent pulls the GOP off the
  :class:`repro.mpeg2.index.IndexCursor` (one start-code window, no
  decoding), copies its bytes into the shared arena, turns it into
  coding-order :class:`PicturePlan` records (byte ranges, reference
  links, display indices;
  :func:`~repro.exec.plan.scan_gop_pictures`) and the pure-logic
  :class:`PictureSliceQueue` plans them onto its live graph, so the
  work before picture 0 does not grow with the stream.  A later GOP
  the window cannot hold ends the run at that GOP boundary, and the
  next run is sized for it.  The queue dispatches from that graph:
  earliest ready batch first (the paper's in-order 2-D queue —
  work-conserving, but GOP 0 always has priority, so display order
  completes front to back), on a credit of ``2 x workers`` batches,
  and only inside the frame window.
* **workers** — the warm :class:`repro.exec.backend.WorkerTeam`
  shared with the GOP decoder and the serve layer, fed by the one
  parent loop (:mod:`repro.exec.dispatch`); this module only supplies
  the partition and the policy (:class:`MPSliceDecoder`'s hooks): a
  session context (:func:`picture_state`, the same size whatever the
  stream's length) and a task body (:func:`decode_batch`) run per
  :class:`SliceBatch`, which carries its picture's header and its own
  slices' byte ranges.
  The coded stream is published into shared memory a GOP at a time, as
  the scan reaches it; workers attach by name and slice payload byte
  ranges straight out of the segment.  The decode is the picture
  kernel (:mod:`repro.mpeg2.kernel`) that every batched path runs,
  split at its seam: the task body runs phase 1 on every slice of the
  batch and then **one** phase-2
  reconstruct of the batch's statically-final rows, in place on the
  shared-memory frame pool, reading reference pictures through
  zero-copy views; the picture's conceal sweep waits for its
  ``publish`` step.  Only the batch's summed work counters and its
  corrupt row numbers cross the process boundary — pixels and
  bitstream never do.
* **display** — a picture's ``publish`` node, released by its last
  batch, is the parent's step: concealment for corrupt rows, publish
  for dependents, then the merge into display order through
  :class:`DisplayMerger`.

Bit-exactness
-------------
A slice resets all predictors, so its parse depends on nothing but its
own payload; its reconstruction depends only on the published reference
frames, which the availability rule guarantees are final before any of
the picture's slices start.  Within a picture, slices cover disjoint
macroblock rows, so concurrent in-place writes never overlap — whether
the rows of one batch are reconstructed one call each or all in one.
Duplicate slices resolve statically, by the kernel's
:func:`~repro.mpeg2.kernel.last_in_row` tag: no write race.  The pool
is created zero-filled and a slot is zeroed again when it is handed out
a second time, so rows no slice covers read as the sequential decoder's
blank frame.  The result is
bit-identical to ``SequenceDecoder.decode_all()``, frames and
counters, pinned by ``tests/parallel/test_mp_slice_parity``.

Stall attribution (paper Table 3 / Fig. 12)
-------------------------------------------
A gate clock starts only when a **free credit** finds nothing it may
dispatch because a picture waits on an edge, and stops when that
picture is claimed; at most one clock runs at a time, so the
scheduler's gated seconds never exceed wall seconds.  The wait splits
by edge kind: the part that ended when the picture's last reference
edge published is :data:`~repro.obs.stalls.REASON_REF_PUBLISH` — a true
data dependency, paid by both policies; the remainder, which only a
barrier edge can cause, is :data:`~repro.obs.stalls.REASON_BARRIER` —
the policy-imposed cost.  The improved plan has no barrier edge, so it
reports **zero** barrier stall, which is exactly the paper's argument
for it.

Worker idle time is ``queue.get``; display reordering is
``merge.reorder`` — the same canonical vocabulary as the GOP decoder
and the SMP simulator, so all three report through one
``stall_breakdown()``.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.constants import mb_ceil
from repro.mpeg2.headers import PictureHeader, SequenceHeader
from repro.mpeg2.index import GopIndex, scan_faults_first
from repro.mpeg2.kernel import conceal, parse_slices, read_slices, reconstruct
from repro.obs.metrics import metrics
from repro.obs.stalls import (
    REASON_BARRIER,
    REASON_REF_PUBLISH,
    record_concealment,
)
from repro.obs.trace import trace_complete, trace_span
from repro.exec.backend import TaskContext
from repro.exec.dispatch import StreamDecoder
from repro.exec.graph import COMPLETED, DISPATCHED, PENDING, TaskGraph
from repro.exec.plan import (
    PicturePlan,
    SlicePlan,
    add_slice_picture,
    scan_gop_pictures,
)
from repro.parallel.merge import DisplayMerger, record_merge_hold
from repro.parallel.slice_level import SliceMode


# ======================================================================
# the frame window (the slot resource of the slice plan)
# ======================================================================
def gop_frame_window(gop_sizes: Iterable[int], workers: int) -> int:
    """Pool slots for a slice-grain decode of GOPs of ``gop_sizes``
    pictures.

    ``lookahead + 1``, where lookahead is the longest GOP (so all of
    the GOP the oldest slot holder belongs to can be decoded, which is
    what frees it) or ``2 x workers`` pictures if that is more (so the
    dispatch credit is never starved by the window).  Independent of
    how many GOPs the stream has.
    """
    return max(max(gop_sizes, default=1), 2 * workers) + 1


# ======================================================================
# the 2-D picture/slice queue (pure logic — shared by the mp parent,
# the workers=0 fallback, and the hypothesis property tests)
# ======================================================================
class SliceBatch(NamedTuple):
    """One dispatched task: consecutive slices of one picture, plus the
    pool slots the picture and its references live in.

    The queue hands out the first four fields; :meth:`of` adds what a
    worker needs of the picture's plan, as plain values so the task
    pickles in about 250 bytes — the header
    (:meth:`~repro.mpeg2.headers.PictureHeader.values`) and each of
    these slices' ``(vertical_position, payload_start, payload_end,
    reconstruct)`` — so no worker holds the stream's plans."""

    order: int
    sidxs: Sequence[int]
    slot: int
    #: Slots of ``PicturePlan.dependencies``, in that order (forward
    #: first, then backward).
    ref_slots: tuple[int, ...]
    header: tuple = ()
    slices: tuple[tuple, ...] = ()

    def of(self, plan: PicturePlan) -> "SliceBatch":
        """This batch as a task: ``plan``'s header and the slice plans
        of ``sidxs`` filled in."""
        return self._replace(
            header=plan.header.values(),
            slices=tuple(tuple(plan.slices[i]) for i in self.sidxs),
        )


class PictureSliceQueue:
    """The slice-grain dispatch policy: credit, frame window, gate clock.

    The real-silicon twin of the simulated
    :class:`repro.parallel.queues.SliceTaskQueue`.  *When* a picture's
    slices may start is not decided here: the queue holds the
    slice-grain graph of the stream (:func:`~repro.exec.plan.
    add_slice_picture` per picture, the nodes of
    :func:`~repro.exec.plan.plan_slice_graph`) and serves its ready
    set earliest-planned first — the paper's in-order 2-D queue — so
    ``simple`` and ``improved`` differ only in the edges of that graph.
    What the queue adds is the resources a ready batch still needs: a
    dispatch credit and a pool slot inside the frame window.  It runs
    no process, so credit, window and never-before-references can be
    property-tested without one.

    The graph is planned a GOP at a time, when the frame window first
    reaches the GOP, so what the queue holds before the first dispatch
    does not grow with the stream — nor does the stream need to be
    known past that GOP: ``gop_sizes`` is read one GOP at a time.

    Parameters
    ----------
    slice_counts:
        Slices per picture, coding order.
    dependencies:
        Per picture, the coding-order numbers it references.  Every
        dependency must be *earlier* (MPEG-2 coding order guarantees
        this; the plan enforces it) and in the picture's own GOP
        (closed GOPs guarantee that).
    mode:
        ``"simple"`` (every earlier picture must be complete) or
        ``"improved"`` (only the dependencies must be complete).
    gop_sizes:
        Pictures per GOP, coding order: any iterable, read one GOP at a
        time, when the frame window first reaches the GOP and before the
        queue reads that GOP's entries of ``slice_counts`` and
        ``dependencies`` — an owner may append them there as it yields
        the GOP's size, so it builds a GOP's plans only when the GOP is
        needed.  The stream ends where the iterable does.
    window:
        Pool slots (:func:`gop_frame_window`).  A picture may start
        only within ``window`` pictures of the first one that still
        holds or needs a slot.
    workers:
        Sets both bounds on dispatch: a picture is split into at most
        ``workers`` batches, and at most ``2 x workers`` batches (one
        when ``workers`` is 0) are in flight.
    on_gated / on_released:
        Stall attribution: ``on_gated(order)`` fires when a free credit
        finds nothing to dispatch and ``order`` is the earliest picture
        in the way; ``on_released(order)`` when a later claim finds
        that picture available.  At most one picture is gated at a time.
    on_slot:
        ``on_slot(slot)`` fires when a picture is given ``slot``, before
        any of its slices is handed out.
    """

    def __init__(
        self,
        slice_counts: Sequence[int],
        dependencies: Sequence[Sequence[int]],
        mode: str | SliceMode,
        gop_sizes: Sequence[int],
        window: int,
        workers: int = 1,
        on_gated: Callable[[int], None] | None = None,
        on_released: Callable[[int], None] | None = None,
        on_slot: Callable[[int], None] | None = None,
    ) -> None:
        self.mode = SliceMode(mode).value
        if len(slice_counts) != len(dependencies):
            raise ValueError("slice_counts and dependencies length mismatch")
        self.graph = TaskGraph()
        self._workers = workers
        self.credit = max(1, 2 * workers)
        self._counts = slice_counts
        self._dependencies = dependencies
        self._gop_sizes = iter(gop_sizes)
        #: GOPs planned so far, and whether ``gop_sizes`` has ended.
        self._gops_planned = 0
        self._ended = False
        #: Per planned picture: its deduplicated dependencies, its batch
        #: nodes, its slot, and the emissions its slot still waits for
        #: (its own and one per picture that references it).
        self._deps: list[tuple[int, ...]] = []
        self._batches: list[list] = []
        self._slot: list[int | None] = []
        self._holds: list[int] = []
        #: ``_head`` is the first picture that may still have a batch
        #: pending (where a gate clock goes).
        self._head = 0
        self._newly_complete: list[int] = []
        self._gate: int | None = None
        self._on_gated = on_gated
        self._on_released = on_released
        self._on_slot = on_slot
        # -- frame window ------------------------------------------------
        self.window = window
        self._free = list(range(self.window - 1, -1, -1))
        #: First picture whose slot is not yet back on the free list.
        self._base = 0
        self._reach()

    def _reach(self) -> None:
        """Plan every GOP the frame window has reached."""
        while len(self._slot) < self._limit():
            gop, first = self._gops_planned, len(self._slot)
            t0, nodes = time.monotonic_ns(), self.graph.planned
            size = next(self._gop_sizes, None)
            if size is None:
                self._ended = True
                return
            for order in range(first, first + size):
                deps = tuple(dict.fromkeys(self._dependencies[order]))
                outside = [d for d in deps if 0 <= d < first]
                if outside:
                    raise ValueError(
                        f"picture {order} depends on {outside}, outside "
                        f"its GOP (pictures {first} onwards)"
                    )
                batches = add_slice_picture(
                    self.graph, order, self._counts[order], deps,
                    self.mode, self._workers,
                )
                self._batches.append([self.graph.nodes[t] for t in batches])
                self._deps.append(deps)
                self._slot.append(None)
                self._holds.append(1)
                for d in deps:
                    self._holds[d] += 1
            self._gops_planned += 1
            trace_complete(
                "mp.plan", "mp", t0, time.monotonic_ns() - t0, gop=gop,
                pictures=size, nodes=self.graph.planned - nodes,
            )

    @property
    def in_flight(self) -> int:
        """Batches out (``publish`` steps never stay dispatched)."""
        return self.graph.in_flight

    @property
    def pictures(self) -> int:
        """Pictures planned so far (the stream's, once :attr:`done`)."""
        return len(self._slot)

    def _limit(self) -> int:
        """One past the last picture the frame window lets start."""
        limit = self._base + self.window
        return min(self.pictures, limit) if self._ended else limit

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

        Serves the earliest-planned ready batch if its picture lies
        inside the frame window: a later picture is served only while
        every earlier one is fully handed out or waiting on an edge.
        """
        if self.in_flight >= self.credit:
            return None
        node = self.graph.first_ready()
        if node is not None and node.order < self._limit():
            if node.order == self._gate:
                self._gate = None
                if self._on_released is not None:
                    self._on_released(node.order)
            self.graph.dispatch(node.tid)
            return SliceBatch(
                node.order,
                node.payload,
                self._acquire(node.order),
                tuple(self._slot[d] for d in self._deps[node.order]),
            )
        if self._gate is None:
            # A free credit found nothing to place: the clock goes on
            # the earliest picture with slices still waiting on an edge
            # (not on one that is ready but outside the window).
            state = self.graph.state
            while self._head < len(self._batches) and not any(
                state[b.tid] == PENDING for b in self._batches[self._head]
            ):
                self._head += 1
            head = self._head
            if head < self._limit() and (node is None or node.order != head):
                self._gate = head
                if self._on_gated is not None:
                    self._on_gated(head)
        return None

    def _settle(self, publish) -> None:
        """Complete a ready ``publish`` node on the caller's behalf."""
        self.graph.dispatch(publish.tid)
        self._acquire(publish.order)
        self.graph.complete(publish.tid)
        self._newly_complete.append(publish.order)

    def complete_batch(self, order: int, slices: int) -> bool:
        """Report one finished batch of ``slices`` slices of ``order``
        (returns its credit); ``True`` if that completed the picture."""
        for node in self._batches[order]:
            if (
                self.graph.state[node.tid] == DISPATCHED
                and len(node.payload) == slices
            ):
                # Only the picture's publish step waits on a batch, and
                # the last one releases it.
                released = self.graph.complete(node.tid)
                for publish in released:
                    self._settle(publish)
                return bool(released)
        raise ValueError(f"picture {order} has no outstanding slices")

    def take_completed(self) -> list[int]:
        """Pictures completed since the last call, for the caller to
        publish **before** it claims again (their ``publish`` nodes are
        completed here on its behalf): finished by a batch, or
        zero-slice pictures that settle here because their edges are
        met and they are inside the window (they take a slot —
        dependents and the display read it blank — but there is nothing
        to hand out)."""
        while (
            node := self.graph.first_ready(publish=True)
        ) is not None and node.order < self._limit():
            self._settle(node)
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
        self._reach()

    # -- diagnostics -----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._ended and self.graph.completed == self.graph.planned

    @property
    def pictures_complete(self) -> int:
        return sum(map(self.is_complete, range(len(self._slot))))

    def is_complete(self, order: int) -> bool:
        return self.graph.state.get(f"p{order}.publish") == COMPLETED

    def slot_of(self, order: int) -> int | None:
        """Pool slot ``order`` occupies (``None`` when it has none, or
        is not planned yet)."""
        return self._slot[order] if order < len(self._slot) else None


# ======================================================================
# what a worker is given: the session state and the batch task body
# ======================================================================
def base_counters(gops: Iterable[GopIndex]) -> WorkCounters:
    """GOP + picture header contributions of ``gops`` (the parent's
    share).

    The sequential decoder charges one header + its wire bits per GOP
    and per picture; slice headers/bits are charged by the picture
    kernel's phase 1 in whichever process parses the slice.
    """
    c = WorkCounters()
    for gop in gops:
        for header in (gop, *gop.pictures):
            c.headers += 1
            c.bits += header.header_bits
    return c


def picture_state(seq: SequenceHeader, resilient: bool) -> dict:
    """The immutable decode context of one stream — shipped to every
    worker once, at attach (slice decoder and serve sessions alike).
    Its size does not depend on the stream's length: a picture's plan
    travels with the tasks that decode it."""
    return {
        "seq": seq,
        "mb_width": mb_ceil(seq.width),
        "mb_height": mb_ceil(seq.height),
        "resilient": resilient,
    }


def decode_batch(ctx: TaskContext, keys, batch: SliceBatch) -> list[tuple]:
    """Task body: the picture kernel's two phases on the slices
    ``batch`` carries, in place on slot ``batch.slot``, references read
    through views of ``batch.ref_slots``.  Answers its one key with
    ``(order, slices, counters, corrupt_rows)``; the rows wait for the
    picture's conceal sweep in :meth:`MPSliceDecoder._publish`.  What
    it raises comes back as an ``err`` for the parent to re-raise,
    never a dead worker."""
    (key,) = keys
    state = ctx.state
    header = PictureHeader.from_values(batch.header)
    slices = list(map(SlicePlan._make, batch.slices))
    counters = WorkCounters()
    parses, corrupt = parse_slices(
        read_slices(ctx.data, slices, [sl.reconstruct for sl in slices]),
        header, state["mb_width"], state["mb_height"],
        bool(batch.ref_slots), state["resilient"], counters,
    )
    if parses:
        out = ctx.pool.view_frame(batch.slot, header.temporal_reference)
        fwd, bwd = (*map(ctx.pool.view_frame, batch.ref_slots), None, None)[:2]
        try:
            reconstruct(out, parses, state["seq"], header, fwd, bwd)
        finally:
            del out, fwd, bwd
    return [(key, (batch.order, len(slices), counters, corrupt))]


# ======================================================================
# the decoder
# ======================================================================
class MPSliceDecoder(StreamDecoder):
    """Slice-level parallel decoder on real cores (paper Section 5.2).

    The plan is the slice-grain graph inside :class:`PictureSliceQueue`,
    which also picks (earliest ready batch, on credit, inside the frame
    window); the rest of the policy is below: publish (concealment,
    publish time, display merge), emit, and the gate clock.

    Parameters
    ----------
    data:
        The complete coded stream.
    index:
        Optional pre-built scan index (shared between the scan step and
        the workers, as in the paper).
    workers:
        See :class:`~repro.exec.dispatch.StreamDecoder`.
    mode:
        ``"simple"`` barriers after every picture; ``"improved"``
        (default) barriers only after reference pictures, letting
        consecutive B-pictures interleave.
    resilient:
        Conceal corrupt slices instead of failing (identical
        last-action-wins semantics to the sequential decoder).
    """

    role, unit, loss = "slice", "picture", "slice"

    def __init__(
        self,
        data: bytes,
        index: StreamIndex | None = None,
        workers: int | None = None,
        mode: str | SliceMode = SliceMode.IMPROVED,
        resilient: bool = False,
        _crash_task: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(data, index, workers, resilient)
        self.mode = SliceMode(mode)
        #: Test-only fault injection: the worker that picks up this
        #: ``(picture_order, slice_index)`` dies with ``os._exit``.
        self._crash_task = _crash_task
        #: The run's picture plans in coding order, built a GOP at a
        #: time as the frame window reaches each GOP (every picture's
        #: once a run has finished; a decode is one run unless a GOP
        #: outgrows the window, DESIGN §2.4).
        self.plans: list[PicturePlan] = []

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
        """Yield decoded frames in display order.

        One run per frame window: the window is sized from the run's
        first GOP, and a later GOP that it cannot hold ends the run at
        that GOP boundary and starts the next, sized for it (closed GOPs
        carry no state across it)."""
        self.counters = counters
        self._begin()
        with scan_faults_first(self._gops):
            while (head := self._pull()) is not None:
                self._hold(head)
                yield from self._window_run(
                    gop_frame_window([len(head[1].pictures)], self.workers)
                )

    def _window_run(self, slots: int) -> Iterator[Frame]:
        """One run on a ``slots``-frame window, from the held GOP on."""
        self.gated_since: dict[int, int] = {}
        self.publish_ns: dict[int, int] = {}
        self.corrupt_rows: dict[int, list[int]] = {}
        self.plans = []
        self._slice_counts: list[int] = []
        self._dependencies: list[tuple[int, ...]] = []
        #: Slots a picture has taken this run: the pool is created
        #: zero-filled, so only a reused slot must be blanked.
        self._used_slots: set[int] = set()
        #: The run's display merge; its total grows as GOPs are planned.
        self.merger = DisplayMerger(
            0, on_hold=self._held if self.workers else None
        )
        self.q = q = PictureSliceQueue(
            self._slice_counts,
            self._dependencies,
            self.mode,
            self._plan_gops(slots),
            slots,
            workers=self.workers,
            on_gated=self._on_gated,
            on_released=self._on_released,
            on_slot=self._blank_reused,
        )
        yield from self._run(
            q.graph, decode_batch, slots,
            picture_state(self.seq, self.resilient),
        )
        if not q.done:  # pragma: no cover - defensive
            raise RuntimeError(
                "picture/slice queue stuck with incomplete pictures"
            )

    def _plan_gops(self, slots: int) -> Iterator[int]:
        """The run's GOP sizes for its queue: each GOP pulled off the
        scan as the frame window reaches it, published, and planned —
        its picture plans, its header counters and its share of the
        display merge.  Ends at the end of the stream, or at a GOP the
        window cannot hold (held back for the next run)."""
        while (pulled := self._pull()) is not None:
            gi, gop = pulled
            if gop_frame_window([len(gop.pictures)], self.workers) > slots:
                self._hold(pulled)
                return
            self._publish_gop(gop)
            plans = scan_gop_pictures(gop, gi, len(self.plans))
            self.plans += plans
            self._slice_counts += [len(p.slices) for p in plans]
            self._dependencies += [p.dependencies for p in plans]
            self.merger.total += len(plans)
            if self.counters is not None:
                self.counters.add(base_counters([gop]))
            yield len(plans)

    def _blank_reused(self, slot: int) -> None:
        if slot in self._used_slots:
            self.pool.clear_frame(slot)
        self._used_slots.add(slot)

    # -- stall attribution -----------------------------------------------
    def _held(self, order: int, since_ns: int, held_ns: int) -> None:
        record_merge_hold(self.last_stalls, since_ns, held_ns, order=order)

    def _on_gated(self, order: int) -> None:
        self.gated_since[order] = time.monotonic_ns()

    def _on_released(self, order: int) -> None:
        t0 = self.gated_since.pop(order)
        now = time.monotonic_ns()
        # The part of the wait covered by reference publication is a
        # true data dependency; the remainder — only a picture with a
        # barrier edge can have one, so never under the improved rule —
        # is the policy-imposed per-picture barrier.
        refs_at = now
        if self.q.graph.nodes[f"p{order}.s0"].barriers:
            refs_at = max(
                (self.publish_ns.get(d, t0) for d in self.plans[order].dependencies),
                default=t0,
            )
        ref_ns = min(max(refs_at, t0), now) - t0
        barrier_ns = now - t0 - ref_ns
        if ref_ns > 0:
            self.last_stalls.record("scheduler", REASON_REF_PUBLISH, ref_ns / 1e9)
        if barrier_ns > 0:
            self.last_stalls.record("scheduler", REASON_BARRIER, barrier_ns / 1e9)
        trace_complete(
            "mp.slice.gate", "stall", t0, now - t0, order=order,
            reason=REASON_BARRIER if barrier_ns > 0 else REASON_REF_PUBLISH,
        )

    # -- the policy --------------------------------------------------------
    def _claim(self) -> tuple | None:
        batch = self.q.claim_batch()
        if batch is None:
            return None
        crash_order, crash_sidx = self._crash_task or (None, None)
        crash = batch.order == crash_order and crash_sidx in batch.sidxs
        reg = metrics()
        reg.gauge("queue.depth").inc()
        reg.counter("mp.dispatch.messages").inc()
        # One running and one queued batch per worker: the credit
        # (2 x workers) always leaves one with room.
        return (
            self.team.free(2)[0], self.sid, ((batch.order, batch.sidxs[0]),),
            batch.of(self.plans[batch.order]), "crash" if crash else None,
        )

    def _done(self, sid, key, payload) -> None:
        order, slices, done, rows = payload
        metrics().gauge("queue.depth").dec()
        if self.counters is not None:
            self.counters.add(done)
        if rows:
            self.corrupt_rows.setdefault(order, []).extend(rows)
        self.q.complete_batch(order, slices)

    def _publish(self) -> list[int]:
        """Publish newly complete pictures (conceal + record publish
        time + bank in the display merger); return the display-ready
        run.  The loop runs this *before* the next claim so the stall
        split sees fresh publish times."""
        q = self.q
        ready: list[int] = []
        for order in q.take_completed():
            plan = self.plans[order]
            fwd_slot = q.slot_of(plan.fwd) if plan.fwd is not None else None
            t0 = time.perf_counter()
            out = self.pool.view_frame(q.slot_of(order))
            fwd = self.pool.view_frame(fwd_slot) if fwd_slot is not None else None
            try:
                n_t, n_s = conceal(
                    out, fwd, self.corrupt_rows.pop(order, ()), plan.slices,
                    self.resilient, self.counters,
                )
            finally:
                del out, fwd
            record_concealment(
                self.last_stalls, "scheduler", n_t, n_s,
                time.perf_counter() - t0,
            )
            self.publish_ns[order] = time.monotonic_ns()
            ready.extend(self.merger.push(plan.display_index, order))
        return ready

    def _emit(self, ready: list[int]) -> Iterator[Frame]:
        # Emitting frees slots, which may let more pictures start or
        # settle: the loop goes round again after it.
        for done in ready:
            with trace_span("mp.shm.read", cat="mp", order=done):
                frame = self.pool.read_frame(
                    self.q.slot_of(done),
                    self.plans[done].header.temporal_reference,
                )
            self.q.mark_emitted(done)
            yield frame

