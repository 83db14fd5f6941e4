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

* **scan** — a stage, done a GOP at a time, by the run loop of
  :class:`~repro.exec.dispatch.StreamDecoder` and its frame window
  (DESIGN §2.2): when a claim finds nothing to start and the window
  reaches the next GOP, the parent pulls it off the
  :class:`repro.mpeg2.index.IndexCursor`, copies its bytes into the
  shared arena, turns it into coding-order :class:`PicturePlan`
  records (:func:`~repro.exec.plan.scan_gop_pictures`) and the
  pure-logic :class:`PictureSliceQueue` plans them onto its live
  graph, so the work before picture 0 does not grow with the stream.
  The queue dispatches from that graph:
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
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.constants import mb_ceil
from repro.mpeg2.headers import PictureHeader, SequenceHeader
from repro.mpeg2.index import GopIndex
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
from repro.exec.graph import COMPLETED, PENDING, TaskGraph, TaskNode
from repro.exec.plan import (
    PicturePlan,
    SlicePlan,
    add_slice_picture,
    scan_gop_pictures,
)
from repro.exec.window import FrameWindow
from repro.parallel.slice_level import SliceMode


# ======================================================================
# the 2-D picture/slice queue (pure logic — shared by the mp parent,
# the workers=0 fallback, and the hypothesis property tests)
# ======================================================================
class SliceBatch(NamedTuple):
    """One dispatched task: consecutive slices of one picture, plus the
    pool slots the picture and its references live in.

    The queue hands out the first four fields and the last two;
    :meth:`of` adds what a worker needs of the picture's plan, as plain
    values so the task pickles in about 250 bytes — the header
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
    #: The batch's graph node: the key its answer comes back under.
    tid: Hashable | None = None
    #: The picture's first batch took a slot an earlier picture used:
    #: the parent blanks it before the batch goes out.
    blank: bool = False

    def of(self, plan: PicturePlan) -> "SliceBatch":
        """This batch as a task: ``plan``'s header and the slice plans
        of ``sidxs`` filled in."""
        return self._replace(
            header=plan.header.values(),
            slices=tuple(tuple(plan.slices[i]) for i in self.sidxs),
        )


class PictureSliceQueue:
    """The slice-grain dispatch policy: credit and gate clock, on the
    slice-grain graph, inside a frame window.

    The real-silicon twin of the simulated
    :class:`repro.parallel.queues.SliceTaskQueue`.  *When* a picture's
    slices may start is not decided here: the queue holds the
    slice-grain graph (:func:`~repro.exec.plan.add_slice_picture` per
    picture, the nodes of :func:`~repro.exec.plan.plan_slice_graph`)
    and serves its ready set earliest-planned first — the paper's
    in-order 2-D queue — so ``simple`` and ``improved`` differ only in
    the edges of that graph.  What the queue adds is the resources a
    ready batch still needs: a dispatch credit and a slot of the frame
    window.  It runs no process, so credit, window and
    never-before-references can be property-tested without one.

    Parameters
    ----------
    mode:
        ``"simple"`` (every earlier picture must be complete) or
        ``"improved"`` (only the dependencies must be complete).
    window:
        The decode's :class:`~repro.exec.window.FrameWindow`, which the
        owner adds each picture to when it adds the picture's GOP here.
    workers:
        Sets both bounds on dispatch: a picture is split into at most
        ``workers`` batches, and at most ``2 x workers`` batches (one
        when ``workers`` is 0) are in flight.
    reach:
        Called when a claim with a free credit finds nothing it may
        start: it adds the next GOP (:meth:`add_gop`) if the window
        reaches it, and returns whether it did.
    on_gated / on_released:
        Stall attribution: ``on_gated(order)`` fires when a free credit
        finds nothing to dispatch and ``order`` is the earliest picture
        in the way; ``on_released(order)`` when a later claim finds
        that picture available.  At most one picture is gated at a time.
    """

    def __init__(
        self,
        mode: str | SliceMode,
        window: FrameWindow,
        workers: int = 1,
        reach: Callable[[], bool] = lambda: False,
        on_gated: Callable[[int], None] | None = None,
        on_released: Callable[[int], None] | None = None,
    ) -> None:
        self.mode = SliceMode(mode).value
        self.graph = TaskGraph()
        self.window = window
        self._workers = workers
        self.credit = max(1, 2 * workers)
        self._reach = reach
        #: Per planned picture: its deduplicated dependencies and its
        #: batch nodes.
        self._deps: list[tuple[int, ...]] = []
        self._batches: list[list[TaskNode]] = []
        #: Publish steps taken and not yet run (:meth:`take_completed`).
        self._steps: list[TaskNode] = []
        #: ``_head`` is the first picture that may still have a batch
        #: pending (where a gate clock goes).
        self._head = 0
        self._gate: int | None = None
        self._on_gated = on_gated
        self._on_released = on_released

    def add_gop(self, plans: Sequence[PicturePlan]) -> None:
        """Plan one GOP's pictures — the next in coding order, each with
        its ``slices`` and ``dependencies`` — onto the graph.  Every
        dependency must be earlier (MPEG-2 coding order guarantees this;
        the plan enforces it) and in the picture's own GOP (closed GOPs
        guarantee that)."""
        first = self.pictures
        for order, plan in enumerate(plans, first):
            deps = tuple(dict.fromkeys(plan.dependencies))
            outside = [d for d in deps if 0 <= d < first]
            if outside:
                raise ValueError(
                    f"picture {order} depends on {outside}, outside "
                    f"its GOP (pictures {first} onwards)"
                )
            batches = add_slice_picture(
                self.graph, order, len(plan.slices), deps, self.mode,
                self._workers,
            )
            self._batches.append([self.graph.nodes[t] for t in batches])
            self._deps.append(deps)

    @property
    def in_flight(self) -> int:
        """Batches out."""
        return self.graph.in_flight - len(self._steps)

    @property
    def pictures(self) -> int:
        """Pictures planned so far."""
        return len(self._deps)

    @property
    def due(self) -> bool:
        """Whether publish steps wait for :meth:`take_completed`."""
        return bool(self._steps)

    def _take(self, publish: TaskNode) -> None:
        self.graph.dispatch(publish.tid)
        self._steps.append(publish)

    def _next(self) -> TaskNode | None:
        """The earliest-planned ready node inside the frame window: a
        batch, or the publish step of a zero-slice picture."""
        node = min(
            filter(None, (self.graph.first_ready(), self.graph.first_ready(True))),
            key=attrgetter("order"), default=None,
        )
        return node if node is not None and node.order < self.window.limit else None

    # -- scheduler side --------------------------------------------------
    def claim_batch(self) -> SliceBatch | None:
        """Claim the next batch; ``None`` if the credit is spent or
        nothing may start right now.

        Serves the earliest-planned ready batch if its picture lies
        inside the frame window: a later picture is served only while
        every earlier one is fully handed out or waiting on an edge.  A
        zero-slice picture on the way takes its slot and its publish
        step (there is nothing to hand out; dependents and the display
        read it blank).
        """
        if self.in_flight >= self.credit:
            return None
        while (node := self._next()) is not None or self._reach():
            if node is None:
                continue
            slot, blank = self.window.acquire(node.order)
            if node.kind == "publish":
                self._take(node)
                continue
            if node.order == self._gate:
                self._gate = None
                if self._on_released is not None:
                    self._on_released(node.order)
            self.graph.dispatch(node.tid)
            return SliceBatch(
                node.order, node.payload, slot,
                tuple(map(self.window.slot, self._deps[node.order])),
                tid=node.tid, blank=blank,
            )
        if self._gate is None:
            # A free credit found nothing to place: the clock goes on
            # the earliest picture with slices still waiting on an edge
            # (not on one that is ready but outside the window).
            state = self.graph.state
            while self._head < self.pictures and not any(
                state[b.tid] == PENDING for b in self._batches[self._head]
            ):
                self._head += 1
            head = self._head
            if head < min(self.pictures, self.window.limit):
                self._gate = head
                if self._on_gated is not None:
                    self._on_gated(head)
        return None

    def complete(self, tid: Hashable) -> bool:
        """Report batch ``tid`` finished (returns its credit); ``True``
        if that completed its picture, whose publish step it releases."""
        released = self.graph.complete(tid)
        for publish in released:
            self._take(publish)
        return bool(released)

    def take_completed(self) -> list[int]:
        """Run the publish steps taken since the last call — pictures
        whose last batch finished, and zero-slice pictures a claim took
        — and return their pictures, for the caller to publish
        **before** it claims again: completing a publish step is what
        releases the picture's dependents."""
        steps, self._steps = self._steps, []
        for publish in steps:
            self.graph.complete(publish.tid)
        return [publish.order for publish in steps]

    # -- diagnostics -----------------------------------------------------
    @property
    def pictures_complete(self) -> int:
        return sum(map(self.is_complete, range(self.pictures)))

    def is_complete(self, order: int) -> bool:
        return self.graph.state.get(f"p{order}.publish") == COMPLETED


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
    through views of ``batch.ref_slots``.  Answers its one key, the
    batch's graph node, with ``(counters, corrupt_rows)``; the rows wait
    for the picture's conceal sweep in :meth:`MPSliceDecoder._publish`.  What
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
    return [(key, (counters, corrupt))]


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
        #: outgrows the window, DESIGN §2.2).
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
        """Yield decoded frames in display order."""
        return self._decode(counters, picture_state(self.seq, self.resilient))

    # -- the partition ---------------------------------------------------
    body = staticmethod(decode_batch)

    def _window_size(self, pictures: int) -> int:
        """The run's first GOP — all of the GOP the oldest slot holder
        belongs to can be decoded, which is what frees it — or ``2 x
        workers`` pictures if that is more (so the window never starves
        the dispatch credit), plus one."""
        return max(pictures, 2 * self.workers) + 1

    def _open_run(self) -> TaskGraph:
        self.gated_since: dict[int, int] = {}
        self.publish_ns: dict[int, int] = {}
        self.corrupt_rows: dict[int, list[int]] = {}
        self.plans = []
        self.q = PictureSliceQueue(
            self.mode, self.window, self.workers, self._reach,
            self._on_gated, self._on_released,
        )
        return self.q.graph

    def _plan_gop(self, gi: int, gop: GopIndex, base: int) -> None:
        """The GOP's picture plans, its header counters and its nodes."""
        t0, nodes = time.monotonic_ns(), self.q.graph.planned
        plans = scan_gop_pictures(gop, gi, base)
        self.plans += plans
        self.q.add_gop(plans)
        if self.counters is not None:
            self.counters.add(base_counters([gop]))
        trace_complete(
            "mp.plan", "mp", t0, time.monotonic_ns() - t0, gop=gi,
            pictures=len(plans), nodes=self.q.graph.planned - nodes,
        )

    # -- stall attribution -----------------------------------------------
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
        if batch.blank:
            self.pool.clear_frame(batch.slot)
        crash_order, crash_sidx = self._crash_task or (None, None)
        crash = batch.order == crash_order and crash_sidx in batch.sidxs
        reg = metrics()
        reg.gauge("queue.depth").inc()
        reg.counter("mp.dispatch.messages").inc()
        # One running and one queued batch per worker: the credit
        # (2 x workers) always leaves one with room.
        return (
            self.team.free(2)[0], self.sid, (batch.tid,),
            batch.of(self.plans[batch.order]), "crash" if crash else None,
        )

    def _done(self, sid, key, payload) -> None:
        done, rows = payload
        metrics().gauge("queue.depth").dec()
        if self.counters is not None:
            self.counters.add(done)
        if rows:
            order = self.q.graph.nodes[key].order
            self.corrupt_rows.setdefault(order, []).extend(rows)
        self.q.complete(key)

    def _idle(self) -> bool:
        """Publish steps a claim took go round once more."""
        return self.q.due

    def _publish(self) -> list[int]:
        """Publish newly complete pictures (conceal + record publish
        time + bank in the display merger); return the display-ready
        run.  The loop runs this *before* the next claim so the stall
        split sees fresh publish times."""
        window = self.window
        ready: list[int] = []
        for order in self.q.take_completed():
            plan = self.plans[order]
            if not plan.slices:
                # Nothing decoded into it: whatever its slot held, a
                # zero-slice picture reads blank before its sweep.
                self.pool.clear_frame(window.slot(order))
            fwd_slot = window.slot(plan.fwd) if plan.fwd is not None else None
            t0 = time.perf_counter()
            out = self.pool.view_frame(window.slot(order))
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
        # Emitting frees slots, which may let more pictures start: the
        # loop goes round again after it.
        for done in ready:
            with trace_span("mp.shm.read", cat="mp", order=done):
                (frame,) = self._read([done])
            yield frame
