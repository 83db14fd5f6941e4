"""Real-hardware GOP-level parallel decoding with OS processes.

Everything else in :mod:`repro.parallel` runs the paper's scan/worker/
display architecture on the *simulated* SMP, because CPython threads
cannot show real speedup under the GIL.  This module escapes the GIL
the same way the paper escaped a single R4400: separate OS processes
(`multiprocessing`), one per worker, each decoding whole closed GOPs.

Neither the process machinery nor the run loop is here: GOP-grain
decode is one *partition* — a graph for one GOP
(:func:`~repro.exec.plan.add_gop_chain`), the task body
:func:`decode_gop_task`, the claim rule (one GOP per worker at a time,
stream order) and the window-size rule — handed to the one run loop of
:class:`~repro.exec.dispatch.StreamDecoder`, which drives the single
worker runtime of :mod:`repro.exec.backend`.

The paper's three roles map onto real primitives:

* **scan** — a stage, not a prelude: the parent pulls the stream's GOPs
  off a :class:`repro.mpeg2.index.IndexCursor` (start-code scan, no
  decoding) one at a time, when a free worker finds no GOP it may
  start and the frame window reaches the next one, copies the GOP's
  bytes into the shared arena and plans its pictures — so the first
  GOP is dispatched after its own scan, not the stream's.
* **workers** — the warm :class:`~repro.exec.backend.WorkerTeam` of
  ``workers`` processes, forked once per process and shared with
  the slice decoder and the serve layer.  The coded stream is published
  into POSIX shared memory a GOP at a time, each byte once; workers
  attach by name and decode
  their GOP in place, by the parent's offsets, with the batched
  :class:`~repro.mpeg2.decoder.SequenceDecoder` — the bitstream never
  crosses the task pipe and is never re-scanned — each picture landing
  straight in its slot of a shared-memory frame pool, where later
  pictures of the GOP read it as a reference and the parent reads it
  for display: no private frame, no copy.  A GOP is planned as its
  pictures, one node each with its reference edges, and dispatched as
  one *chain* in one message; the worker answers each picture with an
  ``ok`` as it lands.  Only tiny metadata (scan offsets and slots out,
  work counters back) is pickled, and pixel arrays never are.
* **display** — the parent merges completed pictures into display
  order through the shared reorder buffer
  (:class:`~repro.parallel.merge.DisplayMerger`), as the slice decoder
  and the serve sessions do, and reads each frame out of the pool when
  the merge releases it: the first picture is one picture of decode
  away, not one GOP.

The frame pool is the frame window of DESIGN §2.2
(:class:`~repro.exec.window.FrameWindow`): ``2 x workers`` GOPs of the
run's first GOP's length, whatever the stream's; a GOP's chain starts
only inside it.

``workers=0`` runs the identical plan on the in-process transport
(:class:`~repro.exec.backend.LocalTeam`: no ``fork``, no shared memory,
a one-GOP window) so functional tests are deterministic on constrained
CI; ``workers>=1`` is the real-silicon path, measured by the
``gop_parallel`` workload of ``bench/run.py``.

Bit-exactness: closed GOPs carry no coded state across their
boundaries, so a GOP decoded alone is identical to the same GOP
decoded mid-stream; frames within a GOP are display-ordered
by ``decode_gop`` and closed GOPs appear in display order in the
stream.  The mp decoder therefore reproduces
``SequenceDecoder.decode_all`` bit-for-bit, counters included — pinned
by ``tests/parallel/test_mp_parity.py`` and the golden-vector suite.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from typing import Iterator, Sequence

from repro.exec.backend import TaskContext
from repro.exec.dispatch import StreamDecoder
from repro.exec.graph import TaskGraph, TaskNode
from repro.exec.plan import GopTask, add_gop_chain
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import ENGINES, SequenceDecoder
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import GopIndex, StreamIndex
from repro.mpeg2.kernel import check_closed
from repro.obs.metrics import metrics
from repro.obs.trace import trace_span


# ----------------------------------------------------------------------
# the task body
# ----------------------------------------------------------------------
def decode_gop_task(
    ctx: TaskContext, keys: Sequence, task: GopTask
) -> Iterator[tuple]:
    """Task body: decode one GOP's chain straight into its pool slots.

    The GOP is read from the attached stream by the offsets of the
    parent's scan (``task.index``) — no substream, no second scan — and
    decoded by :class:`SequenceDecoder`, the picture at coding position
    ``pos`` into slot ``task.slots[pos]`` (cleared first: slots are
    reused across GOPs, and a row no slice covers must read blank) and
    answered as ``keys[pos]``.  Each picture is answered with empty
    counters the moment it is final, except the last, which waits for
    the end of the decode and carries the whole GOP's counters.
    """
    gop = task.index

    def into(pos: int) -> Frame:
        ctx.pool.clear_frame(task.slots[pos])
        return ctx.pool.view_frame(
            task.slots[pos], gop.pictures[pos].temporal_reference
        )

    counters = WorkCounters()
    *shown, last = gop.display_order()
    with trace_span(
        "mp.worker.decode_gop", cat="mp", gop=task.gop, pictures=len(keys)
    ):
        frames = SequenceDecoder(
            ctx.data,
            index=StreamIndex(ctx.state["seq"], [gop], len(ctx.data)),
            engine=ctx.state["engine"],
            resilient=ctx.state["resilient"],
        ).decode_gop(gop, counters, into)
        for pos, _frame in zip(shown, frames):
            yield keys[pos], WorkCounters()
        for _frame in frames:  # the last picture, then the counters
            pass
        yield keys[last], counters


# ----------------------------------------------------------------------
# the decoder
# ----------------------------------------------------------------------
class MPGopDecoder(StreamDecoder):
    """GOP-level parallel decoder on real cores (paper Section 5.1).

    Parameters
    ----------
    data:
        The complete coded stream.
    index:
        Optional pre-built scan index (shared between the scan step and
        the workers, as in the paper).
    workers:
        See :class:`~repro.exec.dispatch.StreamDecoder`; workers beyond
        the GOP count simply stay idle.
    engine:
        Decode engine for the workers (default ``"batched"``).
    resilient:
        Conceal corrupt slices instead of failing (worker-local,
        identical to the sequential decoder's behaviour).
    """

    def __init__(
        self,
        data: bytes,
        index: StreamIndex | None = None,
        workers: int | None = None,
        engine: str = "batched",
        resilient: bool = False,
        _crash_gop: int | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        super().__init__(data, index, workers, resilient)
        self.engine = engine
        #: Test-only fault injection: the worker that picks up this GOP
        #: dies with ``os._exit`` mid-stream (no result, no cleanup).
        self._crash_gop = _crash_gop

    def stall_breakdown(self) -> dict[str, float]:
        """As the base class's, but a team larger than the stream has
        GOPs only ever keeps that many workers busy."""
        procs = min(self.workers, self.gops_scanned) + 1 if self.workers else 1
        return self.last_stalls.breakdown(self.last_wall_seconds * procs)

    # ------------------------------------------------------------------
    def decode_all(self, counters: WorkCounters | None = None) -> list[Frame]:
        """Decode the whole stream to display-ordered frames.

        Bit-identical to ``SequenceDecoder(data).decode_all()`` —
        frames *and* aggregate work counters.
        """
        frames: list[Frame] = []
        for _gop, gop_frames in self.iter_gops(counters):
            frames.extend(gop_frames)
        return frames

    def iter_gops(
        self, counters: WorkCounters | None = None
    ) -> Iterator[tuple[int, list[Frame]]]:
        """Yield ``(gop_number, display_ordered_frames)`` runs in display
        order.

        A GOP comes in runs of the pictures the display merge released
        together, and its runs, concatenated, are its frames; no run of
        a GOP comes before the last run of the GOP before it.
        ``workers=0`` runs each GOP where it is submitted.
        """
        state = {
            "seq": self.seq,
            "engine": self.engine,
            "resilient": self.resilient,
        }
        return self._decode(counters, state)

    # -- the partition ---------------------------------------------------
    body = staticmethod(decode_gop_task)

    def _window_size(self, pictures: int) -> int:
        """``2 x workers`` GOPs of the run's first GOP's length."""
        return max(2 * self.workers, 1) * pictures

    def _open_run(self) -> TaskGraph:
        #: The tids the merge has released since the last round.
        self.released: list[int] = []
        self.graph = TaskGraph()
        return self.graph

    def _plan_gop(self, gi: int, gop: GopIndex, base: int) -> None:
        if gop.pictures:
            add_gop_chain(self.graph, gi, gop, base)
            return
        # No picture, no task: the GOP is its header, charged here as a
        # worker's decode of it would.
        check_closed(gop)
        if self.counters is not None:
            self.counters.add(WorkCounters(headers=1, bits=gop.header_bits))

    def _startable(self) -> TaskNode | None:
        """The earliest unsent GOP's first picture, if a worker may take
        the GOP: every picture of it inside the frame window."""
        node = self.graph.first_ready()
        if node is not None and (
            node.payload.base + len(node.payload.index.pictures)
            <= self.window.limit
        ):
            return node
        return None

    def _claim(self) -> tuple | None:
        """One GOP per free worker, earliest first; its chain takes its
        pictures' slots at dispatch."""
        free = self.team.free()
        if not free:
            return None
        while (node := self._startable()) is None:
            if not self._reach():
                return None
        task = node.payload
        keys = tuple(range(task.base, task.base + len(task.index.pictures)))
        self.graph.dispatch_chain(keys)
        metrics().counter("mp.dispatch.messages").inc()
        # The worker clears each slot before decoding into it.
        slots = tuple(self.window.acquire(key)[0] for key in keys)
        crash = "crash" if task.gop == self._crash_gop else None
        return free[0], self.sid, keys, replace(task, slots=slots), crash

    def _done(self, sid, key: int, counters: WorkCounters) -> None:
        self.graph.complete(key)
        if self.counters is not None:
            self.counters.add(counters)
        self.released += self.merger.push(self.display[key], key)
        metrics().gauge("queue.depth").set(self.merger.held)

    def _publish(self) -> list[int]:
        """The display-ready run the merge released since the last
        round, as node tids."""
        ready, self.released = self.released, []
        return ready

    def _emit(self, ready: list[int]) -> Iterator[tuple[int, list[Frame]]]:
        nodes = self.graph.nodes
        for gop, keys in groupby(ready, lambda key: nodes[key].gop):
            keys = list(keys)
            with trace_span(
                "mp.shm.read", cat="mp", gop=gop, frames=len(keys)
            ):
                frames = self._read(keys)
            yield gop, frames
