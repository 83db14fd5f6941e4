"""Real-hardware GOP-level parallel decoding with OS processes.

Everything else in :mod:`repro.parallel` runs the paper's scan/worker/
display architecture on the *simulated* SMP, because CPython threads
cannot show real speedup under the GIL.  This module escapes the GIL
the same way the paper escaped a single R4400: separate OS processes
(`multiprocessing`), one per worker, each decoding whole closed GOPs.

Neither the process machinery nor the dispatch loop is here: GOP-grain
decode is one *partition* — the plan
:func:`~repro.exec.plan.plan_gop_graph`, the task body
:func:`~repro.exec.backend.decode_gop_task` and a small session
context — handed to the single worker runtime in
:mod:`repro.exec.backend` and driven by the one parent loop in
:mod:`repro.exec.dispatch`.  This module supplies the policy (one GOP
per worker at a time, stream order, a bounded frame window) and the
display merge.

The paper's three roles map onto real primitives:

* **scan** — a stage, not a prelude: the parent pulls the stream's GOPs
  off a :class:`repro.mpeg2.index.IndexCursor` (start-code scan, no
  decoding) one at a time, when a worker and a run of the frame window
  are free for the next GOP, copies the GOP's bytes into the shared
  arena and plans it as a task
  (:func:`~repro.exec.plan.add_gop_task`) — so the first GOP is
  dispatched after its own scan, not the stream's.
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
  for display: no private frame, no copy.  One message dispatches a
  GOP; the worker posts one ``part`` per picture as it lands, the last
  picture being the task's result.  Only tiny metadata (scan offsets
  out, temporal references + work counters back) is pickled, and pixel
  arrays never are.
* **display** — the parent merges completed GOPs back into display
  order through the shared reorder buffer
  (:class:`~repro.parallel.merge.DisplayMerger`), reading frames
  out of the pool.  The head GOP — the earliest not yet handed over —
  is handed over picture by picture as its parts arrive; a later GOP's
  parts wait until it is the head, so the first picture is one
  picture of decode away, not one GOP.

The frame pool is a **window**, not the stream: ``2 x workers`` *runs*
of as many slots as the first GOP has pictures — the paper's ``workers
x GOP`` decoded-frame memory (Fig. 8) plus one finished GOP per worker
waiting for display.  A GOP takes a run at dispatch and returns it once
the consumer has all its frames, so a slow consumer back-pressures the
workers; claiming earliest first, the oldest un-emitted GOP always owns
a run and the window cannot deadlock.  A later GOP longer than a run
ends the run at that GOP boundary — every GOP before it is handed over
first, and closed GOPs carry no state across — and the next run, on
the same loop and attach, is sized for it.

``workers=0`` runs the identical plan on the in-process transport
(:class:`~repro.exec.backend.LocalTeam`: no ``fork``, no shared memory,
a one-run window) so functional tests are deterministic on constrained
CI; ``workers>=1`` is the real-silicon path measured by
``benchmarks/perf_parallel.py``.

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
from typing import Iterator

from repro.exec.backend import (  # noqa: F401  (names tests import from here)
    GopResult,
    decode_gop_task,
    persistent_worker_pids,
)
from repro.exec.dispatch import StreamDecoder
from repro.exec.graph import TaskGraph, TaskNode
from repro.exec.plan import add_gop_task, scan_gop_tasks  # noqa: F401
from repro.exec.shm import FrameLayout, SharedFramePool  # noqa: F401
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import ENGINES
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import StreamIndex
from repro.obs.metrics import metrics
from repro.obs.trace import trace_span
from repro.parallel.merge import DisplayMerger, record_merge_hold


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

        A GOP may come in several runs — the head GOP as its task posts
        each picture — and its runs, concatenated, are its frames; no
        run of a GOP comes before the last run of the GOP before it.
        The policy below is one GOP per worker at a time, earliest
        first, each into a free run of the frame window, which it gives
        back when its last run is handed over; a GOP is pulled off the
        scan and planned (:func:`~repro.exec.plan.add_gop_task`) when a
        worker and a run are free for it.  ``workers=0`` runs each GOP
        where it is submitted.
        """
        self.counters = counters
        self._begin()
        #: decode tid -> the GopResult its publish node will merge.
        self.results: dict[str, GopResult] = {}
        #: gop -> the parts its task posted that are not emitted yet.
        self.parts: dict[int, list[GopResult]] = {}
        #: The display merge over GOPs; its total grows as GOPs are
        #: planned.
        self.merger = DisplayMerger(
            0,
            # An out-of-order completion sat in the reorder buffer: the
            # display-order merge stall (paper's display process).
            on_hold=self._held if self.workers else None,
        )
        state = {
            "seq": self.seq,
            "engine": self.engine,
            "resilient": self.resilient,
        }
        try:
            with self._scan_faults_first():
                while (head := self._pull()) is not None:
                    self._hold(head)
                    #: The frame window: run ``r`` is slots ``[r * L,
                    #: (r + 1) * L)``, ``L`` the run's first GOP; a GOP
                    #: holds one from dispatch to emit.  A longer GOP
                    #: ends the run and starts the next, sized for it.
                    self.run_slots = len(head[1].pictures)
                    self.free_runs = list(range(max(2 * self.workers, 1)))
                    self.held_runs: dict[int, int] = {}
                    self.graph = TaskGraph()
                    self._ended = False
                    yield from self._run(
                        self.graph, decode_gop_task,
                        len(self.free_runs) * self.run_slots, state,
                    )
        finally:
            # Aborted or abandoned mid-stream, no run is held any more.
            metrics().gauge("mp.frame_pool.occupancy").set(0)
        self.merger.finish("GOP results")

    def _held(self, result: GopResult, since_ns: int, held_ns: int) -> None:
        record_merge_hold(self.last_stalls, since_ns, held_ns, gop=result.gop)

    # -- the policy ------------------------------------------------------
    def _gauge_window(self) -> None:
        metrics().gauge("mp.frame_pool.occupancy").set(
            len(self.held_runs) * self.run_slots
        )

    def _plan(self) -> TaskNode | None:
        """Pull the next GOP and plan it onto the run's graph; ``None``
        at the end of the stream, or when the GOP is longer than the
        window's runs (it is held back to start the next run)."""
        pulled = None if self._ended else self._pull()
        if pulled is not None and len(pulled[1].pictures) <= self.run_slots:
            self._publish_gop(pulled[1])
            self.merger.total += 1
            return add_gop_task(self.graph, *pulled)
        if pulled is not None:
            self._hold(pulled)
        self._ended = True
        return None

    def _claim(self) -> tuple | None:
        free = self.team.free()
        if not free or not self.free_runs:
            return None
        node = self.graph.first_ready() or self._plan()
        if node is None:
            return None
        self.graph.dispatch(node.tid)
        metrics().counter("mp.dispatch.messages").inc()
        run = self.held_runs[node.gop] = self.free_runs.pop()
        self._gauge_window()
        task = replace(node.payload, slot_base=run * self.run_slots)
        crash = task.gop == self._crash_gop
        return free[0], self.sid, node.tid, task, "crash" if crash else None

    def _part(self, sid, key, part: GopResult) -> None:
        self.parts.setdefault(part.gop, []).append(part)

    def _done(self, sid, key, result: GopResult) -> None:
        self.graph.complete(key)
        self.results[key] = result

    def _publish(self) -> list[tuple[int, list[GopResult], GopResult | None]]:
        """Merge the finished GOPs; return the display-ready runs as
        ``(gop, parts, final result or None)``: every GOP the merger
        released, then what the head GOP — the first not released —
        has posted so far."""
        ready = []
        while (node := self.graph.first_ready(publish=True)) is not None:
            self.graph.dispatch(node.tid)
            result = self.results.pop(node.deps[0])
            for done in self.merger.push(result.gop, result):
                ready.append(
                    (done.gop, [*self.parts.pop(done.gop, []), done], done)
                )
            metrics().gauge("queue.depth").set(self.merger.held)
            self.graph.complete(node.tid)
        head = self.merger.emitted
        if head in self.parts:
            ready.append((head, self.parts.pop(head), None))
        return ready

    def _emit(self, ready) -> Iterator[tuple[int, list[Frame]]]:
        for gop, parts, done in ready:
            slots = [
                (part.slot_base + j, ref)
                for part in parts
                for j, ref in enumerate(part.temporal_references)
            ]
            with trace_span(
                "mp.shm.read", cat="mp", gop=gop, frames=len(slots)
            ):
                frames = [self.pool.read_frame(*slot) for slot in slots]
            if done is not None:
                if self.counters is not None:
                    self.counters.add(done.counters)
                self.free_runs.append(self.held_runs.pop(gop))
                self._gauge_window()
            yield gop, frames

