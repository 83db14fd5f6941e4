"""The one parent loop: claim -> submit -> fetch -> complete -> publish.

GOP-grain decode, slice-grain decode and the multi-stream service hand
the worker team (:mod:`repro.exec.backend`) work from a live
:class:`~repro.exec.graph.TaskGraph` — the *plan*
(:mod:`repro.exec.plan`).  :meth:`ParentLoop.drive` is the only loop
that moves that work, and the only caller of ``team.submit`` and
``team.fetch`` in ``src``.  A task is a chain of nodes (a GOP's
pictures; one slice batch; one serve picture) and every answer is one
node's ``ok`` or its chain's ``err``.  What the three callers differ
in is *policy*, supplied by overriding the hooks: which ready nodes go
to which worker and how many may be in flight
(:meth:`ParentLoop._claim`), what the parent does for a completed
picture and where the display-ready run goes
(:meth:`~ParentLoop._publish`, :meth:`~ParentLoop._emit`), and what a
failed task or a dead worker means (:meth:`~ParentLoop._failed`,
:meth:`~ParentLoop._on_timeout`).
The defaults are the mp decoders': a task error is re-raised and every
loss is fatal.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Callable, Iterable, Iterator

from repro.exec.backend import get_team
from repro.exec.graph import TaskGraph
from repro.exec.shm import FrameLayout
from repro.exec.window import FrameWindow
from repro.mpeg2.decoder import DecodeError
from repro.mpeg2.index import (
    GopIndex,
    IndexCursor,
    StreamIndex,
    build_index,
    scan_faults_first,
)
from repro.obs.metrics import metrics
from repro.obs.stalls import StallTable
from repro.obs.trace import trace_complete

_RUN_IDS = itertools.count()


def account(graphs: Iterable[TaskGraph]) -> None:
    """After a run, finished or aborted: every graph it dispatched from
    must conserve (a violation raises), and their counts are what the
    ``exec.tasks.*`` counters report."""
    reg = metrics()
    for graph in graphs:
        graph.verify_conservation()
        for name, value in graph.counts().items():
            if value:
                reg.counter(f"exec.tasks.{name}").inc(value)


class ParentLoop:
    """One run of a plan on a team; subclasses are the policies."""

    #: Whose ``queue.get`` stall a result wait is, and its span name.
    who = "merge"
    span = "mp.result.wait"
    #: What dies with a worker, for the fatal-loss diagnostic.
    role, unit, loss = "GOP", "stream", "task"

    team = None
    workers: int
    #: Stall attribution of the (last) run — wall seconds under the
    #: canonical :mod:`repro.obs.stalls` reasons, workers + parent —
    #: and how long it ran.
    last_stalls: StallTable
    last_wall_seconds: float

    def drive(self) -> Iterator:
        """Drive the plan to the end, yielding what :meth:`_emit` does.

        Each round runs the parent's own ready steps first (so waiters
        see fresh publish times), then fills the team, and only then
        emits — the consumer's time is spent while workers are fed.
        Emission can free what the next round waits for, so the loop
        goes round until a round emits nothing before it blocks.
        """
        team = self.team
        while not self._tick():
            ready = self._publish()
            while (claim := self._claim()) is not None:
                team.submit(*claim)
            if ready:
                yield from self._emit(ready)
            elif team.in_flight():
                result = team.fetch(
                    self.last_stalls, self._on_timeout,
                    who=self.who, span=self.span,
                )
                if result is not None:  # None: a handled loss
                    self._result(*result)
            elif not self._idle():
                return

    def stall_breakdown(self) -> dict[str, float]:
        """Fraction of aggregate process time blocked, per reason.

        Denominator: ``wall seconds x (worker processes + parent)`` —
        the real-silicon analogue of the simulator's ``finish_cycles x
        processes``, so the breakdowns line up in
        ``repro.analysis.obs_report``.
        """
        procs = self.workers + 1 if self.workers else 1
        return self.last_stalls.breakdown(self.last_wall_seconds * procs)

    # -- policy hooks ----------------------------------------------------
    def _tick(self) -> bool:
        """Top of every round; truthy ends the run."""
        return False

    def _publish(self) -> list:
        """Publish the pictures completed since the last round; returns
        the display-ready run they released."""
        return []

    def _claim(self) -> tuple | None:
        """The next task to start now, its nodes already dispatched on
        their graph, as ``team.submit`` arguments ``(wid, sid, keys,
        args, fault)`` — ``None`` when nothing may start (no free
        worker, in-flight depth reached, nothing ready)."""
        raise NotImplementedError

    def _emit(self, ready: list) -> Iterator:
        return iter(())

    def _result(self, kind, wid, sid, key, payload, snap) -> None:
        """A key was answered: ``kind`` is ``"ok"`` or ``"err"``."""
        if kind == "ok":
            self._done(sid, key, payload)
        else:
            self._failed(sid, key, payload)

    def _done(self, sid: str, key, payload) -> None:
        """A worker finished ``key``: complete it on its graph and bank
        what publishing it needs."""
        raise NotImplementedError

    def _failed(self, sid: str, key, exc: Exception) -> None:
        raise exc

    def _on_timeout(self) -> bool | None:
        """Between result polls.  A dead worker's task is unrecoverable
        here, so its death is the canonical :class:`DecodeError`."""
        codes = sorted(
            w.proc.exitcode
            for w in self.team.workers.values()
            if w.proc.exitcode is not None
        )
        if codes:
            raise DecodeError(
                f"{self.role} worker process died mid-{self.unit} "
                f"(exit codes {codes}); its {self.loss} is lost — "
                "aborting the parallel decode"
            )

    def _idle(self) -> bool:
        """Nothing in flight and nothing claimable: truthy keeps the
        loop going (more work may arrive), falsy ends the run."""
        return False


class StreamDecoder(ParentLoop):
    """One stream decoded on a leased team — what the GOP-grain and the
    slice-grain decoder share: the scan stage, the frame window, the run
    loop and the run record.

    ``workers=0`` decodes in-process through the identical plan and
    loop (deterministic CI path, no processes); ``>= 1`` uses that many
    OS worker processes; ``None`` the available CPU count.

    The scan is a stage, not a prelude (paper §5.1): construction reads
    only the sequence header, and a decode pulls the stream's GOPs off
    an :class:`~repro.mpeg2.index.IndexCursor` one at a time
    (:meth:`_pull`) as its frame window reaches them, so the work before
    picture 0 is GOP 0's, whatever the stream's length.  A pre-built
    ``index`` is pulled from the same way.

    A partition supplies the task :attr:`body`, a graph for one GOP
    (:meth:`_plan_gop`, onto the graph :meth:`_open_run` made), the
    claim rule (:meth:`~ParentLoop._claim`, calling :meth:`_reach` when
    it has capacity and nothing may start) and the window-size rule
    (:meth:`_window_size`): DESIGN §2.2, "The frame window".
    """

    body: Callable

    def __init__(
        self,
        data: bytes,
        index: StreamIndex | None,
        workers: int | None,
        resilient: bool,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.data = data
        self._index = index
        if index is None:
            cursor = IndexCursor(data)
            self._scan: Iterable[GopIndex] = cursor
            self.seq = cursor.sequence_header
        else:
            self._scan = index.gops
            self.seq = index.sequence_header
        self.workers = workers
        self.resilient = resilient
        self.layout = FrameLayout.for_display(self.seq.width, self.seq.height)
        #: Shared-pool bytes of the last decode's largest frame window
        #: (Fig. 8 counterpart on real silicon); 0 for the in-process
        #: path.
        self.last_pool_bytes = 0
        self.last_stalls = StallTable()
        #: Wall seconds of the last decode's runs.
        self.last_wall_seconds = 0.0
        #: The task graphs the last decode dispatched from, one per run
        #: (empty before the first): settled and conserving, aborted
        #: runs included.
        self.last_graphs: list[TaskGraph] = []
        #: GOPs the last decode has pulled off the scan so far.
        self.gops_scanned = 0
        self.sid: str | None = None

    @property
    def index(self) -> StreamIndex:
        """The whole stream's scan, materialised on first access for the
        tests and tools that read it; no decode reads it."""
        if self._index is None:
            self._index = build_index(self.data)
        return self._index

    @property
    def last_graph(self) -> TaskGraph | None:
        """The graph of the last decode's last run."""
        return self.last_graphs[-1] if self.last_graphs else None

    # -- partition hooks -------------------------------------------------
    def _window_size(self, pictures: int) -> int:
        """Slots for a run whose first GOP has ``pictures`` pictures."""
        raise NotImplementedError

    def _open_run(self) -> TaskGraph:
        """Fresh policy state for a run; returns its empty graph."""
        raise NotImplementedError

    def _plan_gop(self, gi: int, gop: GopIndex, base: int) -> None:
        """Plan GOP ``gi``, whose first picture is ``base``."""
        raise NotImplementedError

    # -- the decode ------------------------------------------------------
    def _decode(self, counters, state: dict) -> Iterator:
        """Decode the stream, yielding what :meth:`_emit` does: a run per
        frame window, which a GOP the window cannot hold ends."""
        self.counters = counters
        self._gops: Iterator[GopIndex] = iter(self._scan)
        self._held_gop: tuple[int, GopIndex] | None = None
        self.gops_scanned = 0
        self.last_stalls = StallTable()
        self.last_wall_seconds = 0.0
        self.last_pool_bytes = 0
        self.last_graphs = []
        with scan_faults_first(self._gops):
            while (head := self._pull()) is not None:
                self._held_gop = head
                size = self._window_size(len(head[1].pictures))
                yield from self._run(size, state)

    def _pull(self) -> tuple[int, GopIndex] | None:
        """The next GOP of the stream and its number (``None`` at the
        end), each scanned once, as one ``mp.scan`` span."""
        pulled, self._held_gop = self._held_gop, None
        if pulled is None:
            t0 = time.monotonic_ns()
            gop = next(self._gops, None)
            if gop is None:
                return None
            ns = time.monotonic_ns() - t0
            pulled = self.gops_scanned, gop
            trace_complete(
                "mp.scan", "mp", t0, ns, gop=pulled[0], bytes=gop.wire_bytes
            )
            metrics().counter("mp.scan_ms").inc(ns / 1e6)
            self.gops_scanned += 1
        return pulled

    def _reach(self) -> bool:
        """The planning trigger, for a claim with capacity that finds
        nothing to start: publish and plan the next GOP if the window
        reaches its first picture (a window of no slot, sized by an
        empty GOP, reaches only empty GOPs).  ``False`` if it does not,
        or the run is over: the stream's end, or a GOP too long for the
        window, held back to start the next run."""
        base = len(self.display)
        if self._ended or self.window.size and base >= self.window.limit:
            return False
        pulled = self._pull()
        if pulled is None or (
            self._window_size(len(pulled[1].pictures)) > self.window.size
        ):
            self._held_gop, self._ended = pulled, True
            return False
        gi, gop = pulled
        self.team.publish(self.sid, gop.start_offset, gop.end_offset)
        self._plan_gop(gi, gop, base)
        self.temporal += [pic.temporal_reference for pic in gop.pictures]
        self.display += [base + r for r in gop.display_ranks()]
        self.merger.total += len(gop.pictures)
        for pos, refs in enumerate(gop.references()):
            self.window.add(base + pos, (base + r for r in refs if r is not None))
        return True

    def _read(self, orders: list[int]) -> list:
        """The frames of pictures ``orders``, read out of their slots as
        they leave the merge."""
        frames = [
            self.pool.read_frame(self.window.slot(order), self.temporal[order])
            for order in orders
        ]
        for order in orders:
            self.window.emitted(order)
        return frames

    # -- a run -----------------------------------------------------------
    def _run(self, size: int, state: dict) -> Iterator:
        """One run on a ``size``-slot frame window, from the held GOP on:
        lease the team, attach the stream under a fresh run id and
        drive the run's graph to its end.

        A run that aborts — a task error, a dead worker, a consumer
        that stops iterating — retires its team instead of releasing
        it (tasks may still be running there) and leaves the graph
        aborted: in flight is ``lost``, never started ``cancelled``.
        """
        # Imported here: repro.parallel imports this module.
        from repro.parallel.merge import DisplayMerger, record_merge_hold

        def held(order: int, since_ns: int, held_ns: int) -> None:
            # An out-of-order completion sat in the reorder buffer: the
            # display-order merge stall (paper's display process).
            record_merge_hold(self.last_stalls, since_ns, held_ns, order=order)

        self.window = FrameWindow(size)
        #: Temporal reference and display index of each picture, in
        #: coding order.
        self.temporal: list[int] = []
        self.display: list[int] = []
        self.merger = DisplayMerger(0, on_hold=held if self.workers else None)
        self._ended = False
        graph = self._open_run()
        self.last_graphs.append(graph)
        team = self.team = get_team(self.workers)
        sid = f"run-{next(_RUN_IDS)}"
        t_run = time.perf_counter()
        try:
            self.pool = team.attach(
                sid, self.body, self.data, self.layout, size, state
            )
            if self.workers:
                self.last_pool_bytes = max(
                    self.last_pool_bytes, self.pool.nbytes
                )
            self.sid = sid
            yield from self.drive()
        except BaseException:
            team.retire()
            raise
        finally:
            self.sid = None
            team.detach(sid)
            team.release()
            graph.abort()
            self.window.close()
            self.last_wall_seconds += time.perf_counter() - t_run
        self.merger.finish("pictures")
