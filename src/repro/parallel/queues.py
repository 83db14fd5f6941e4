"""Simulated task queues: the 1-D GOP queue and the 2-D slice queue.

Queue methods are *generator helpers*: simulated processes call them
with ``yield from`` so the queue can charge cycles and block on engine
conditions.  Every queue access costs ``queue_op_cycles`` (the paper
measures task-queue/lock time and finds it negligible but nonzero).

The 2-D queue (paper Fig. 4, Section 5.2) holds pictures at the first
level and slices at the second.  *When* a slice may start is not
decided here: the queue dispatches from the slice-grain task graph of
:mod:`repro.exec.plan` — the one the real slice decoder dispatches
from — planned a picture at a time as the scan process finds them.
Its edges are what distinguishes the simple slice decoder (a barrier
edge from the picture before: a barrier at every picture) from the
improved one (reference edges only: a barrier only at I/P pictures).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator

from repro.exec.graph import TaskGraph
from repro.exec.plan import add_slice_picture
from repro.obs.stalls import REASON_QUEUE_GET
from repro.parallel.profile import GopProfile, PictureProfile
from repro.smp.engine import Compute, SignalCondition, WaitCondition
from repro.smp.sync import Condition


class SimQueue:
    """A FIFO queue with blocking get, for simulated processes."""

    def __init__(self, name: str, op_cycles: int) -> None:
        self.name = name
        self.op_cycles = op_cycles
        self._items: deque = deque()
        self._closed = False
        # Blocking gets are empty-queue waits: attribute them to the
        # canonical "queue.get" stall reason (same name the real mp
        # pipeline uses for its result-queue / worker-idle waits).
        self._cond = Condition(f"{name}.cond", reason=REASON_QUEUE_GET)
        #: High-water mark (diagnostics, memory discussions).
        self.max_depth = 0

    def put(self, item) -> Generator:
        """Enqueue; wakes blocked getters.  (yield-from helper)"""
        if self._closed:
            raise RuntimeError(f"put() on closed queue {self.name}")
        self._items.append(item)
        self.max_depth = max(self.max_depth, len(self._items))
        yield Compute(self.op_cycles)
        yield SignalCondition(self._cond)

    def close(self) -> Generator:
        """No more items; blocked getters drain then receive ``None``."""
        self._closed = True
        yield SignalCondition(self._cond)

    def get(self) -> Generator:
        """Dequeue one item, blocking while empty; ``None`` when closed."""
        while True:
            if self._items:
                item = self._items.popleft()
                yield Compute(self.op_cycles)
                return item
            if self._closed:
                return None
            yield WaitCondition(self._cond)

    def __len__(self) -> int:
        return len(self._items)


# ----------------------------------------------------------------------
# 2-D picture/slice queue
# ----------------------------------------------------------------------
@dataclass
class PictureEntry:
    """Queue state of one picture (paper's first-level queue node)."""

    gop: GopProfile
    picture: PictureProfile
    #: Global sequence number in coding order across the stream.
    order: int
    #: Global coding-order numbers of pictures this one references.
    dependencies: list[int]
    complete: bool = False


@dataclass(frozen=True)
class SliceTask:
    """One unit of work handed to a worker."""

    entry: PictureEntry
    slice_index: int


class SliceTaskQueue:
    """The 2-D task queue: the slice-grain plan, served in simulated time.

    ``mode`` is ``"simple"`` (synchronise at every picture) or
    ``"improved"`` (synchronise only at reference pictures) — two edge
    sets of one graph (:func:`~repro.exec.plan.add_slice_picture`, one
    node per slice), served earliest-planned first: keeps memory low
    and matches the paper's in-order queue.
    """

    def __init__(self, name: str, op_cycles: int, mode: str) -> None:
        if mode not in ("simple", "improved"):
            raise ValueError(f"unknown slice queue mode: {mode}")
        self.name = name
        self.op_cycles = op_cycles
        self.mode = mode
        self.graph = TaskGraph()
        #: Pictures fed so far, indexed by coding order.
        self.entries: list[PictureEntry] = []
        self._complete_count = 0
        self._finished_feeding = False
        self._cond = Condition(f"{name}.cond", reason=REASON_QUEUE_GET)

    # -- scan side -----------------------------------------------------
    def add_picture(self, entry: PictureEntry) -> Generator:
        """Feed the next picture in coding order."""
        self.entries.append(entry)
        slices = len(entry.picture.slices)
        add_slice_picture(
            self.graph, entry.order, slices, entry.dependencies, self.mode,
            workers=slices,
        )
        yield Compute(self.op_cycles)
        yield SignalCondition(self._cond)

    def finish_feeding(self) -> Generator:
        self._finished_feeding = True
        yield SignalCondition(self._cond)

    # -- worker side ----------------------------------------------------
    def get_slice(self) -> Generator:
        """Claim the next available slice; ``None`` when the stream is done."""
        while True:
            node = self.graph.first_ready()
            if node is not None:
                self.graph.dispatch(node.tid)
                yield Compute(self.op_cycles)
                return SliceTask(self.entries[node.order], node.payload[0])
            if self._finished_feeding and self._complete_count == len(self.entries):
                return None
            yield WaitCondition(self._cond)

    def complete_slice(self, task: SliceTask) -> Generator:
        """Report a finished slice; returns True if its picture completed.

        A picture's last slice releases its ``publish`` node, which is
        settled here, *before* any yield: two workers finishing the same
        picture's last slices in one engine window must elect exactly
        one completer (the classic check-after-wait race).
        """
        entry = task.entry
        released = self.graph.complete(f"p{entry.order}.s{task.slice_index}")
        for publish in released:
            self.graph.dispatch(publish.tid)
            self.graph.complete(publish.tid)
            entry.complete = True
            self._complete_count += 1
        yield Compute(self.op_cycles)
        if released:
            yield SignalCondition(self._cond)
            return True
        return False

    # -- diagnostics -----------------------------------------------------
    @property
    def pictures_complete(self) -> int:
        return self._complete_count
