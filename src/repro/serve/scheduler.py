"""Weighted-fair task scheduling + admission control (pure logic).

The serve layer's brain, kept free of processes and clocks so the
hypothesis suite (``tests/serve/test_scheduler_properties.py``) can
drive it through millions of orderings:

* **Tasks** are :class:`ServeTask` records — one whole picture each,
  a reference picture (``kind="ref"``, I or P) or a B picture
  (``kind="b"``), whose dependencies are that picture's own reference
  pictures: the ref edges of the improved slice plan
  (:mod:`repro.exec.plan`), picture-wide.  Each session lane holds them
  as a :class:`~repro.exec.graph.TaskGraph`; a task is *dispatchable*
  only from that graph's ready set, i.e. when every reference it
  predicts from has been published, which is what makes "drop B first"
  legal: nothing ever depends on a ``"b"`` task.  Completion, retry
  (``requeue``), shedding (cancel) and its inverse (``restore``) are
  the graph's transitions, so a lane's conservation law can be audited
  after the run.
* **Weighted fairness** is start-time fair queueing: each session
  carries a virtual time ``served / weight``; :meth:`Scheduler.
  next_task` serves the dispatchable session with the smallest virtual
  time.  Every task is one picture, so a dispatch charges one unit; a
  session's virtual time only advances when it *was* the minimum, which
  bounds the spread between any two backlogged sessions by
  ``max(1 / weight)`` — the share bound the property suite pins.
* **Admission control**: at most ``capacity`` sessions are active at
  once; beyond that, up to ``max_queue`` sessions wait in FIFO order
  and the rest are rejected outright.  Admission is monotone in
  capacity (also property-tested): raising the capacity never turns an
  admit into a reject.
* **Backpressure**: at most ``max_inflight`` of a session's tasks may
  be in flight at once, so one fast stream cannot flood the worker
  pool's queues while others starve.

The capacity is the caller's; :class:`~repro.serve.service.DecodeService`
defaults it to one session per worker slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.exec.graph import (
    COMPLETED,
    DISPATCHED,
    PENDING,
    TaskGraph,
    TaskNode,
)


@dataclass(frozen=True)
class ServeTask:
    """One schedulable unit: one picture of a session.

    ``order`` is the picture's coding order — its frame-pool slot, its
    node in the session's lane graph and the key it is sent under;
    ``deps`` are the coding orders of its reference pictures
    (:attr:`~repro.exec.plan.PicturePlan.dependencies`), which must be
    *published* before it may be dispatched.  Closed GOPs keep every
    reference inside the task's GOP.  Nothing ever depends on a B
    picture — which is exactly why dropping one under overload is safe.
    """

    session: str
    order: int
    kind: str  # "ref" | "b"
    gop: int
    deps: tuple[int, ...] = ()

    @property
    def is_droppable(self) -> bool:
        return self.kind == "b"


class Admission(str, Enum):
    ADMITTED = "admitted"
    QUEUED = "queued"
    REJECTED = "rejected"


class _SessionLane:
    """Scheduler-internal per-session lane: the session's live task
    graph (one node per :class:`ServeTask`, keyed by ``task.order``,
    the task itself as payload) plus its fair-queueing account."""

    __slots__ = ("sid", "weight", "graph", "served", "finished")

    def __init__(self, sid: str, tasks: list[ServeTask], weight: float):
        self.sid = sid
        self.weight = weight
        self.graph = TaskGraph()
        for t in tasks:
            if t.session != sid:
                raise ValueError(f"task {t.order} belongs to {t.session!r}")
            # add() rejects a dependency that is not an earlier task.
            self.graph.add(
                TaskNode(t.order, "reconstruct", gop=t.gop, deps=t.deps, payload=t)
            )
        self.served = 0.0
        self.finished = False

    @property
    def vtime(self) -> float:
        return self.served / self.weight

    def pending(self) -> list[ServeTask]:
        return [node.payload for node in self.graph.pending()]

    def cancel(self, tasks: list[ServeTask]) -> list[ServeTask]:
        """Cancel ``tasks`` (and whatever depends on them) on the graph;
        returns everything that was cancelled, in plan order."""
        graph = self.graph
        cancelled: set[tuple] = set()
        for t in tasks:
            if graph.state[t.order] == PENDING:
                cancelled.update(graph.cancel(t.order))
        return [n.payload for key, n in graph.nodes.items() if key in cancelled]

    def started_gops(self) -> set[int]:
        """GOPs with any dispatched or published picture (un-skippable;
        a requeued picture has shown nothing)."""
        state = self.graph.state
        return {
            node.gop
            for key, node in self.graph.nodes.items()
            if state[key] in (DISPATCHED, COMPLETED)
        }


class Scheduler:
    """Weighted-fair picker over admitted sessions (pure logic).

    *When* a task may start is its lane graph's ready set; the
    scheduler adds the policy on top: which session goes next
    (start-time fair queueing), how many of its tasks may be in flight
    (``max_inflight``), which sessions are active at all (admission),
    and what may be shed (the degradation hooks cancel graph nodes).

    Parameters
    ----------
    capacity:
        Maximum concurrently *active* sessions.
    max_queue:
        Sessions allowed to wait for a slot beyond the capacity; the
        rest are rejected at :meth:`submit`.
    max_inflight:
        Per-session bound on dispatched-but-incomplete tasks
        (backpressure).
    """

    def __init__(
        self, capacity: int, max_queue: int = 0, max_inflight: int = 2
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.capacity = capacity
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self._lanes: dict[str, _SessionLane] = {}
        self._active: list[str] = []
        self._waiting: list[str] = []

    # -- admission -----------------------------------------------------
    def submit(
        self, sid: str, tasks: list[ServeTask], weight: float = 1.0
    ) -> Admission:
        """Offer a session; admit, queue, or reject it."""
        if sid in self._lanes:
            raise ValueError(f"session {sid!r} already submitted")
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        lane = _SessionLane(sid, tasks, weight)
        if len(self._active) < self.capacity:
            self._lanes[sid] = lane
            self._active.append(sid)
            return Admission.ADMITTED
        if len(self._waiting) < self.max_queue:
            self._lanes[sid] = lane
            self._waiting.append(sid)
            return Admission.QUEUED
        return Admission.REJECTED

    def is_active(self, sid: str) -> bool:
        return sid in self._active

    def task(self, sid: str, order: int) -> ServeTask:
        """The submitted task of session ``sid``'s picture ``order``."""
        return self._lanes[sid].graph.nodes[order].payload

    def graphs(self) -> list[TaskGraph]:
        """Every admitted or queued session's task graph."""
        return [lane.graph for lane in self._lanes.values()]

    # -- dispatch ------------------------------------------------------
    def next_task(self) -> ServeTask | None:
        """Dispatch the next task: min virtual time wins, FIFO on ties.

        Never returns a task whose dependencies are unpublished (it
        picks from the lane graphs' ready sets), never exceeds
        ``max_inflight`` per session, and never serves a queued (not
        yet active) session.
        """
        best: tuple | None = None  # (vtime, rank, lane, ready node)
        for rank, sid in enumerate(self._active):
            lane = self._lanes[sid]
            if lane.finished or lane.graph.in_flight >= self.max_inflight:
                continue
            node = lane.graph.first_ready()
            if node is not None and (
                best is None or (lane.vtime, rank) < best[:2]
            ):
                best = (lane.vtime, rank, lane, node)
        if best is None:
            return None
        lane, task = best[2], best[3].payload
        lane.graph.dispatch(task.order)
        lane.served += 1
        return task

    def requeue(self, task: ServeTask) -> None:
        """Return a dispatched task to its session's lane, at its place
        in plan order.

        Used for dead-worker / timeout retry; the service tracks which
        workers are excluded for the retried task.  The work charge is
        refunded so a retry does not count against the session's fair
        share twice.
        """
        lane = self._lanes[task.session]
        lane.graph.requeue(task.order)
        lane.served = max(0.0, lane.served - 1)

    def complete(self, task: ServeTask) -> None:
        """Mark a dispatched task finished and publish its picture."""
        self._lanes[task.session].graph.complete(task.order)

    def session_idle(self, sid: str) -> bool:
        """True when the session has no pending and no in-flight tasks."""
        return self._lanes[sid].graph.is_settled()

    def finish_session(self, sid: str) -> list[str]:
        """Retire a session (done or failed); activate queued sessions.

        Whatever the session still had in flight is accounted ``lost``
        and whatever was pending ``cancelled`` on its graph.  Returns
        the sessions promoted from the admission queue into the freed
        capacity slots.
        """
        lane = self._lanes.get(sid)
        if lane is None:
            return []
        lane.finished = True
        lane.graph.abort()
        promoted: list[str] = []
        if sid in self._active:
            self._active.remove(sid)
            while self._waiting and len(self._active) < self.capacity:
                nxt = self._waiting.pop(0)
                self._active.append(nxt)
                promoted.append(nxt)
        elif sid in self._waiting:
            self._waiting.remove(sid)
        return promoted

    # -- degradation hooks ---------------------------------------------
    def drop_b_tasks(self, sid: str, gops: int | None = None) -> list[ServeTask]:
        """Drop pending B tasks of ``sid`` (never reference tasks).

        ``gops`` limits the shedding to the earliest N distinct GOPs
        that still have pending B tasks (``None`` sheds them all).
        In-flight tasks are never revoked — their work is already paid
        for.  Returns the dropped tasks so the caller can account for
        the skipped pictures.
        """
        lane = self._lanes[sid]
        droppable = [t for t in lane.pending() if t.is_droppable]
        if gops is not None:
            chosen = list(dict.fromkeys(t.gop for t in droppable))[:gops]
            droppable = [t for t in droppable if t.gop in chosen]
        return lane.cancel(droppable)

    def skip_next_gop(self, sid: str) -> list[ServeTask]:
        """Drop every pending task of the earliest *unstarted* GOP.

        A GOP is skippable only while none of its tasks has been
        dispatched or published — skipping mid-GOP would strand
        already-decoded reference pictures.  Returns the dropped tasks
        (possibly empty when every pending GOP has started).
        """
        lane = self._lanes[sid]
        started = lane.started_gops()
        pending = lane.pending()
        candidate = next((t.gop for t in pending if t.gop not in started), None)
        return lane.cancel([t for t in pending if t.gop == candidate])

    def truncate_from_gop(self, sid: str) -> tuple[int | None, list[ServeTask]]:
        """Cancel every pending task from the earliest all-unstarted GOP on.

        The scheduler half of the ABR rung switch: the returned GOP
        number is the *cut point* — every GOP at or after it has had no
        task dispatched or published, so the session can keep the work
        it already paid for (everything before the cut) while a
        continuation session on a cheaper rung joins mid-stream at the
        cut GOP.  Cutting anywhere finer would strand decoded
        reference pictures, exactly the invariant
        :meth:`skip_next_gop` protects.  Returns ``(cut_gop,
        dropped_tasks)``; ``(None, [])`` when no clean cut exists.
        :meth:`restore` is the inverse.
        """
        lane = self._lanes[sid]
        pending = lane.pending()
        if not pending:
            return None, []
        started = lane.started_gops()
        cut = (max(started) + 1) if started else min(t.gop for t in pending)
        dropped = lane.cancel([t for t in pending if t.gop >= cut])
        return (cut, dropped) if dropped else (None, [])

    def restore(self, sid: str, tasks: list[ServeTask]) -> None:
        """Put cancelled ``tasks`` back (the inverse of
        :meth:`truncate_from_gop`): they are pending again, each at its
        place in plan order, as if never cancelled."""
        self._lanes[sid].graph.restore(t.order for t in tasks)

    # -- diagnostics ---------------------------------------------------
    def served_work(self, sid: str) -> float:
        return self._lanes[sid].served

    def vtime(self, sid: str) -> float:
        return self._lanes[sid].vtime

    def pending_count(self, sid: str) -> int:
        graph = self._lanes[sid].graph
        return graph.planned - graph.dispatched - graph.cancelled

    def inflight_count(self, sid: str) -> int:
        return self._lanes[sid].graph.in_flight
