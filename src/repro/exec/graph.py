"""Typed task graphs: the live ready-set every parent loop dispatches from.

A :class:`TaskGraph` is the explicit form of what the schedulers used
to encode in control flow: *which* units of work exist (typed
:class:`TaskNode` records) and *which edges* must complete before a
node may start (reference-dependency edges — the paper's
synchronization constraint — and policy-imposed barrier edges).

It is the one place the start/release rule lives.  Planners
(:mod:`repro.exec.plan`) lower a scan into a graph whose worker-run
nodes carry the payload that is actually sent and whose ``publish``
nodes are steps the parent runs itself; the GOP decoder, the slice
decoder and every serve session lane then *dispatch from* their graph:
a node may start only once it is in the ready set, and completing it
is what releases its dependents.  Readiness is incremental — each node
keeps a count of unmet edges and each completion decrements its
dependents' — so asking "what may start now?" never rescans the graph,
and the ready set is kept in plan order, which is the in-order service
rule of the paper's task queues.

Because the run dispatches from it, the graph's conservation law —
``planned == dispatched + cancelled`` and ``dispatched == completed +
lost`` — audits the run that happened: an aborted run leaves
``completed < planned`` with the difference accounted as ``cancelled``
(never started) or ``lost`` (in flight when the run died).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

#: The three task kinds of the paper's pipeline: ``parse`` (entropy
#: decode / headers), ``reconstruct`` (dequant + IDCT + motion comp —
#: the planners fuse a unit's parse into it, so every worker-run node
#: they emit is a ``reconstruct``), ``publish`` (the parent makes a
#: decoded unit visible to its waiters and to the display merge).
TASK_KINDS = ("parse", "reconstruct", "publish")

PENDING = "pending"
DISPATCHED = "dispatched"
COMPLETED = "completed"
CANCELLED = "cancelled"
LOST = "lost"


@dataclass(frozen=True)
class TaskNode:
    """One typed unit of work with explicit dependency edges.

    ``tid`` is unique within its graph; ``deps`` names the tids whose
    completion gates this node, and ``barriers`` the subset of those
    edges that a synchronisation *policy* imposed rather than a data
    dependency (what splits a gated wait into the ``barrier`` and
    ``ref.publish`` stalls).  ``payload`` is what a worker is sent for
    the node (``None`` for the parent-run ``publish`` steps); ``gop`` /
    ``order`` locate the work in the coded stream.
    """

    tid: Hashable
    kind: str
    gop: int = 0
    order: int = 0
    deps: tuple = ()
    barriers: tuple = ()
    payload: object = None

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(
                f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}"
            )


class TaskGraph:
    """A DAG of :class:`TaskNode`: live ready set + conservation audit.

    Nodes move ``pending -> dispatched -> completed``.  A pending node
    may instead be ``cancelled`` (with the dependents that could then
    never run) and a dispatched one ``lost`` when its run aborts;
    :meth:`requeue` and :meth:`restore` are the exact inverses of
    dispatch and cancel.  Every transition is checked:

    * :meth:`add` rejects duplicate tids, unknown deps (edges must
      point at already-added nodes, which also makes cycles
      unrepresentable), and self-edges;
    * :meth:`dispatch` rejects a node whose deps have not completed —
      the "never schedule before the refs publish" invariant — and
      :meth:`dispatch_chain` extends it to nodes sent together to one
      worker: edges from outside the chain complete, edges inside it
      pointing back;
    * :meth:`verify_conservation` checks ``planned == dispatched +
      cancelled`` and ``dispatched == completed + lost`` once a run
      finishes or aborts.
    """

    def __init__(self) -> None:
        self.nodes: dict[Hashable, TaskNode] = {}
        self.state: dict[Hashable, str] = {}
        #: Nodes per outcome.  ``dispatched`` counts nodes, not
        #: attempts: a requeued node gives its dispatch back.
        self.planned = 0
        self.dispatched = 0
        self.completed = 0
        self.cancelled = 0
        self.lost = 0
        self._seq: dict[Hashable, int] = {}
        self._tids: list[Hashable] = []
        self._unmet: dict[Hashable, int] = {}
        self._dependents: dict[Hashable, list] = {}
        #: Plan positions of the pending nodes with no unmet edge:
        #: worker-run nodes, parent-run ``publish`` nodes.
        self._ready: tuple[list[int], list[int]] = ([], [])

    # ------------------------------------------------------------------
    def add(self, node: TaskNode) -> TaskNode:
        tid, nodes, state = node.tid, self.nodes, self.state
        if tid in nodes:
            raise ValueError(f"duplicate task id {tid!r}")
        for dep in node.deps:
            if dep == tid:
                raise ValueError(f"task {tid!r} depends on itself")
            if dep not in nodes:
                raise ValueError(
                    f"task {tid!r} depends on unknown task {dep!r} "
                    "(edges must point at already-planned nodes)"
                )
        unmet = 0
        for dep in node.deps:
            self._dependents[dep].append(tid)
            if state[dep] != COMPLETED:
                unmet += 1
        self._seq[tid] = len(self._tids)
        self._tids.append(tid)
        self._dependents[tid] = []
        self._unmet[tid] = unmet
        nodes[tid] = node
        self.planned += 1
        self._set_pending(tid)
        return node

    def _lane(self, tid: Hashable) -> list[int]:
        return self._ready[self.nodes[tid].kind == "publish"]

    def _set_pending(self, tid: Hashable) -> None:
        self.state[tid] = PENDING
        if not self._unmet[tid]:
            insort(self._lane(tid), self._seq[tid])

    def _leave_pending(self, tid: Hashable, state: str) -> None:
        self.state[tid] = state
        if not self._unmet[tid]:
            lane = self._lane(tid)
            del lane[bisect_left(lane, self._seq[tid])]

    def ready(self) -> list[TaskNode]:
        """Pending nodes whose every dep has completed, in plan order."""
        return [self.nodes[self._tids[s]] for s in sorted(sum(self._ready, []))]

    def first_ready(self, publish: bool = False) -> TaskNode | None:
        """The earliest-planned ready node a worker may be sent — or,
        with ``publish``, that the parent may run."""
        lane = self._ready[publish]
        return self.nodes[self._tids[lane[0]]] if lane else None

    def pending(self) -> Iterator[TaskNode]:
        """Every pending node, ready or not, in plan order."""
        return (n for t, n in self.nodes.items() if self.state[t] == PENDING)

    @property
    def in_flight(self) -> int:
        return self.dispatched - self.completed - self.lost

    # ------------------------------------------------------------------
    def dispatch(self, tid: Hashable) -> TaskNode:
        """Dispatch one node: a chain of one."""
        return self.dispatch_chain((tid,))[0]

    def dispatch_chain(self, tids: Sequence[Hashable]) -> list[TaskNode]:
        """Dispatch ``tids`` together, to run in that order on one
        worker.  Every edge into the chain from outside it must be
        complete, and every edge inside it must point at an earlier
        member; checked before any node changes state."""
        for i, tid in enumerate(tids):
            if self.state[tid] != PENDING or tid in tids[:i]:
                raise ValueError(
                    f"task {tid!r} dispatched twice (state {self.state[tid]!r})"
                )
            unmet = [
                d for d in self.nodes[tid].deps
                if d not in tids[:i] and self.state[d] != COMPLETED
            ]
            if ahead := [d for d in unmet if d in tids]:
                raise ValueError(f"task {tid!r} depends on {ahead}, later in its chain")
            if unmet:
                raise ValueError(
                    f"task {tid!r} scheduled before its ref edges published: {unmet}"
                )
        for tid in tids:
            self._leave_pending(tid, DISPATCHED)
        self.dispatched += len(tids)
        return [self.nodes[tid] for tid in tids]

    def complete(self, tid: Hashable) -> list[TaskNode]:
        """Finish a dispatched node; returns the nodes that released."""
        if self.state[tid] != DISPATCHED:
            raise ValueError(
                f"task {tid!r} completed without dispatch "
                f"(state {self.state[tid]!r})"
            )
        self.state[tid] = COMPLETED
        self.completed += 1
        released = []
        for dep in self._dependents[tid]:
            self._unmet[dep] -= 1
            if not self._unmet[dep] and self.state[dep] == PENDING:
                self._set_pending(dep)
                released.append(self.nodes[dep])
        return released

    def requeue(self, tid: Hashable) -> None:
        """Take a dispatched node back (its worker was lost and it will
        be retried): pending again, at its place in plan order."""
        if self.state[tid] != DISPATCHED:
            raise ValueError(
                f"task {tid!r} is not in flight (state {self.state[tid]!r})"
            )
        self.dispatched -= 1
        self._set_pending(tid)

    def cancel(self, tid: Hashable) -> list[Hashable]:
        """Abandon a pending node and every pending node that depends
        on it, directly or not; returns their tids in plan order.

        A cancelled node counts toward conservation — work planned but
        deliberately not done is still accounted for, unlike work
        silently lost.
        """
        if self.state[tid] != PENDING:
            raise ValueError(
                f"task {tid!r} cancelled after dispatch "
                f"(state {self.state[tid]!r})"
            )
        out, stack = [], [tid]
        while stack:
            tid = stack.pop()
            if self.state[tid] == PENDING:
                self._leave_pending(tid, CANCELLED)
                self.cancelled += 1
                out.append(tid)
                stack.extend(self._dependents[tid])
        return sorted(out, key=self._seq.__getitem__)

    def restore(self, tids: Iterable[Hashable]) -> None:
        """Un-cancel ``tids`` (the inverse of :meth:`cancel`)."""
        for tid in tids:
            if self.state[tid] != CANCELLED:
                raise ValueError(
                    f"task {tid!r} is not cancelled "
                    f"(state {self.state[tid]!r})"
                )
            self.cancelled -= 1
            self._set_pending(tid)

    def cancel_pending(self) -> int:
        """Cancel every still-pending node; returns how many."""
        tids = [node.tid for node in self.pending()]
        for tid in tids:
            self._leave_pending(tid, CANCELLED)
        self.cancelled += len(tids)
        return len(tids)

    def abort(self) -> None:
        """The run is over: what was in flight is ``lost``, what never
        started is ``cancelled``.  A no-op on a finished graph."""
        for tid, state in self.state.items():
            if state == DISPATCHED:
                self.state[tid] = LOST
                self.lost += 1
        self.cancel_pending()

    # ------------------------------------------------------------------
    def run_all(self, on_node=None) -> int:
        """Drive the graph to completion in dependency order.

        Repeatedly dispatches the earliest ready node (calling
        ``on_node`` if given) and completes it.  Returns the number of
        nodes run.  Raises if the graph stalls with pending nodes whose
        deps can never publish (a planner bug).
        """
        ran = 0
        while (node := self.first_ready(True) or self.first_ready()) is not None:
            self.dispatch(node.tid)
            if on_node is not None:
                on_node(node)
            self.complete(node.tid)
            ran += 1
        stuck = [n.tid for n in self.pending()]
        if stuck:
            raise RuntimeError(
                f"task graph stalled with unrunnable pending nodes: {stuck}"
            )
        return ran

    # ------------------------------------------------------------------
    def is_settled(self) -> bool:
        """True when no node is pending or in flight."""
        return self.planned == self.completed + self.cancelled + self.lost

    def verify_conservation(self) -> None:
        """Assert ``planned == dispatched + cancelled`` and
        ``dispatched == completed + lost`` once the run settled.

        Raises ``RuntimeError`` naming the leak otherwise — callers
        check every graph they dispatched from after the run, so a lost
        task is a loud failure, never a silent hang.
        """
        if self.planned != len(self.nodes):
            raise RuntimeError(
                f"planned counter drifted: {self.planned} != {len(self.nodes)}"
            )
        if self.planned != self.dispatched + self.cancelled:
            raise RuntimeError(
                "task conservation violated: "
                f"planned={self.planned} != dispatched={self.dispatched} "
                f"+ cancelled={self.cancelled}"
            )
        if self.dispatched != self.completed + self.lost:
            raise RuntimeError(
                "task conservation violated: "
                f"dispatched={self.dispatched} != completed={self.completed} "
                f"+ lost={self.lost}"
            )

    def counts(self) -> dict[str, int]:
        return {
            "planned": self.planned,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "lost": self.lost,
        }
