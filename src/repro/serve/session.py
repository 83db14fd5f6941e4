"""Per-stream session state for the multi-stream decode service.

A :class:`StreamSession` owns everything one client's stream needs
inside the service: the scan products (the caller's index or its own
scan, narrowed to the GOPs from the join point on, + coding-order
:class:`~repro.exec.plan.PicturePlan` records), the task
decomposition handed to the scheduler (one task per picture, gated by
its reference pictures), the display-order reorder buffer
(:class:`~repro.parallel.merge.DisplayMerger`), the deadline pacer
(:class:`~repro.parallel.pacing.Pacer` on wall seconds — the one
schedule the net edge also sends by), the degradation state machine,
and the emission/drop accounting that ends up in the service report.
The session judges no SLO: the net edge does, from client receipts.

Scan failures (corrupt headers, open GOPs, missing references) raise
at construction; :meth:`StreamSession.failed` wraps that into a
terminal session record — the same fields, from the same initialiser,
over no pictures — so the service can *contain* a poisoned stream
instead of dying with it.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.index import StreamIndex, build_index
from repro.exec.plan import PicturePlan, scan_slice_tasks
from repro.exec.shm import FrameLayout
from repro.parallel.merge import DisplayMerger
from repro.parallel.mp_slice import base_counters
from repro.parallel.pacing import Pacer
from repro.serve.degrade import DegradePolicy, DegradeState
from repro.serve.scheduler import ServeTask


class SessionStatus(str, Enum):
    PENDING = "pending"    # submitted, not yet admitted by the scheduler
    QUEUED = "queued"      # waiting for a capacity slot
    ACTIVE = "active"      # decoding
    DONE = "done"          # every picture emitted or deliberately dropped
    FAILED = "failed"      # contained per-session error
    REJECTED = "rejected"  # admission control turned it away
    CANCELLED = "cancelled"  # client went away; remaining work shed


class StreamSession:
    """One client stream multiplexed onto the shared worker pool."""

    def __init__(
        self,
        name: str,
        data: bytes,
        weight: float = 1.0,
        resilient: bool = False,
        fps: float | None = None,
        preroll_pictures: int = 0,
        policy: DegradePolicy | None = None,
        start_gop: int = 0,
        rungs: list[bytes] | None = None,
        rung_level: int = 0,
        index: StreamIndex | None = None,
    ) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        # The scan step (skipped when the caller already holds the
        # stream's index) — may raise DecodeError; the service catches
        # and turns it into a FAILED session (corrupt-input
        # containment).
        if index is None:
            index = build_index(data)
        # Mid-stream join: admit at the next closed GOP at/after
        # ``start_gop`` and decode the tail as an index *view* — the
        # same bytes and the one scan, minus the GOPs before the join.
        # Because no coded state crosses a closed-GOP boundary, every
        # picture of the tail is bit-identical to the same picture of a
        # linear decode — the join is exact, and all downstream
        # machinery (plans, merger, shared-pool meta) sees an ordinary
        # stream whose pictures number from the join.  join_point
        # raises StreamIndexError past EOF (contained like any other
        # scan failure).
        join = index.join_point(start_gop) if start_gop else 0
        self._init(
            name, data, replace(index, gops=index.gops[join:]),
            weight=weight, resilient=resilient,
            fps=fps, preroll_pictures=preroll_pictures,
            policy=policy, rungs=rungs, rung_level=rung_level,
        )
        self.join_gop = join
        self.join_display_base = index.gop_display_base(join)

    def _init(
        self, name: str, data: bytes, index: StreamIndex | None,
        weight: float = 1.0, resilient: bool = False,
        fps: float | None = None, preroll_pictures: int = 0,
        policy: DegradePolicy | None = None,
        rungs: list[bytes] | None = None, rung_level: int = 0,
    ) -> None:
        """Every field of a session, over the GOPs of ``index`` (``None``:
        a stream that never scanned — no pictures, nothing to decode)."""
        self.name = name
        self.data = data
        self.weight = weight
        self.resilient = resilient
        self.index = index
        self.join_gop = 0
        self.join_display_base = 0
        self.seq = self.layout = None
        self.plans: list[PicturePlan] = []
        #: Work counters (sequential-oracle parity): GOP + picture
        #: header charges land here upfront, slice work as results
        #: arrive.
        self.counters = WorkCounters()
        if index is not None:
            self.seq = index.sequence_header
            self.layout = FrameLayout.for_display(self.seq.width, self.seq.height)
            self.plans = scan_slice_tasks(index)
            self.counters = base_counters(index.gops)
        self.merger = DisplayMerger(len(self.plans))
        self.pacer = Pacer(1.0 / fps if fps else None, preroll_pictures)
        self.degrade = DegradeState(policy or DegradePolicy())
        # -- ABR rung ladder -------------------------------------------
        #: Cheaper encodings of the same content, descending cost; the
        #: ``switch_rung`` degrade action consumes the head of this
        #: list by handing the not-yet-started tail of the stream to a
        #: continuation session decoding that rung (mid-stream join).
        self.rungs: list[bytes] = list(rungs or [])
        self.rung_level = rung_level
        #: Coding orders handed off to a rung continuation (their
        #: pictures are emitted *there*, not here).
        self.switched_orders: set[int] = set()
        self.switched_pictures = 0
        #: Name of the continuation session, once a switch happened.
        self.continuation: str | None = None
        self.status = SessionStatus.PENDING
        self.error: dict | None = None
        # -- accounting ------------------------------------------------
        self.emitted_pictures = 0
        self.dropped_pictures = 0
        self.skipped_gops = 0
        self.dropped_b_tasks = 0
        self.admitted_at: float | None = None
        self.queued_at: float | None = None

    # ------------------------------------------------------------------
    @classmethod
    def failed(cls, name: str, error: BaseException) -> "StreamSession":
        """A terminal session record for a stream that failed to scan."""
        sess = cls.__new__(cls)
        sess._init(name, b"", None)
        sess.fail(error)
        return sess

    # ------------------------------------------------------------------
    @property
    def picture_count(self) -> int:
        return len(self.plans)

    @property
    def terminal(self) -> bool:
        return self.status in (
            SessionStatus.DONE,
            SessionStatus.FAILED,
            SessionStatus.REJECTED,
            SessionStatus.CANCELLED,
        )

    def fail(self, error: BaseException | dict) -> None:
        self.status = SessionStatus.FAILED
        if isinstance(error, dict):
            self.error = error
        else:
            self.error = {
                "type": type(error).__name__,
                "message": str(error),
            }

    # ------------------------------------------------------------------
    def tasks(self) -> list[ServeTask]:
        """The scheduler decomposition: one task per picture, in coding
        order, waiting for exactly its own reference pictures."""
        return [
            ServeTask(
                self.name, p.order, "ref" if p.is_reference else "b", p.gop,
                p.dependencies,
            )
            for p in self.plans
        ]

    # ------------------------------------------------------------------
    # display-side bookkeeping
    # ------------------------------------------------------------------
    def _push(self, orders: tuple[int, ...], dropped: bool) -> list[tuple[int, bool]]:
        ready: list[tuple[int, bool]] = []
        for order in orders:
            plan = self.plans[order]
            ready.extend(self.merger.push(plan.display_index, (order, dropped)))
        return ready

    def push_decoded(self, order: int) -> list[tuple[int, bool]]:
        """Bank a decoded picture; return the display-ready run, as
        ``(order, dropped)`` pairs in display order."""
        return self._push((order,), False)

    def push_dropped(self, orders: tuple[int, ...]) -> list[tuple[int, bool]]:
        """Bank deliberately-shed pictures as drop markers."""
        return self._push(orders, True)

    @property
    def display_done(self) -> bool:
        return self.merger.done

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-able summary for the service report / CLI table."""
        doc = {
            "session": self.name,
            "status": self.status.value,
            "weight": self.weight,
            "pictures": self.picture_count,
            "emitted": self.emitted_pictures,
            "dropped_pictures": self.dropped_pictures,
            "dropped_b_tasks": self.dropped_b_tasks,
            "skipped_gops": self.skipped_gops,
            "degrade": self.degrade.snapshot(),
            "deadline": self.pacer.summary() if self.pacer.enabled else None,
        }
        if self.join_gop:
            doc["join_gop"] = self.join_gop
            doc["join_display_base"] = self.join_display_base
        if self.rung_level or self.switched_pictures or self.continuation:
            doc["rung_level"] = self.rung_level
            doc["switched_pictures"] = self.switched_pictures
            doc["continuation"] = self.continuation
        if self.error is not None:
            doc["error"] = self.error
        return doc
