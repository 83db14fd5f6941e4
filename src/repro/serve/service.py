"""The multi-stream decode service: N sessions, one worker team.

:class:`DecodeService` multiplexes every submitted
:class:`~repro.serve.session.StreamSession` onto one shared team of
decode workers (the paper's scan/workers/display triangle, lifted one
level: *many* scans, one worker team, many display reorder buffers).

Execution model
---------------
* The service is one more *partition* on the process runtime of
  :mod:`repro.exec.backend` and one more *policy* over the one parent
  loop (:class:`~repro.exec.dispatch.ParentLoop`): each session is
  attached to the team (frame pool + bitstream arena + a decode
  context whose size does not grow with the stream), and its tasks —
  one picture each (:class:`~repro.serve.scheduler.ServeTask`), sent
  with that picture's plan and picked by the weighted-fair
  :class:`~repro.serve.scheduler.Scheduler` from the sessions' task
  graphs — run the :func:`decode_picture` body (one whole-picture
  batch of the slice decoder's
  :func:`~repro.parallel.mp_slice.decode_batch`, then its conceal
  sweep).  The loop drives either transport: the warm
  :class:`~repro.exec.backend.WorkerTeam` or, at ``workers=0``, the
  in-process :class:`~repro.exec.backend.LocalTeam` (the deterministic
  CI path the fuzz suite leans on).
* A picture waits only for its own reference pictures — the edges of
  the improved slice plan — so a B picture starts as soon as its two
  references are published, and each picture is emitted the moment its
  task's ``ok`` makes it display-ready.
* The parent assigns exactly one task at a time per worker, so it
  always knows which worker holds which task.  Robustness is a
  *policy* over the team's liveness poll: a worker that dies (or
  exceeds ``task_timeout_s``) is reaped and replaced one for one, and
  its task is requeued until it has lost more than
  ``max_task_retries`` workers, which fails *its session only*.  A
  stream whose bytes are poison (scan failure, slice corruption in
  strict mode, any task exception) likewise fails only its own
  session — the service never crashes and never leaks ``/dev/shm``
  segments.
* Memory follows the live sessions: once a session is terminal and
  none of its tasks is in flight, workers detach it and its pool and
  arena are unlinked — a long-running service holds segments for the
  sessions it is serving, not for those it has served.
* Overload degradation: when a paced session misses deadlines, its
  :class:`~repro.serve.degrade.DegradeState` sheds pending B-picture
  tasks first, then whole unstarted GOPs, recorded under the
  ``degrade.*`` stall reasons and counters.  The service keeps each
  session's deadline schedule but judges no SLO; the net edge does,
  from what its clients report.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import StreamIndex
from repro.mpeg2.kernel import conceal
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry, metrics
from repro.obs.stalls import (
    REASON_ADMISSION,
    REASON_DEGRADE_DROP_B,
    REASON_DEGRADE_SKIP_GOP,
    REASON_DEGRADE_SWITCH_RUNG,
    StallTable,
)
from repro.obs.trace import trace_complete, trace_span
from repro.exec.backend import TaskContext, get_team
from repro.exec.dispatch import ParentLoop, account
from repro.parallel.mp_slice import SliceBatch, decode_batch, picture_state
from repro.serve.degrade import (
    ACTION_DROP_B,
    ACTION_SKIP_GOP,
    ACTION_SWITCH_RUNG,
    DegradePolicy,
)
from repro.serve.scheduler import Admission, Scheduler
from repro.serve.session import SessionStatus, StreamSession

#: How long an idle dynamic service sleeps between control-plane polls.
_IDLE_POLL_S = 0.002


def decode_picture(ctx: TaskContext, keys, plan) -> list[tuple]:
    """Task body: one whole picture — the task carries its
    :class:`~repro.exec.plan.PicturePlan` — into pool slot
    ``plan.order`` (a serve pool has a slot per picture): the slice
    decoder's batch body over all of its slices, then the picture's
    conceal sweep.

    Runs in a worker (or in the parent at ``workers=0``) and records
    the ``serve.worker.*`` metrics there, so report consumers see one
    vocabulary regardless of ``workers``.  Answers its one key with
    the picture's work counters; whatever it raises fails the session,
    not the worker.
    """
    (key,) = keys
    reg = metrics()
    t0 = time.perf_counter()
    try:
        with trace_span(
            "serve.task", cat="serve", session=ctx.sid, key=str(key)
        ):
            batch = SliceBatch(
                plan.order, range(len(plan.slices)), plan.order,
                plan.dependencies,
            ).of(plan)
            [(_key, answer)] = decode_batch(ctx, keys, batch)
            counters, corrupt = answer
            out = ctx.pool.view_frame(plan.order, plan.header.temporal_reference)
            fwd = ctx.pool.view_frame(plan.fwd) if plan.fwd is not None else None
            try:
                conceal(
                    out, fwd, corrupt, plan.slices, ctx.state["resilient"],
                    counters,
                )
            finally:
                del out, fwd
    except Exception:
        reg.counter("serve.worker.task_errors").inc()
        raise
    finally:
        reg.counter("serve.worker.tasks").inc()
        reg.histogram("serve.worker.task_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
    reg.counter("serve.worker.pictures").inc()
    return [(key, counters)]


# ======================================================================
# the service
# ======================================================================
class DecodeService(ParentLoop):
    """Admission-controlled multi-stream decoder on a shared pool (the
    serve policy over :class:`~repro.exec.dispatch.ParentLoop`).

    Parameters
    ----------
    workers:
        Worker processes shared by every session (``0`` = in-process,
        deterministic; ``None`` = CPU count).
    fps:
        Per-session display deadline rate (``None`` disables pacing
        and, with it, overload degradation).
    capacity:
        Max concurrently active sessions; default one per worker slot,
        ``max(1, workers)``.
    max_queue:
        Admission queue depth beyond the capacity (0 = reject
        immediately).
    max_inflight:
        Per-session in-flight task bound (backpressure).
    task_timeout_s:
        Wall-clock budget per task; a worker exceeding it is presumed
        wedged, killed, and the task retried elsewhere.
    max_task_retries:
        How many *distinct* workers may die/time out on one task
        before its session is failed.
    policy:
        Degradation thresholds (:class:`~repro.serve.degrade.
        DegradePolicy`).
    clock:
        Monotonic-seconds source (injectable for deterministic
        degradation tests).
    """

    who = "serve"
    span = "serve.result.wait"

    def __init__(
        self,
        workers: int | None = None,
        fps: float | None = None,
        capacity: int | None = None,
        max_queue: int = 0,
        max_inflight: int = 2,
        resilient: bool = False,
        task_timeout_s: float = 60.0,
        max_task_retries: int = 1,
        policy: DegradePolicy | None = None,
        preroll_pictures: int = 0,
        clock: Callable[[], float] = time.monotonic,
        flight_dir: str | None = None,
        _crash_task: tuple | None = None,  # (wid, sid, order) test hook
        _hang_task: tuple | None = None,   # (wid, sid, order) test hook
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be > 0")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        self.workers = workers
        self.fps = fps
        self.capacity = capacity if capacity is not None else max(1, workers)
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.resilient = resilient
        self.task_timeout_s = task_timeout_s
        self.max_task_retries = max_task_retries
        self.policy = policy or DegradePolicy()
        self.preroll_pictures = preroll_pictures
        self.clock = clock
        #: Always-on bounded per-session event rings; ``flight_dir``
        #: additionally enables automatic JSON dumps on fail/cancel
        #: (and, from the net edge, on SLO burnout; paths collected in
        #: :attr:`flight_dumps`).
        self.flight = FlightRecorder()
        self.flight_dir = flight_dir
        self.flight_dumps: list[str] = []
        #: What each worker shipped with its results over the run
        #: (``[{"pid": ..., "metrics": ...}]``, already folded into the
        #: parent registry); empty for workers=0.
        self.last_worker_metrics: list[dict] = []
        self._crash_task = _crash_task
        self._hang_task = _hang_task

        self.scheduler = Scheduler(
            capacity=self.capacity,
            max_queue=max_queue,
            max_inflight=max_inflight,
        )
        self.sessions: dict[str, StreamSession] = {}
        self._sinks: dict[str, Callable[[int, Frame | None], None]] = {}
        #: (session, picture) -> ids of the workers lost on its task
        #: (died or timed out); its size is the loss count
        #: ``max_task_retries`` bounds.
        self.excluded: dict[tuple[str, int], set[int]] = {}
        self.last_stalls = self.stalls = StallTable()
        self.last_wall_seconds = 0.0
        #: High-water mark of live shared frame-pool bytes.
        self.last_pool_bytes = 0
        self._ran = False
        # -- dynamic-serving control plane (run_forever) ---------------
        # Other threads talk to the run loop exclusively through these,
        # under one lock; the loop drains them at loop-safe points.
        self._control_lock = threading.Lock()
        self._cancel_requests: list[str] = []
        self._intake: list[tuple] = []
        self._stop = False
        self._drain = False
        self._dynamic = False
        self._stopping = False
        #: The team of the active run (``None`` outside one), the frame
        #: pools of the sessions attached to it and what its workers
        #: shipped, per pid.
        self.team = None
        self._pools: dict = {}
        self._shipped: dict[int, MetricsRegistry] = {}

    # ------------------------------------------------------------------
    # submission / admission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        data: bytes,
        weight: float = 1.0,
        resilient: bool | None = None,
        on_frame: Callable[[int, Frame | None], None] | None = None,
        start_gop: int = 0,
        rungs: list[bytes] | None = None,
    ) -> StreamSession:
        """Offer one stream to the service (before :meth:`run`).

        Scan failures are *contained*: the returned session is FAILED
        and the service keeps going.  A ``weight`` that is not > 0 is
        the caller's error: ``ValueError``, before any scan.  Admission
        control may QUEUE or REJECT the session; both are visible on
        ``session.status``.
        ``on_frame(display_index, frame_or_None)`` receives every
        display-ordered emission (``None`` = picture shed by
        degradation); omit it to skip pixel reads entirely.
        ``start_gop`` admits the session mid-stream at the next closed
        GOP at/after that GOP number (exact join — see
        :class:`StreamSession`); ``rungs`` attaches an ABR ladder of
        cheaper encodings the ``switch_rung`` degrade action may
        downshift to.
        """
        if self._ran:
            raise RuntimeError("submit() after run() is not supported")
        return self._submit_impl(
            name, data, weight, resilient, on_frame,
            start_gop=start_gop, rungs=rungs,
        )

    def _submit_impl(
        self,
        name: str,
        data: bytes,
        weight: float = 1.0,
        resilient: bool | None = None,
        on_frame: Callable[[int, Frame | None], None] | None = None,
        start_gop: int = 0,
        rungs: list[bytes] | None = None,
        rung_level: int = 0,
        index: StreamIndex | None = None,
    ) -> StreamSession:
        if not weight > 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        if name in self.sessions:
            raise ValueError(f"duplicate session name {name!r}")
        if name.startswith("__"):
            # Dunder names are reserved for runtime-internal sessions.
            raise ValueError(f"reserved session name {name!r}")
        resilient = self.resilient if resilient is None else resilient
        try:
            sess = StreamSession(
                name,
                data,
                weight=weight,
                resilient=resilient,
                fps=self.fps,
                preroll_pictures=self.preroll_pictures,
                policy=self.policy,
                start_gop=start_gop,
                rungs=rungs,
                rung_level=rung_level,
                index=index,
            )
        except Exception as exc:
            # Corrupt-input containment, scan stage: the poison stream
            # fails alone; the service (and its other sessions) carry on.
            sess = StreamSession.failed(name, exc)
            self.sessions[name] = sess
            metrics().counter("serve.sessions.failed_scan").inc()
            self.flight.record(
                name, "scan.failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            self.flight_dump(name, "scan-failed")
            return sess
        if sess.join_gop:
            self.flight.record(
                name, "joined",
                gop=sess.join_gop, display_base=sess.join_display_base,
            )
            metrics().counter("serve.sessions.joined").inc()
        tasks = sess.tasks()
        verdict = self.scheduler.submit(name, tasks, weight=weight)
        if verdict is Admission.ADMITTED:
            sess.status = SessionStatus.ACTIVE
            sess.admitted_at = self.clock()
            self.flight.record(name, "admitted", tasks=len(tasks))
        elif verdict is Admission.QUEUED:
            sess.status = SessionStatus.QUEUED
            sess.queued_at = self.clock()
            self.flight.record(name, "queued")
        else:
            sess.status = SessionStatus.REJECTED
            metrics().counter("serve.sessions.rejected").inc()
            self.flight.record(name, "rejected")
        self.sessions[name] = sess
        if on_frame is not None:
            self._sinks[name] = on_frame
        return sess

    # ------------------------------------------------------------------
    # dynamic control plane (thread-safe; the net server's interface)
    # ------------------------------------------------------------------
    def submit_dynamic(
        self,
        name: str,
        data: bytes,
        weight: float = 1.0,
        resilient: bool | None = None,
        on_frame: Callable[[int, Frame | None], None] | None = None,
        timeout_s: float = 30.0,
        start_gop: int = 0,
        rungs: list[bytes] | None = None,
        index: StreamIndex | None = None,
    ) -> StreamSession:
        """Offer a stream to a service running under :meth:`run_forever`.

        Callable from any thread.  Blocks until the run loop has taken
        the session through scan + admission (microseconds-to-
        milliseconds) and returns the session with its verdict on
        ``status``, exactly like :meth:`submit` before a static run.
        ``start_gop`` requests a mid-stream join (see :meth:`submit`);
        ``index`` is the caller's scan of ``data``, if it has one (the
        session then does not scan again).
        """
        if not self._dynamic:
            raise RuntimeError(
                "submit_dynamic() requires a run_forever() service"
            )
        done = threading.Event()
        box: dict = {}
        options = dict(
            weight=weight, resilient=resilient, on_frame=on_frame,
            start_gop=start_gop, rungs=rungs, index=index,
        )
        with self._control_lock:
            self._intake.append((name, data, options, done, box))
        if not done.wait(timeout_s):
            raise TimeoutError(
                f"service did not process submission {name!r} "
                f"within {timeout_s}s"
            )
        result = box["session"]
        if isinstance(result, BaseException):
            raise result
        return result

    def request_cancel(self, name: str) -> None:
        """Ask the run loop to cancel a session (thread-safe).

        The client-went-away path: at the next loop-safe point the
        session flips to CANCELLED, its unstarted tasks leave the
        scheduler, and any result a worker is still computing for it is
        discarded on arrival — the shared worker pool is never poisoned
        by a mid-GOP disconnect.  Unknown or already-terminal names are
        ignored (a disconnect can race normal completion).
        """
        with self._control_lock:
            self._cancel_requests.append(name)

    def shutdown(self, drain: bool = False) -> None:
        """Ask :meth:`run_forever` to return (thread-safe).

        ``drain=True`` finishes in-flight sessions first; the default
        cancels every non-terminal session (service teardown).
        """
        with self._control_lock:
            self._stop = True
            self._drain = drain

    def flight_dump(self, sid: str, reason: str) -> str | None:
        """Dump a session's flight ring (no-op without ``flight_dir``)."""
        if self.flight_dir is None:
            return None
        path = self.flight.dump_to(self.flight_dir, sid, reason)
        self.flight_dumps.append(path)
        metrics().counter("obs.flight.dumps").inc()
        return path

    def _cancel_session(self, sid: str) -> None:
        sess = self.sessions.get(sid)
        if sess is None or sess.terminal:
            return
        sess.status = SessionStatus.CANCELLED
        metrics().counter("serve.sessions.cancelled").inc()
        self.flight.record(sid, "cancelled")
        self.flight_dump(sid, "cancelled")
        self._promote(self.scheduler.finish_session(sid))

    def _process_intake(self) -> None:
        with self._control_lock:
            batch, self._intake = self._intake, []
        for name, data, options, done, box in batch:
            try:
                if self._stopping:
                    raise RuntimeError("service is shutting down")
                sess = self._submit_impl(name, data, **options)
                if not sess.terminal:
                    self._attach(sess.name)
                box["session"] = sess
            except BaseException as exc:
                box["session"] = exc
            finally:
                done.set()

    def _apply_control(self) -> None:
        """One loop-safe point: cancels, intake, then shutdown."""
        with self._control_lock:
            cancels, self._cancel_requests = self._cancel_requests, []
            stop, drain = self._stop, self._drain
        for sid in cancels:
            self._cancel_session(sid)
        if self._dynamic:
            if stop and not self._stopping:
                self._stopping = True
                if not drain:
                    for sid in self._nonterminal():
                        self._cancel_session(sid)
            self._process_intake()

    def _drain_control(self) -> None:
        """Post-run: unblock any submitter that raced the shutdown."""
        with self._control_lock:
            batch, self._intake = self._intake, []
            self._cancel_requests = []
        for item in batch:
            done, box = item[-2], item[-1]
            box["session"] = RuntimeError("service stopped")
            done.set()

    def _should_exit(self) -> bool:
        if self._dynamic:
            return self._stopping and not self._nonterminal()
        return not self._nonterminal()

    # ------------------------------------------------------------------
    # result handling
    # ------------------------------------------------------------------
    def _emit_run(self, sess: StreamSession, ready: list[tuple[int, bool]], pool) -> None:
        """Emit a display-ordered run: pace, degrade, sink."""
        sink = self._sinks.get(sess.name)
        for order, dropped in ready:
            display_index = sess.plans[order].display_index
            if dropped:
                if order in sess.switched_orders:
                    # Not shed: this picture's decode moved to the rung
                    # continuation session, which emits it there.  The
                    # marker only exists to let this session's display
                    # merger run to completion.
                    sess.switched_pictures += 1
                    metrics().counter("serve.pictures.switched").inc()
                    continue
                sess.dropped_pictures += 1
                metrics().counter("serve.pictures.dropped").inc()
                self.flight.record(
                    sess.name, "picture.dropped", pic=display_index
                )
                if sink is not None:
                    sink(display_index, None)
                continue
            late_s = sess.pacer.on_emit(display_index, now=self.clock())
            sess.emitted_pictures += 1
            metrics().counter("serve.pictures.emitted").inc()
            if sink is not None:
                frame = pool.read_frame(
                    order, sess.plans[order].header.temporal_reference
                )
                sink(display_index, frame)
            if sess.pacer.enabled:
                if late_s > 0:
                    metrics().counter("serve.deadline.missed").inc()
                    metrics().histogram("serve.deadline.lateness_ms").observe(
                        late_s * 1e3
                    )
                    self.flight.record(
                        sess.name, "deadline.miss",
                        pic=display_index, late_ms=late_s * 1e3,
                    )
                action = sess.degrade.on_emit(late_s > 0)
                if action is not None:
                    self._apply_degrade(sess, action, late_s)

    def _apply_degrade(
        self, sess: StreamSession, action: str, debt_s: float
    ) -> None:
        """Shed work for an overloaded session; account it in obs."""
        if action == ACTION_SWITCH_RUNG:
            self._switch_rung(sess, debt_s)
            return
        if action == ACTION_DROP_B:
            dropped = self.scheduler.drop_b_tasks(
                sess.name, gops=self.policy.drop_b_gops
            )
            reason = REASON_DEGRADE_DROP_B
            sess.dropped_b_tasks += len(dropped)
            metrics().counter("serve.degrade.drop_b_tasks").inc(len(dropped))
        elif action == ACTION_SKIP_GOP:
            dropped = self.scheduler.skip_next_gop(sess.name)
            reason = REASON_DEGRADE_SKIP_GOP
            if dropped:
                sess.skipped_gops += 1
                metrics().counter("serve.degrade.skipped_gops").inc()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown degrade action {action!r}")
        if not dropped:
            return
        # Degradation never sheds a reference picture via drop-B; the
        # scheduler enforces it, this asserts it (cheap and load-bearing
        # for the fuzz suite's invariants).
        if action == ACTION_DROP_B:
            assert all(t.kind == "b" for t in dropped)
        self._shed(sess, reason, dropped, debt_s, tasks=len(dropped))

    def _shed(
        self, sess: StreamSession, reason: str, dropped: list, debt_s: float,
        **detail,
    ) -> None:
        """Account one degrade action in obs and pass its pictures
        through the display merger as markers, so the reorder buffer
        can release runs blocked behind them and the session can still
        finish (:meth:`_emit_run` tells shed from switched)."""
        debt_s = max(debt_s, 0.0)
        self.flight.record(
            sess.name, "degrade", action=reason, debt_ms=debt_s * 1e3, **detail
        )
        self.last_stalls.record(sess.name, reason, debt_s)
        trace_complete(
            "serve.degrade", "stall", time.monotonic_ns(), int(debt_s * 1e9),
            session=sess.name, reason=reason, tasks=len(dropped),
        )
        orders = tuple(t.order for t in dropped)
        self._emit_run(sess, sess.push_dropped(orders), self._pools[sess.name])

    def _switch_rung(self, sess: StreamSession, debt_s: float) -> None:
        """Downshift an overloaded session to its next ABR rung.

        The scheduler cancels everything from the earliest GOP with no
        started work, and that tail is resubmitted as a *continuation
        session* decoding the next rung of the session's ladder,
        joining mid-stream at the cut GOP (the tentpole join path —
        closed GOPs make the hand-off exact at a picture boundary).
        Unlike ``drop_b``/``skip_gop``, no picture is shed: every cut
        picture is emitted by the continuation, at lower resolution
        and a fraction of the decode cost.  No-op when the session has
        no ladder, no clean cut exists, or the service cannot admit
        the continuation.
        """
        if not sess.rungs or self.team is None:
            return
        cut, dropped = self.scheduler.truncate_from_gop(sess.name)
        if cut is None or not dropped:
            return
        rung_data, remaining = sess.rungs[0], sess.rungs[1:]
        cont_name = f"{sess.name}~rung{sess.rung_level + 1}"
        cont = self._submit_impl(
            cont_name,
            rung_data,
            weight=sess.weight,
            resilient=sess.resilient,
            # ``cut`` is relative to this session's (possibly already
            # joined) tail; the rung ladder always holds full streams.
            start_gop=sess.join_gop + cut,
            rungs=remaining,
            rung_level=sess.rung_level + 1,
        )
        if cont.status is SessionStatus.FAILED or cont.status is SessionStatus.REJECTED:
            # Could not place the continuation; put the tail back so
            # the pictures are decoded at the original rung instead of
            # silently vanishing.
            self.scheduler.restore(sess.name, dropped)
            return
        self._attach(cont_name)
        sess.continuation = cont_name
        sess.switched_orders.update(t.order for t in dropped)
        metrics().counter("serve.degrade.switch_rung").inc()
        self._shed(
            sess, REASON_DEGRADE_SWITCH_RUNG, dropped, debt_s,
            cut_gop=cut, pictures=len(dropped), continuation=cont_name,
        )

    def _session_maybe_done(self, sid: str) -> None:
        sess = self.sessions[sid]
        if sess.terminal:
            return
        if self.scheduler.session_idle(sid) and sess.display_done:
            sess.status = SessionStatus.DONE
            metrics().counter("serve.sessions.done").inc()
            # Clean finish: nothing to autopsy, release the ring.
            self.flight.discard(sid)
            self._promote(self.scheduler.finish_session(sid))

    def _fail_session(self, sid: str, error: BaseException | dict) -> None:
        sess = self.sessions[sid]
        if sess.terminal:
            return
        sess.fail(error)
        metrics().counter("serve.sessions.failed").inc()
        self.flight.record(sid, "failed", error=sess.error)
        self.flight_dump(sid, "failed")
        self._promote(self.scheduler.finish_session(sid))

    def _promote(self, promoted: list[str]) -> None:
        now = self.clock()
        for sid in promoted:
            sess = self.sessions[sid]
            sess.status = SessionStatus.ACTIVE
            sess.admitted_at = now
            if sess.queued_at is not None:
                wait = max(0.0, now - sess.queued_at)
                self.last_stalls.record(sid, REASON_ADMISSION, wait)
                metrics().histogram("serve.admission.wait_ms").observe(
                    wait * 1e3
                )

    def _result(self, kind, wid, sid, key, payload, snap) -> None:
        metrics().gauge("serve.inflight").dec()
        if snap is not None:
            self._shipped.setdefault(
                self.team.pid(wid), MetricsRegistry()
            ).merge_snapshot(snap)
        super()._result(kind, wid, sid, key, payload, snap)

    def _done(self, sid: str, key: int, counters: WorkCounters) -> None:
        sess = self.sessions[sid]
        if sess.terminal:
            return  # late result for an already-failed session
        self.scheduler.complete(self.scheduler.task(sid, key))
        sess.counters.add(counters)
        self._emit_run(sess, sess.push_decoded(key), self._pools[sid])
        self._session_maybe_done(sid)

    def _failed(self, sid: str, key: int, exc: Exception) -> None:
        # No scheduler.complete(): _fail_session retires the whole
        # lane, in-flight task included.
        self._fail_session(sid, exc)

    def _nonterminal(self) -> list[str]:
        return [
            sid for sid, s in self.sessions.items() if not s.terminal
        ]

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Drive every submitted session to a terminal state.

        Returns the service report (per-session summaries + service
        aggregates).  Never raises for per-stream failures; only for
        service-level programming errors.
        """
        return self._run(dynamic=False)

    def run_forever(self) -> dict:
        """Serve dynamically-submitted sessions until :meth:`shutdown`.

        Blocking — run it on a dedicated thread and feed it through the
        thread-safe control plane (:meth:`submit_dynamic`,
        :meth:`request_cancel`, :meth:`shutdown`); this is how the
        network front end (:mod:`repro.net.server`) drives the service.
        Sessions submitted with plain :meth:`submit` *before* this call
        are served too.  Returns the service report.
        """
        return self._run(dynamic=True)

    def _run(self, dynamic: bool) -> dict:
        if self._ran:
            raise RuntimeError("DecodeService may only be run once")
        self._ran = True
        self._dynamic = dynamic
        t_run = time.perf_counter()
        try:
            # A static run with nothing decodable admitted settles
            # without a team (a dynamic service starts empty on purpose).
            if dynamic or self._nonterminal():
                self._serve()
        finally:
            self.last_wall_seconds = time.perf_counter() - t_run
            self._drain_control()
        return self.report()

    def _attach(self, sid: str) -> None:
        """Publish a session to the team: frame pool, bitstream arena
        (the whole stream, at attach) and the immutable decode context."""
        sess = self.sessions[sid]
        self._pools[sid] = self.team.attach(
            sid, decode_picture, sess.data, sess.layout, sess.picture_count,
            picture_state(sess.index.sequence_header, sess.resilient),
        )
        self.team.publish(sid, 0, len(sess.data))
        if self.workers:
            live = sum(pool.nbytes for pool in self._pools.values())
            self.last_pool_bytes = max(self.last_pool_bytes, live)

    def _release_settled(self) -> None:
        """Give finished sessions' memory back: once a session is
        terminal and none of its tasks is in flight, workers detach it
        and its segments are unlinked (a result that still arrives for
        it is dropped by the team)."""
        for sid in [s for s in self._pools if self.sessions[s].terminal]:
            if not self.team.in_flight(sid):
                del self._pools[sid]
                self.team.detach(sid)

    def _claim(self) -> tuple | None:
        """One task at a time per worker, lowest idle worker id first;
        the scheduler picks (and dispatches on the lane graph)."""
        free = self.team.free()
        task = self.scheduler.next_task() if free else None
        if task is None:
            return None
        # Test hooks, keyed on (wid, sid, order) so the replacement
        # worker that retries the task does NOT fail again.
        ident = (free[0], task.session, task.order)
        fault = (
            "crash" if ident == self._crash_task
            else "hang" if ident == self._hang_task
            else None
        )
        metrics().gauge("serve.inflight").inc()
        plan = self.sessions[task.session].plans[task.order]
        return free[0], task.session, (task.order,), plan, fault

    def _on_timeout(self) -> bool:
        """Liveness check between result polls: the serve *policy* for
        a dead or hung worker.  Its task is requeued (or, past the
        retry budget, fails its session only) and the team gets one
        replacement per loss; a truthy return abandons the wait so the
        loop can re-dispatch — also when nothing is in flight."""
        lost = self.team.find_lost(self.task_timeout_s)
        if lost is None:
            return not self.team.in_flight()
        wid, why = lost
        held = self.team.lose(wid)
        metrics().counter(f"serve.worker.{why}").inc()
        for sid, key in held:
            metrics().gauge("serve.inflight").dec()
            self.flight.record(
                sid, "worker.lost", wid=wid, why=why, key=str(key)
            )
            excl = self.excluded.setdefault((sid, key), set())
            excl.add(wid)
            if self.sessions[sid].terminal:
                continue  # moot: session already settled
            if len(excl) > self.max_task_retries:
                self._fail_session(
                    sid,
                    {
                        "type": "DecodeError",
                        "message": (
                            f"picture {key}'s task lost {len(excl)} workers "
                            f"({why}); retry budget exhausted"
                        ),
                    },
                )
            else:
                metrics().counter("serve.task.retries").inc()
                self.scheduler.requeue(self.scheduler.task(sid, key))
        self.team.spawn()
        return True

    def _tick(self) -> bool:
        self._apply_control()
        self._release_settled()
        return self._should_exit()

    def _idle(self) -> bool:
        """Nothing dispatchable, nothing in flight: settle stragglers,
        then wait for intake (dynamic) or stop."""
        settled = False
        for sid in self._nonterminal():
            if self.scheduler.is_active(sid) and self.scheduler.session_idle(sid):
                settled = True
                if self.sessions[sid].display_done:
                    self._session_maybe_done(sid)
                else:  # pragma: no cover - defensive
                    self._fail_session(
                        sid,
                        {
                            "type": "DecodeError",
                            "message": "session stranded with undecoded "
                            "pictures and no pending tasks",
                        },
                    )
        if not settled and self._dynamic and not self._stopping:
            time.sleep(_IDLE_POLL_S)  # wait for intake / cancel
            return True
        return settled  # else only queued-forever/rejected remain

    def _serve(self) -> None:
        """One run of the parent loop — worker processes or ``workers=0``."""
        team = self.team = get_team(self.workers)
        try:
            # Every admitted (active or queued) session is attached.
            for sid in self._nonterminal():
                self._attach(sid)
            for _ in self.drive():  # emission goes to the sessions' sinks
                pass
        finally:
            # Whatever is still attached goes now; a whole, idle team
            # stays warm for the next run and any other is shut down
            # (sentinels, final obs, reap, queue close) by release(),
            # which also merges the workers' trace shards.
            for sid in list(self._pools):
                team.detach(sid)
            self._pools.clear()
            team.release()
            self.team = None
            self.last_worker_metrics = [
                {"pid": pid, "metrics": reg.snapshot()}
                for pid, reg in sorted(self._shipped.items())
            ]
            # The graphs the run dispatched from, sessions that ended
            # early included (their remainder is cancelled or lost).
            account(g for g in self.scheduler.graphs() if g.is_settled())

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-able service report: sessions + aggregates."""
        sessions = [s.report() for s in self.sessions.values()]
        status_counts: dict[str, int] = {}
        for s in self.sessions.values():
            status_counts[s.status.value] = (
                status_counts.get(s.status.value, 0) + 1
            )
        all_lateness: list[float] = []
        for s in self.sessions.values():
            all_lateness.extend(s.pacer.lateness)
        misses = sum(1 for x in all_lateness if x > 0)
        return {
            "workers": self.workers,
            "fps": self.fps,
            "capacity": self.capacity,
            "max_queue": self.max_queue,
            "max_inflight": self.max_inflight,
            "wall_seconds": self.last_wall_seconds,
            "pool_bytes": self.last_pool_bytes,
            "sessions": sessions,
            "status_counts": status_counts,
            "deadline": {
                "emitted": len(all_lateness),
                "missed": misses,
                "miss_fraction": (
                    misses / len(all_lateness) if all_lateness else 0.0
                ),
                "max_lateness_s": max(all_lateness, default=0.0),
            },
            "stalls": self.last_stalls.snapshot(),
        }

