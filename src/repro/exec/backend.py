"""The one process runtime every parallel decode runs on.

GOP-grain decode (:mod:`repro.parallel.mp`), slice-grain decode
(:mod:`repro.parallel.mp_slice`) and the multi-stream service
(:mod:`repro.serve.service`) are the paper's one scan/worker/display
structure with three different task queues.  The *partition* is data —
a session context plus a task body — handed to the single runtime
here (protocol tables and the design argument: DESIGN §2.10):

* :func:`worker_main` — the only process target in ``src/``::

      ("attach", sid, body, arena, pool, layout, state, trace_dir)
      ("task",   sid, keys, args, fault)      # runs body(ctx, keys, args)
      ("detach", sid)
      ("untrace",)                            # the traced run has ended
      None                                    # sentinel

      -> ("ok" | "err", wid, sid, key, payload, metrics, stalls)
      -> ("obs", wid, None, None, None, metrics, stalls)   # at untrace, sentinel

  A task is a *chain*: the keys of graph nodes sent together to one
  worker, run in order (a GOP's pictures; a slice batch or a serve
  picture is a chain of one).  Its body answers each key with one
  ``ok`` as that key's work lands; an exception is one ``err``, keyed
  by the first key not answered, and it settles the rest of the chain.
  Tasks arrive on a private queue; every answer is written
  synchronously to the worker's own pipe (no feeder thread: the parent
  can read an answer as soon as it is sent).  It alone owns
  ``reset_metrics``, trace-shard flushing, ``queue.get`` idle
  attribution, the crash/hang test hooks, exception containment and
  segment close.  Metrics and stalls ride every answer, so whatever a
  worker recorded survives its being killed later.
* :class:`WorkerTeam` — the only spawner, poller and reaper, and the
  owner of each session's shared segments.  It waits on every live
  worker's pipe at once; a pipe at EOF is a dead worker.  It holds
  each key of a task until that key's ``ok`` or its chain's ``err``;
  a lost worker's held keys are what it lost.  The parent
  assigns every task to a named worker; what a dead or timed-out
  worker *means* is the caller's policy over the one parent loop
  (:mod:`repro.exec.dispatch`: fatal for the mp decoders, requeue +
  :meth:`WorkerTeam.spawn` for the service).
  :class:`LocalTeam` is the same interface at ``workers=0``.
* :func:`get_team` — the registry: a team that ends a run whole and
  idle stays warm for the next one, any other is retired.
  :func:`shutdown_persistent_pools` and :func:`persistent_worker_pids`
  front it; one mp decode's lease is
  :meth:`repro.exec.dispatch.StreamDecoder._run`.

The task bodies live with their decoders (``decode_gop_task``,
``decode_batch``, ``decode_picture``); nothing here knows a grain.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import shutil
import stat
import tempfile
import threading
import time
from collections import deque, namedtuple
from dataclasses import dataclass
from glob import glob
from multiprocessing import resource_tracker
from multiprocessing.connection import wait
from typing import Callable, Hashable, Iterator, Sequence

from repro.exec.shm import (
    FrameLayout,
    FramePoolBase,
    LocalFramePool,
    SharedFramePool,
    StreamArena,
)
from repro.mpeg2.decoder import DecodeError
from repro.obs.metrics import metrics, reset_metrics
from repro.obs.stalls import REASON_QUEUE_GET, StallTable
from repro.obs.trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    trace_complete,
    trace_instant,
    trace_span,
    tracing_enabled,
)

#: Seconds between liveness polls while a parent blocks on results.
#: A dead worker (crash, OOM kill, SIGKILL) is detected within one
#: poll instead of hanging the merge loop forever on a lost task.
LIVENESS_POLL_S = 0.2

#: How long a graceful shutdown waits for each worker's final
#: observability message, and a reap for each join.
SHUTDOWN_GRACE_S = 5.0

#: Exit code of the ``fault="crash"`` test hook.
CRASH_EXIT = 23


# ----------------------------------------------------------------------
# canonical teardown ordering
# ----------------------------------------------------------------------
def reap_processes(procs, grace: float = SHUTDOWN_GRACE_S) -> None:
    """Terminate-then-join every still-alive worker (escalating)."""
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=grace)
            if p.is_alive():  # pragma: no cover - defensive
                p.kill()
                p.join(timeout=grace)


def release_segments(*segs) -> None:
    """Owner-side shared-memory teardown: close, then unlink."""
    for seg in segs:
        seg.close()
        seg.unlink()


def collect_trace_shards(trace_dir: str) -> None:
    """Merge worker trace shards into the parent tracer, clean up.

    Each worker appends raw events to ``shard-<pid>.jsonl`` under
    ``trace_dir`` *before* it reports a task's result, and the rest
    before its ``obs`` reply to the run's ``untrace`` (or sentinel);
    the parent folds every shard into its own tracer so ``--trace``
    produces one merged timeline, then removes the directory.
    """
    tracer = get_tracer()
    try:
        if tracer is not None:
            for path in sorted(glob(os.path.join(trace_dir, "shard-*.jsonl"))):
                tracer.extend(Tracer.read_shard(path))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# worker side: one context per attached session, one loop
# ----------------------------------------------------------------------
@dataclass
class TaskContext:
    """What a task body sees of its session.

    ``data`` is the coded stream (``bytes`` in process, a zero-copy
    view of the shared arena in a worker), ``pool`` the session's frame
    pool and ``state`` the immutable decode context shipped at attach.
    """

    sid: str
    body: Callable
    data: "bytes | memoryview"
    pool: FramePoolBase
    state: dict
    #: Worker side only: the attached arena, and the attach time that
    #: idle attribution is clamped to (time a warm worker sat between
    #: two runs is not a stall of the later one).
    arena: StreamArena | None = None
    epoch_ns: int = 0

    def close(self) -> None:
        for seg in (self.pool, self.arena):
            try:
                if seg is not None:
                    seg.close()
            except BufferError:  # pragma: no cover - exported views linger
                pass


def run_task(
    ctx: TaskContext | None, wid: int, sid: str, keys: Sequence, args
) -> Iterator[tuple]:
    """Run one task's body, which yields ``(key, payload)`` for each of
    ``keys``: an ``ok`` per answer as it comes, and if the body raises,
    one ``err`` for the first key it had not answered.

    Shared by :func:`worker_main` and :class:`LocalTeam`, so a failing
    task looks the same to the parent loop on both transports — and is
    never a dead worker.
    """
    left = list(keys)
    try:
        if ctx is None:
            raise DecodeError(f"session {sid!r} is not attached to this worker")
        for key, payload in ctx.body(ctx, keys, args):
            left.remove(key)
            yield "ok", wid, sid, key, payload
    except Exception as exc:
        yield "err", wid, sid, left[0] if left else keys[0], exc


def _settle(held: dict, kind: str, sid: str, key: Hashable) -> bool:
    """Let an answer go: an ``ok`` releases its own key, an ``err`` its
    whole task's.  False for an answer nobody holds any more (a task
    that already failed, a lost worker's)."""
    entry = held.pop((sid, key), None)
    if entry is not None and kind == "err":
        for other in entry[1]:
            held.pop((sid, other), None)
    return entry is not None


def _attach(msg: tuple, contexts: dict) -> None:
    """Map a session's segments into this worker.

    A late attach (the parent already released the session) is
    contained: the session stays unknown and its tasks come back
    ``err``.
    """
    _, sid, body, arena_name, arena_size, pool_name, layout, state, _ = msg
    arena = None
    try:
        arena = StreamArena(name=arena_name, size=arena_size)
        pool = SharedFramePool(layout, slots=0, name=pool_name)
    except OSError:
        if arena is not None:
            arena.close()
        return
    contexts[sid] = TaskContext(
        sid, body, arena.view, pool, state,
        arena=arena, epoch_ns=time.monotonic_ns(),
    )


def _open_channels() -> dict[int, int]:
    """fd -> inode of every pipe and socket this process has open
    beyond stdio (empty where there is no procfs)."""
    found: dict[int, int] = {}
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:  # pragma: no cover - non-Linux
        return found
    for fd in map(int, names):
        try:
            st = os.fstat(fd)
        except OSError:
            continue  # the listing's own descriptor
        if fd > 2 and (stat.S_ISFIFO(st.st_mode) or stat.S_ISSOCK(st.st_mode)):
            found[fd] = st.st_ino
    return found


def _drop_channels(foreign: dict[int, int]) -> None:
    """Let go of the pipes and sockets a worker inherited but does not own.

    A forked worker holds a copy of every descriptor its parent had
    open — other workers' queues, client connections, a supervisor's
    control pipe — and for as long as a warm worker lives, the far end
    of each never sees EOF.  Each is pointed at ``/dev/null`` rather
    than closed: Python objects copied from the parent still own those
    numbers and would later close whatever reused them.  The inode
    check skips numbers that were recycled between the parent's
    listing and the fork (and everything under ``spawn``).
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd, inode in foreign.items():
            try:
                if os.fstat(fd).st_ino == inode:
                    os.dup2(null, fd)
            except OSError:
                pass
    finally:
        os.close(null)


def worker_main(
    wid: int, task_q, results, foreign: dict[int, int] | None = None
) -> None:
    """The worker loop: attach / task / detach messages to sentinel.

    ``results`` is the write end of this worker's pipe to the parent
    (anything with ``send``).  Results are tiny tuples — pixels land in
    the session's shared frame pool and the bitstream is read in place
    from its arena, so neither ever crosses the process boundary.
    Every result carries the metrics recorded since the previous one
    (the registry is reset after each snapshot, so nothing is counted
    twice) and the idle stall that preceded the task.
    """
    name = f"worker-{wid}"
    # Under fork the child inherits the parent's registry, tracer and
    # descriptors; start from nothing so merges never double-count the
    # parent and nobody waits on a pipe end parked in this worker.
    reset_metrics()
    disable_tracing()
    _drop_channels(foreign or {})
    trace_dir: str | None = None
    contexts: dict[str, TaskContext] = {}
    last_end = time.monotonic_ns()

    def ship(result: tuple, stalls: StallTable) -> None:
        snap = metrics().snapshot()
        reset_metrics()
        tracer = get_tracer()
        if tracer is not None:
            tracer.write_shard(
                os.path.join(trace_dir, f"shard-{os.getpid()}.jsonl")
            )
        msg = (*result, snap, stalls.snapshot())
        try:
            results.send(msg)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            # ``send`` pickles before it writes, so nothing went out: a
            # payload that does not pickle comes back as the error
            # naming it (an exception, or else the pickling failure).
            cause = msg[4] if msg[0] == "err" else exc
            error = DecodeError(f"{type(cause).__name__}: {cause}")
            results.send(("err", *msg[1:4], error, *msg[5:]))

    try:
        while (msg := task_q.get()) is not None:
            if msg[0] == "attach":
                _attach(msg, contexts)
                if msg[-1] != trace_dir:
                    # Warm workers outlive runs: trace exactly while the
                    # attached run does, into that run's shard.
                    trace_dir = msg[-1]
                    if trace_dir is None:
                        disable_tracing()
                    else:
                        enable_tracing(process_name=name)
                        trace_instant("mp.worker.start", cat="mp")
                continue
            if msg[0] == "detach":
                ctx = contexts.pop(msg[1], None)
                if ctx is not None:
                    ctx.close()
                continue
            if msg[0] == "untrace":
                # The parent merges the run's shards on this reply:
                # flush what is left into ours, then trace no more.
                ship(("obs", wid, None, None, None), StallTable())
                trace_dir = None
                disable_tracing()
                continue
            _, sid, keys, args, fault = msg
            ctx = contexts.get(sid)
            stalls = StallTable()
            now = time.monotonic_ns()
            idle_from = max(last_end, ctx.epoch_ns) if ctx else last_end
            if now > idle_from:
                idle_ns = now - idle_from
                trace_complete(
                    "mp.worker.idle", "stall", idle_from, idle_ns,
                    reason=REASON_QUEUE_GET,
                )
                metrics().histogram("mp.worker.idle_ms").observe(idle_ns / 1e6)
                stalls.record(name, REASON_QUEUE_GET, idle_ns / 1e9)
            if fault == "crash":
                # Fault injection (tests only): die the way an OOM kill
                # would — no result, no cleanup, nonzero exit code.
                os._exit(CRASH_EXIT)
            if fault == "hang":
                # Fault injection (tests only): wedge forever — the
                # per-task timeout must reap us.
                while True:  # pragma: no cover - killed by the parent
                    time.sleep(60.0)
            for answer in run_task(ctx, wid, sid, keys, args):
                ship(answer, stalls)
                stalls = StallTable()
            last_end = time.monotonic_ns()
        ship(("obs", wid, None, None, None), StallTable())
    finally:
        for ctx in contexts.values():
            ctx.close()


# ----------------------------------------------------------------------
# parent side: the two transports
# ----------------------------------------------------------------------
class LocalTeam:
    """The ``workers=0`` transport: one pretend worker, no processes.

    Same interface as :class:`WorkerTeam`; a task runs where it is
    submitted and its answers wait in a deque for :meth:`fetch`, each
    key held until its own.  Deterministic on constrained CI, never
    touches ``/dev/shm``, and metrics land directly in the caller's
    registry.
    """

    def __init__(self) -> None:
        self.contexts: dict[str, TaskContext] = {}
        self.results: deque = deque()
        #: Shaped as a worker's held keys (``_Worker``).
        self.held: dict[tuple, tuple] = {}

    def attach(self, sid, body, data, layout, slots, state):
        pool = LocalFramePool(layout, slots)
        self.contexts[sid] = TaskContext(sid, body, data, pool, state)
        return pool

    def publish(self, sid: str, start: int, end: int) -> None:
        """Nothing to copy: tasks read the caller's own bytes."""

    def detach(self, sid: str) -> None:
        self.contexts.pop(sid, None)

    def free(self, depth: int = 1) -> list[int]:
        return [] if self.held else [0]

    def in_flight(self, sid: str | None = None) -> int:
        """Keys whose answer is not fetched yet."""
        return sum(
            1 for held_sid, _key in self.held if sid is None or held_sid == sid
        )

    def submit(self, wid, sid, keys, args, fault=None) -> None:
        self.held.update(((sid, key), (0.0, keys)) for key in keys)
        for answer in run_task(self.contexts.get(sid), wid, sid, keys, args):
            self.results.append((*answer, None))

    def fetch(self, stalls=None, on_timeout=None, **_names) -> tuple:
        while True:
            result = self.results.popleft()
            if _settle(self.held, result[0], *result[2:4]):
                return result

    def retire(self) -> None:
        self.contexts.clear()

    release = retire


#: One worker: its process, its private task queue, the parent's read
#: end of its result pipe and the keys it holds, ``(sid, key) ->
#: (monotonic seconds at assignment, its task's keys)``, oldest first.
_Worker = namedtuple("_Worker", "proc task_q conn held")


class WorkerTeam:
    """Spawn / attach / assign / poll / reap for one set of workers.

    A run :meth:`attach`-es its sessions (pool and arena are created
    here and every worker maps them), :meth:`submit`-s tasks to workers
    named by :meth:`free`, :meth:`fetch`-es results under its own loss
    policy, :meth:`detach`-es (workers unmap, segments are unlinked) and
    :meth:`release`-s the team.
    """

    def __init__(self, workers: int) -> None:
        # A child forked before any shared memory exists has no
        # inherited resource tracker; it would start its *own* on its
        # first attach, and that tracker "cleans up" the still-live
        # segment when the worker exits — unlinking it under the
        # parent.  Starting ours first makes every child inherit it.
        resource_tracker.ensure_running()
        self.key = workers
        self.workers: dict[int, _Worker] = {}
        #: Messages read off the pipes but not yet handed out: one per
        #: ready pipe per wait, so no worker's results starve another's.
        self._inbox: deque = deque()
        #: sid -> (attach message, pool, arena, stream) of every live
        #: session.
        self.attached: dict[str, tuple] = {}
        self.leased = False
        #: Where workers write this lease's trace shards (set by
        #: :func:`get_team` while the parent is tracing).
        self.trace_dir: str | None = None
        #: Workers lost so far (a team that lost one is never kept warm:
        #: worker ids are not reused, and callers may count on 0..N-1).
        self.lost = 0
        self._next_wid = 0
        self._dead_queues: list = []
        for _ in range(workers):
            self.spawn()

    # -- workers ---------------------------------------------------------
    def spawn(self) -> int:
        """Start one worker (the only process-creation site in ``src``);
        it learns every live session before any task."""
        wid = self._next_wid
        self._next_wid += 1
        task_q = multiprocessing.Queue()
        conn, writer = multiprocessing.Pipe(duplex=False)
        # Everything open right now except the two ends the worker uses
        # (the pipes ``start()`` itself creates come later).
        foreign = _open_channels()
        for fd in (task_q._reader.fileno(), writer.fileno()):
            foreign.pop(fd, None)
        proc = multiprocessing.Process(
            target=worker_main,
            args=(wid, task_q, writer, foreign),
            daemon=True,
        )
        proc.start()
        # The worker holds the only write end: its death is EOF here.
        writer.close()
        self.workers[wid] = _Worker(proc, task_q, conn, {})
        for msg, *_segments in self.attached.values():
            task_q.put(msg)
        return wid

    def pid(self, wid: int) -> int:
        return self.workers[wid].proc.pid

    def live_pids(self) -> set[int]:
        return {w.proc.pid for w in list(self.workers.values()) if w.proc.is_alive()}

    @property
    def whole(self) -> bool:
        """Every original worker alive and idle, nothing attached."""
        return bool(self.workers) and not self.lost and not self.attached and all(
            w.proc.exitcode is None and not w.held
            for w in self.workers.values()
        )

    def _broadcast(self, msg: tuple) -> None:
        for w in self.workers.values():
            try:
                w.task_q.put(msg)
            except (OSError, ValueError):  # pragma: no cover - dying worker
                pass

    # -- sessions --------------------------------------------------------
    def attach(
        self, sid: str, body: Callable, data: bytes, layout: FrameLayout,
        slots: int, state: dict,
    ) -> SharedFramePool:
        """Attach a session — frame pool, a bitstream arena the size of
        ``data`` with nothing in it yet (:meth:`publish` copies byte
        ranges in) and decode context — to the team (traced as one
        ``exec.attach`` span)."""
        with trace_span("exec.attach", cat="exec", session=sid, slots=slots):
            pool = SharedFramePool(layout, slots=slots)
            try:
                arena = StreamArena(size=len(data))
            except BaseException:
                release_segments(pool)
                raise
            msg = (
                "attach", sid, body, arena.name, arena.size, pool.name,
                layout, state, self.trace_dir,
            )
            self.attached[sid] = (msg, pool, arena, data)
            self._broadcast(msg)
        return pool

    def publish(self, sid: str, start: int, end: int) -> None:
        """Copy bytes ``[start, end)`` of a session's stream into its
        arena, where every worker parses them in place; a task may read
        only what was published before it was submitted."""
        _msg, _pool, arena, data = self.attached[sid]
        arena.publish(data, start, end)

    def detach(self, sid: str) -> None:
        """Release a session: workers unmap it, its segments are
        unlinked.  Results still in flight for it are dropped on
        arrival; unknown sessions are ignored."""
        entry = self.attached.pop(sid, None)
        if entry is not None:
            self._broadcast(("detach", sid))
            release_segments(entry[1], entry[2])

    # -- tasks -----------------------------------------------------------
    def free(self, depth: int = 1) -> list[int]:
        """Workers holding fewer than ``depth`` tasks, least loaded
        first (ties by worker id)."""
        return sorted(
            (wid for wid, w in self.workers.items() if len(w.held) < depth),
            key=lambda wid: (len(self.workers[wid].held), wid),
        )

    def in_flight(self, sid: str | None = None) -> int:
        """Keys whose answer has not come back yet."""
        return sum(
            1
            for w in self.workers.values()
            for held_sid, _key in w.held
            if sid is None or held_sid == sid
        )

    def submit(
        self, wid: int, sid: str, keys: Sequence, args, fault: str | None = None
    ) -> None:
        w = self.workers[wid]
        w.held.update(((sid, key), (time.monotonic(), keys)) for key in keys)
        w.task_q.put(("task", sid, keys, args, fault))

    def fetch(
        self,
        stalls: StallTable,
        on_timeout: Callable[[], bool | None],
        who: str = "merge",
        span: str = "mp.result.wait",
    ) -> tuple | None:
        """Liveness-polled result wait: the one blocking get of all parents.

        Blocks on every live worker's pipe in :data:`LIVENESS_POLL_S`
        chunks.  Every empty poll runs ``on_timeout()``, which may raise
        (fatal: a dead worker whose task is unrecoverable), return truthy to
        abandon the wait (a *handled* loss — the serve layer requeues
        and respawns; ``None`` is returned), or return falsy to keep
        polling.  Returns the next ``(kind, wid, sid, key, payload,
        metrics)``: its metrics and stalls are already folded into the
        parent registry and ``stalls``, and the wait is booked as
        ``who``'s ``queue.get`` stall under ``span``.  Answers for keys
        no longer held (lost workers', failed tasks') and for released
        sessions are dropped.
        """
        t0 = time.monotonic_ns()
        while True:
            if not self._inbox:
                self._poll()
                if not self._inbox:
                    if on_timeout():
                        return None
                    continue
            kind, wid, sid, key, payload, snap, stall_snap = self._inbox.popleft()
            worker = self.workers.get(wid)
            if worker is None or not _settle(worker.held, kind, sid, key):
                continue
            if sid in self.attached:
                break
        waited = time.monotonic_ns() - t0
        trace_complete(span, "stall", t0, waited, reason=REASON_QUEUE_GET)
        stalls.record(who, REASON_QUEUE_GET, waited / 1e9)
        if snap is not None:
            metrics().merge_snapshot(snap)
            stalls.merge(stall_snap)
        return kind, wid, sid, key, payload, snap

    def _poll(self) -> None:
        """Wait up to :data:`LIVENESS_POLL_S` on the open worker pipes
        and move one message off each ready pipe into the inbox.

        A pipe at EOF is a dead worker's: it is closed, which takes it
        out of every later wait (the liveness poll decides what the
        death means).  A message that pickled in the worker but does
        not load here becomes an ``err`` for the worker's oldest held
        key — a key of the only task a worker reports on."""
        open_ = {
            w.conn: wid for wid, w in self.workers.items() if not w.conn.closed
        }
        for conn in wait(list(open_), LIVENESS_POLL_S):
            wid = open_[conn]
            try:
                self._inbox.append(conn.recv())
            except EOFError:
                conn.close()
            except Exception as exc:
                held = next(iter(self.workers[wid].held), None)
                if held is not None:
                    error = DecodeError(
                        f"unloadable result: {type(exc).__name__}: {exc}"
                    )
                    self._inbox.append(("err", wid, *held, error, None, None))

    # -- losses ----------------------------------------------------------
    def find_lost(self, task_timeout_s: float | None = None):
        """``(wid, "died" | "timeout")`` for the first worker that has
        exited or held a task longer than ``task_timeout_s``."""
        now = time.monotonic()
        for wid, w in self.workers.items():
            if w.proc.exitcode is not None:
                return wid, "died"
            if task_timeout_s is not None and w.held:
                if now - next(iter(w.held.values()))[0] > task_timeout_s:
                    return wid, "timeout"
        return None

    def lose(self, wid: int) -> list[tuple]:
        """Reap worker ``wid``; returns the ``(sid, key)`` keys it held."""
        w = self.workers.pop(wid)
        self.lost += 1
        reap_processes([w.proc])
        w.conn.close()
        self._dead_queues.append(w.task_q)
        return list(w.held)

    # -- end of run / end of life ------------------------------------------
    def release(self) -> None:
        """End of a run: a whole, idle, registered team stays warm for
        the next run; any other is retired.  The lease's worker trace
        shards are merged into the parent's tracer once every worker
        has flushed its last events into them: a retired worker on the
        sentinel, a warm one on ``untrace`` (a team that does not answer
        it in time is retired too)."""
        with _TEAMS_LOCK:
            self.leased = False
            keep = _TEAMS.get(self.key) is self and self.whole
        if keep and self.trace_dir is not None:
            live = list(self.workers.values())
            self._broadcast(("untrace",))
            keep = self._await_obs(live)
        if not keep:
            self.retire()
        if self.trace_dir is not None:
            collect_trace_shards(self.trace_dir)
            self.trace_dir = None

    def retire(self) -> None:
        with _TEAMS_LOCK:
            if _TEAMS.get(self.key) is self:
                del _TEAMS[self.key]
        self.shutdown()

    def _await_obs(self, live: list) -> bool:
        """Merge the ``obs`` reply of each of ``live`` (sent after its
        trace shard is flushed), waiting up to :data:`SHUTDOWN_GRACE_S`;
        whether every one came.  Anything else read meanwhile belongs to
        no held task and is dropped, as :meth:`fetch` would."""
        deadline = time.monotonic() + SHUTDOWN_GRACE_S
        pending = len(live)
        while pending and time.monotonic() < deadline:
            if all(w.conn.closed for w in live):
                break  # every pipe at EOF: nobody left to report
            self._poll()
            while self._inbox:
                msg = self._inbox.popleft()
                if msg[0] == "obs":
                    metrics().merge_snapshot(msg[5])
                    pending -= 1
        return not pending

    def shutdown(self) -> None:
        """Stop every worker and release everything (idempotent).

        Idle, live workers get the sentinel and their final ``obs``
        message is collected; then — always — escalating reap, queue and
        pipe close and the unlink of any segment still attached."""
        live = list(self.workers.values())
        if live and all(w.proc.exitcode is None and not w.held for w in live):
            for w in live:
                w.task_q.put(None)
            self._await_obs(live)
            for w in live:
                w.proc.join(timeout=SHUTDOWN_GRACE_S)
        reap_processes([w.proc for w in live])
        for w in live:
            w.conn.close()
        if live or self._dead_queues:
            # Closed without blocking on the feeder threads.
            for q in (*[w.task_q for w in live], *self._dead_queues):
                q.close()
                q.cancel_join_thread()
        for _msg, pool, arena, _data in self.attached.values():
            release_segments(pool, arena)
        self.workers.clear()
        self._dead_queues.clear()
        self._inbox.clear()
        self.attached.clear()


# ----------------------------------------------------------------------
# the registry: teams stay warm between runs
# ----------------------------------------------------------------------
_TEAMS: dict[int, WorkerTeam] = {}
_TEAMS_LOCK = threading.Lock()


def get_team(workers: int):
    """Lease the team of ``workers`` processes.

    ``workers == 0`` is a fresh :class:`LocalTeam`.  Otherwise the warm
    registered team if it is whole and not in use (created on first
    use, so fork + interpreter warm-up are paid once per process); a
    second concurrent run gets a private team that is retired on
    release.  Callers end the lease with ``team.release()``.
    """
    if workers == 0:
        return LocalTeam()
    with _TEAMS_LOCK:
        team = _TEAMS.get(workers)
        if team is not None and team.leased:
            team = WorkerTeam(workers)
        else:
            if team is not None and not team.whole:
                del _TEAMS[workers]
                team.shutdown()
                team = None
            if team is None:
                team = _TEAMS[workers] = WorkerTeam(workers)
        team.leased = True
        if tracing_enabled():
            team.trace_dir = tempfile.mkdtemp(prefix="repro-trace-")
        return team


def shutdown_persistent_pools() -> None:
    """Retire every warm team (atexit + test isolation hook)."""
    with _TEAMS_LOCK:
        teams = list(_TEAMS.values())
        _TEAMS.clear()
    for team in teams:
        team.shutdown()


def persistent_worker_pids() -> set[int]:
    """PIDs of live warm-team workers.

    These processes outlive individual decodes *by design*; test
    helpers that assert "no stray children after a crash" use this to
    tell an intentional long-lived worker from a leaked one.
    """
    with _TEAMS_LOCK:
        teams = list(_TEAMS.values())
    return {pid for team in teams for pid in team.live_pids()}


atexit.register(shutdown_persistent_pools)
