"""The discrete-event engine: virtual time, processes, accounting.

A simulated process is a Python generator.  Each ``yield`` hands the
engine a *command*; the engine performs it, advances virtual time, and
resumes the generator with the command's result.  Example worker::

    def worker(proc: Process):
        while True:
            task = yield from proc.queue_like_get(...)   # helpers below
            yield Compute(cycles=task.cost)
            ...

Commands
--------
``Compute(cycles)``        run busy for ``cycles``
``Stall(cycles)``          stall in the memory system (Fig. 7 split)
``AcquireLock(lock)``      mutex acquire (may block -> sync wait)
``ReleaseLock(lock)``      mutex release (wakes one FIFO waiter)
``WaitCondition(cond)``    block until the condition is signalled
``SignalCondition(cond)``  wake every current waiter
``WaitBarrier(barrier)``   block until ``parties`` processes arrive
``Halt()``                 terminate this process

Per-process accounting mirrors the paper's measurement methodology:
``busy`` is pixie's ideal time, ``busy + stall`` is prof's actual
time, and ``sync_wait`` is the source-instrumented synchronisation
time.  Everything is deterministic: the ready heap breaks time ties by
a monotone sequence number and all waiter queues are FIFO.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable

from repro.obs.stalls import StallTable
from repro.smp.sync import Barrier, Condition, Lock


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Compute:
    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"negative compute cycles: {self.cycles}")


@dataclass(frozen=True)
class Stall:
    """Memory-system stall cycles (kept separate from busy cycles)."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"negative stall cycles: {self.cycles}")


@dataclass(frozen=True)
class AcquireLock:
    lock: Lock


@dataclass(frozen=True)
class ReleaseLock:
    lock: Lock


@dataclass(frozen=True)
class WaitCondition:
    condition: Condition


@dataclass(frozen=True)
class SignalCondition:
    condition: Condition


@dataclass(frozen=True)
class WaitBarrier:
    barrier: Barrier


@dataclass(frozen=True)
class SleepUntil:
    """Idle until an absolute virtual time (paced display output).

    Time spent sleeping is accounted as ``idle``, not busy/stall/sync.
    Sleeping into the past is a no-op.
    """

    at: int


@dataclass(frozen=True)
class Halt:
    pass


Command = (
    Compute
    | Stall
    | AcquireLock
    | ReleaseLock
    | WaitCondition
    | SignalCondition
    | WaitBarrier
    | SleepUntil
    | Halt
)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
@dataclass
class ProcessStats:
    """Where a process's virtual time went (the paper's split)."""

    busy: int = 0
    stall: int = 0
    sync_wait: int = 0
    idle: int = 0
    finish_time: int = 0
    #: ``sync_wait`` split by canonical stall reason
    #: (:mod:`repro.obs.stalls` vocabulary); values sum to sync_wait.
    sync_by_reason: dict = field(default_factory=dict)

    @property
    def ideal(self) -> int:
        """pixie-style ideal execution time."""
        return self.busy

    @property
    def actual(self) -> int:
        """prof-style actual time including memory stalls."""
        return self.busy + self.stall

    @property
    def total(self) -> int:
        return self.busy + self.stall + self.sync_wait


class Process:
    """One simulated processor's thread of control."""

    def __init__(self, name: str, body: Callable[["Process"], Generator]) -> None:
        self.name = name
        self.stats = ProcessStats()
        self._body = body
        self._gen: Generator | None = None
        self.finished = False
        #: When the current blocking wait began (for accounting).
        self._wait_start: int | None = None
        #: The primitive this process is blocked on (stall attribution).
        self._wait_primitive: Lock | Condition | Barrier | None = None
        #: Value delivered on next resume.
        self._resume_value = None

    def start(self) -> Generator:
        self._gen = self._body(self)
        return self._gen

    def __repr__(self) -> str:
        return f"<Process {self.name}>"


class DeadlockError(Exception):
    """All live processes are blocked and no event can wake them."""


class Simulator:
    """Runs processes in virtual time until all finish."""

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._ready: list[tuple[int, int, Process]] = []
        self.processes: list[Process] = []
        #: Stall attribution: every blocked interval is recorded here as
        #: (process name, canonical reason, cycles) — the simulator-side
        #: mirror of the mp pipeline's wall-clock stall table.
        self.stalls = StallTable()

    # ------------------------------------------------------------------
    def add_process(self, name: str, body: Callable[[Process], Generator]) -> Process:
        proc = Process(name, body)
        self.processes.append(proc)
        proc.start()
        self._schedule(proc, self.now)
        return proc

    def _schedule(self, proc: Process, at: int) -> None:
        heapq.heappush(self._ready, (at, self._seq, proc))
        self._seq += 1

    def _block(
        self, proc: Process, primitive: Lock | Condition | Barrier
    ) -> None:
        """Mark a process blocked on ``primitive`` (wait accounting)."""
        proc._wait_start = self.now
        proc._wait_primitive = primitive
        primitive.waits += 1

    def _wake(self, proc: Process, value=None) -> None:
        """Unblock a process at the current time, charging sync wait.

        The blocked interval is charged three ways under one unit
        (cycles): the process's ``sync_wait`` total and its per-reason
        split, the primitive's ``wait_cycles``, and the simulator-wide
        :class:`~repro.obs.stalls.StallTable`.
        """
        assert proc._wait_start is not None
        waited = self.now - proc._wait_start
        proc.stats.sync_wait += waited
        primitive = proc._wait_primitive
        if primitive is not None:
            primitive.wait_cycles += waited
            reason = primitive.reason
            proc.stats.sync_by_reason[reason] = (
                proc.stats.sync_by_reason.get(reason, 0) + waited
            )
            self.stalls.record(proc.name, reason, waited)
        proc._wait_start = None
        proc._wait_primitive = None
        proc._resume_value = value
        self._schedule(proc, self.now)

    # ------------------------------------------------------------------
    def run(self, max_events: int = 500_000_000) -> None:
        """Execute until every process has finished."""
        events = 0
        while self._ready:
            events += 1
            if events > max_events:
                raise RuntimeError("simulation exceeded max_events")
            time, _, proc = heapq.heappop(self._ready)
            self.now = max(self.now, time)
            self._step(proc)
        blocked = [p for p in self.processes if not p.finished]
        if blocked:
            raise DeadlockError(
                "simulation ended with blocked processes: "
                + ", ".join(p.name for p in blocked)
            )

    def _step(self, proc: Process) -> None:
        gen = proc._gen
        assert gen is not None
        value, proc._resume_value = proc._resume_value, None
        try:
            command = gen.send(value)
        except StopIteration:
            self._finish(proc)
            return
        self._execute(proc, command)

    def _finish(self, proc: Process) -> None:
        proc.finished = True
        proc.stats.finish_time = self.now

    # ------------------------------------------------------------------
    def _execute(self, proc: Process, command: Command) -> None:
        if isinstance(command, Compute):
            proc.stats.busy += command.cycles
            self._schedule(proc, self.now + command.cycles)
        elif isinstance(command, Stall):
            proc.stats.stall += command.cycles
            self._schedule(proc, self.now + command.cycles)
        elif isinstance(command, AcquireLock):
            lock = command.lock
            lock.acquisitions += 1
            if lock.holder is None:
                lock.holder = proc
                self._schedule(proc, self.now)
            else:
                lock.contentions += 1
                self._block(proc, lock)
                lock.waiters.append(proc)
        elif isinstance(command, ReleaseLock):
            lock = command.lock
            if lock.holder is not proc:
                raise RuntimeError(
                    f"{proc.name} released {lock.name} held by "
                    f"{getattr(lock.holder, 'name', None)}"
                )
            if lock.waiters:
                nxt = lock.waiters.popleft()
                lock.holder = nxt
                self._wake(nxt)
            else:
                lock.holder = None
            self._schedule(proc, self.now)
        elif isinstance(command, WaitCondition):
            self._block(proc, command.condition)
            command.condition.waiters.append(proc)
        elif isinstance(command, SignalCondition):
            cond = command.condition
            cond.signals += 1
            while cond.waiters:
                self._wake(cond.waiters.popleft())
            self._schedule(proc, self.now)
        elif isinstance(command, WaitBarrier):
            barrier = command.barrier
            if len(barrier.arrived) + 1 == barrier.parties:
                barrier.generation += 1
                while barrier.arrived:
                    self._wake(barrier.arrived.popleft())
                self._schedule(proc, self.now)
            else:
                self._block(proc, barrier)
                barrier.arrived.append(proc)
        elif isinstance(command, SleepUntil):
            wake = max(command.at, self.now)
            proc.stats.idle += wake - self.now
            self._schedule(proc, wake)
        elif isinstance(command, Halt):
            self._finish(proc)
        else:
            raise TypeError(f"unknown simulator command: {command!r}")

    # ------------------------------------------------------------------
    def finish_time(self, names: Iterable[str] | None = None) -> int:
        """Latest finish time over the named (or all) processes."""
        procs = self.processes
        if names is not None:
            wanted = set(names)
            procs = [p for p in procs if p.name in wanted]
        return max((p.stats.finish_time for p in procs), default=0)
