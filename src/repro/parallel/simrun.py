"""The paper's machine, once: what every simulated decoder runs on.

Paper Fig. 4 is ``P + 2`` processes — one *scan* process feeding task
queues, ``P`` *workers*, one *display* process reordering decoded
pictures into display order.  The simulated decoders
(:mod:`~repro.parallel.gop_level`, :mod:`~repro.parallel.slice_level`,
:mod:`~repro.parallel.macroblock_level`, :mod:`~repro.parallel.numa`)
differ in the scan body, the worker body and the task queue between
them; everything else is :class:`SimRun`: the engine, the memory
tracker, the display queue, the ``busy -> Compute + Stall`` charge, the
result epilogue and the **one** display process — which reorders with
the real runtime's :class:`~repro.parallel.merge.DisplayMerger` and
paces with the one :class:`~repro.parallel.pacing.Pacer`, both on
virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.obs.stalls import REASON_MERGE, StallTable
from repro.parallel.merge import DisplayMerger
from repro.parallel.pacing import Pacer
from repro.parallel.profile import StreamProfile
from repro.parallel.queues import SimQueue
from repro.smp.costs import CostModel, DEFAULT_COST_MODEL
from repro.smp.engine import (
    Compute,
    Halt,
    Process,
    SignalCondition,
    Simulator,
    SleepUntil,
    Stall,
)
from repro.smp.machine import CHALLENGE, MachineConfig
from repro.smp.memtrack import MemoryTracker
from repro.smp.sync import Condition


@dataclass(frozen=True)
class ParallelConfig:
    """Shared knobs of the simulated parallel decoders.

    A simulated run replays a profile's work counters through the cost
    model and decodes nothing: pixels come from the real decoders
    (:class:`~repro.parallel.mp.MPGopDecoder`,
    :class:`~repro.parallel.mp_slice.MPSliceDecoder`).

    ``workers`` is the paper's ``P``: decode processes, excluding the
    scan and display processes (total processors = P + 2).
    ``remote_fraction`` only matters on NUMA machines: ``None`` models
    no data placement (Section 7.2's measured case); a small value
    models the proposed round-robin GOP placement with task stealing.
    """

    workers: int
    machine: MachineConfig = CHALLENGE
    cost: CostModel = DEFAULT_COST_MODEL
    remote_fraction: float | None = None
    #: When set, the display process paces output at this rate and
    #: deadline misses are counted (real-time playback simulation).
    display_rate_hz: float | None = None
    #: Startup buffer for paced playback, in pictures (player preroll).
    display_preroll_pictures: int = 0
    #: GOP decoder: cap on decoded frames awaiting display.  ``None``
    #: reproduces the paper's unbounded behaviour (Figs. 8-9 memory
    #: growth); a cap trades throughput for bounded memory.  The worker
    #: on the display-front GOP is exempt, which keeps the pipeline
    #: deadlock-free at any cap.
    max_frames_in_flight: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.workers + 2 > self.machine.processors:
            raise ValueError(
                f"{self.workers} workers + scan + display exceed the "
                f"{self.machine.processors}-processor machine"
            )
        if self.max_frames_in_flight is not None and self.max_frames_in_flight < 1:
            raise ValueError("max_frames_in_flight must be >= 1")


@dataclass
class DecodeRunResult:
    """Outcome of one simulated parallel decode."""

    config: ParallelConfig
    picture_count: int
    #: Virtual time (cycles) when the last picture was displayed.
    finish_cycles: int = 0
    #: Per-worker statistics, indexed by worker number.
    worker_busy: list[int] = field(default_factory=list)
    worker_stall: list[int] = field(default_factory=list)
    worker_sync: list[int] = field(default_factory=list)
    #: Virtual display time of each picture, in display order.
    display_times: list[int] = field(default_factory=list)
    memory: MemoryTracker = field(default_factory=MemoryTracker)
    #: Real-time pacing stats (``display_rate_hz`` runs only).
    late_pictures: int = 0
    max_lateness_cycles: int = 0
    startup_cycles: int = 0
    #: Stall attribution (cycles) under the canonical reason vocabulary
    #: of :mod:`repro.obs.stalls` — the simulated counterpart of the mp
    #: pipeline's wall-clock stall table.
    stalls: StallTable = field(default_factory=StallTable)

    @property
    def finish_seconds(self) -> float:
        return self.config.machine.seconds(self.finish_cycles)

    @property
    def pictures_per_second(self) -> float:
        return self.picture_count / self.finish_seconds

    @property
    def peak_memory(self) -> int:
        return self.memory.peak()

    @property
    def max_lateness_seconds(self) -> float:
        return self.config.machine.seconds(self.max_lateness_cycles)

    @property
    def startup_seconds(self) -> float:
        """Latency from simulation start to the first displayed picture."""
        return self.config.machine.seconds(self.startup_cycles)

    @property
    def met_realtime(self) -> bool:
        """True if a paced run displayed every picture by its deadline."""
        return self.late_pictures == 0

    def worker_exec(self, i: int) -> int:
        """Execution (busy + stall) time of worker ``i``."""
        return self.worker_busy[i] + self.worker_stall[i]

    @property
    def mean_sync_ratio(self) -> float:
        """Average over workers of sync_wait / execution time (Fig. 12).

        Workers that never received a task (more workers than tasks —
        the paper avoids this by using long streams) are excluded:
        their wait is stream exhaustion, not synchronisation.
        """
        ratios = [
            self.worker_sync[i] / self.worker_exec(i)
            for i in range(len(self.worker_busy))
            if self.worker_exec(i) > 0
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def stall_breakdown(self) -> dict[str, float]:
        """Fraction of aggregate process time blocked, per reason.

        Denominator: ``finish_cycles x (workers + scan + display)`` —
        the simulated analogue of "wall seconds x processes" used by
        the real mp pipeline, so the two breakdowns are directly
        comparable in ``repro.analysis.obs_report``.
        """
        processes = self.config.workers + 2
        return self.stalls.breakdown(self.finish_cycles * processes)


class SimRun:
    """One simulated decode of ``profile`` under ``config``."""

    def __init__(self, profile: StreamProfile, config: ParallelConfig) -> None:
        self.profile = profile
        self.config = config
        self.cost = config.cost
        self.sim = Simulator()
        self.memory = MemoryTracker()
        self.result = DecodeRunResult(
            config=config, picture_count=profile.picture_count,
            memory=self.memory, stalls=self.sim.stalls,
        )
        #: Workers ``put((display_index, item))`` every finished picture.
        self.display_queue = SimQueue("display", self.cost.queue_op_cycles)
        rate = config.display_rate_hz
        self.pacer = Pacer(
            config.machine.cycles(1.0 / rate) if rate is not None else None,
            config.display_preroll_pictures,
        )

    def work(self, busy: int, remote_fraction: float | None) -> Generator:
        """Charge ``busy`` cycles of decode work plus the memory stalls
        the cost model attaches to them.  (yield-from helper)"""
        yield Compute(busy)
        yield Stall(
            self.cost.stall_cycles(
                busy, self.config.machine, self.profile.picture_pixels,
                remote_fraction,
            )
        )

    def _display(
        self, proc: Process, shown: Callable[[object], None],
        wake: Condition | None,
    ) -> Generator:
        """The display process (paper Fig. 4): reorder, pace, show."""
        sim, pacer = self.sim, self.pacer
        merger = DisplayMerger(
            self.profile.picture_count,
            # Completed out of display order: the time it sat in the
            # reorder buffer is a merge stall (the mp pipeline records
            # the same quantity in seconds).
            on_hold=lambda _item, _since, held: sim.stalls.record(
                proc.name, REASON_MERGE, held
            ),
            clock=lambda: sim.now,
        )
        while not merger.done:
            arrived = yield from self.display_queue.get()
            assert arrived is not None, "display queue closed early"
            index = merger.emitted
            for item in merger.push(*arrived):
                # The first picture anchors the schedule and goes out
                # at once; a later one that is early waits for its
                # deadline, a late one is counted and shown.
                anchored = pacer.t0 is not None
                late = pacer.on_emit(index, sim.now)
                if anchored and not late:
                    yield SleepUntil(pacer.deadline(index))
                yield Compute(self.cost.display_cycles())
                self.result.display_times.append(sim.now)
                shown(item)
                index += 1
                if wake is not None:
                    yield SignalCondition(wake)
        yield Halt()

    def run(
        self,
        feeder: Callable[[Process], Generator],
        worker: Callable[[Process, int], Generator],
        shown: Callable[[object], None],
        wake: Condition | None = None,
        feeder_name: str = "scan",
    ) -> DecodeRunResult:
        """Run ``feeder``, ``config.workers`` x ``worker(proc, wid)`` and
        the display process to the end; fill in and return the result.

        ``shown(item)`` is called as each picture leaves the display
        (free its frame); ``wake`` is then signalled, for workers that
        wait on display progress.
        """
        sim, result, pacer = self.sim, self.result, self.pacer
        sim.add_process(feeder_name, feeder)
        workers = [
            sim.add_process(f"worker-{i}", lambda proc, i=i: worker(proc, i))
            for i in range(self.config.workers)
        ]
        sim.add_process("display", lambda proc: self._display(proc, shown, wake))
        sim.run()

        result.finish_cycles = result.display_times[-1]
        result.worker_busy = [w.stats.busy for w in workers]
        result.worker_stall = [w.stats.stall for w in workers]
        result.worker_sync = [w.stats.sync_wait for w in workers]
        result.late_pictures = pacer.late_pictures
        result.max_lateness_cycles = pacer.max_lateness
        result.startup_cycles = pacer.t0 or result.display_times[0]
        return result
