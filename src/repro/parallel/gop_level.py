"""GOP-level parallel decoder (paper Section 5.1).

One scan process locates closed GOPs and enqueues them; ``P`` worker
processes each dequeue a GOP and decode it end-to-end; one display
process reorders decoded pictures into display order.  Tasks are
coarse and independent: the only shared state is the task queue and
the display queue, so synchronisation is minimal — the paper's
motivation for this design.  Its cost is memory: every decoded picture
lives until the display process drains it, and with ``P`` workers on
consecutive GOPs that backlog reaches ``P x GOP size`` frames
(Figs. 8-9), plus the scanned stream bytes.

This module is the scan body, the worker body and the bounded frame
pool; the machine they run on is :class:`~repro.parallel.simrun.SimRun`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from repro.obs.stalls import REASON_POOL_SLOT
from repro.parallel.profile import StreamProfile
from repro.parallel.queues import SimQueue
from repro.parallel.simrun import DecodeRunResult, ParallelConfig, SimRun
from repro.smp.engine import Compute, Process, WaitCondition
from repro.smp.sync import Condition


class GopLevelDecoder:
    """Simulate the GOP-level parallel decoder over a stream profile."""

    def __init__(self, profile: StreamProfile) -> None:
        self.profile = profile

    # ------------------------------------------------------------------
    def run(self, config: ParallelConfig) -> DecodeRunResult:
        profile = self.profile
        run = SimRun(profile, config)
        sim, cost, memory = run.sim, run.cost, run.memory
        task_queue = SimQueue("gop-tasks", cost.queue_op_cycles)
        fbytes = profile.frame_bytes

        # Bounded frame pool (max_frames_in_flight): a worker at the cap
        # waits for the display, unless it holds the display-front GOP.
        cap = config.max_frames_in_flight
        frames_in_flight = 0
        pool_cond = Condition("frame-pool", reason=REASON_POOL_SLOT)
        gop_first_display = [0, *accumulate(len(g.pictures) for g in profile.gops)]

        def front_gop() -> int:
            """Index of the GOP the display process is draining."""
            shown_so_far = len(run.result.display_times)
            return bisect_right(gop_first_display, shown_so_far) - 1

        # -- scan process (paper Fig. 4) --------------------------------
        def scan_body(proc: Process):
            for gop in profile.gops:
                yield Compute(cost.scan_cycles(gop.wire_bytes))
                memory.allocate(sim.now, gop.wire_bytes, "stream")
                yield from task_queue.put(gop.index)
            yield from task_queue.close()

        # -- worker processes -------------------------------------------
        def worker_body(proc: Process, wid: int):
            nonlocal frames_in_flight
            while True:
                gop_index = yield from task_queue.get()
                if gop_index is None:
                    break
                gop = profile.gops[gop_index]
                for pic in gop.pictures:
                    while (
                        cap is not None
                        and frames_in_flight >= cap
                        and gop_index != front_gop()
                    ):
                        yield WaitCondition(pool_cond)
                    frames_in_flight += 1
                    memory.allocate(sim.now, fbytes, "frames")
                    yield from run.work(
                        cost.decode_cycles(pic.total_counters()),
                        config.remote_fraction,
                    )
                    yield from run.display_queue.put((pic.display_index, None))
                memory.free(sim.now, gop.wire_bytes, "stream")

        def shown(_item) -> None:
            nonlocal frames_in_flight
            memory.free(sim.now, fbytes, "frames")
            frames_in_flight -= 1

        return run.run(
            scan_body, worker_body, shown,
            wake=pool_cond if cap is not None else None,
        )
