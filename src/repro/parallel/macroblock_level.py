"""Macroblock-level parallelism: the decomposition the paper rejects.

Section 4: macroblocks and blocks "do not have startcodes to identify
them without actually doing the decoding itself ... it would be
necessary for one process to perform the decoding of the stream,
detect the boundaries of each macroblock (including its motion
vectors) ... and assign the macroblock or its blocks to other
processors.  While this approach may be viable, it places a large load
on one processor."

This module implements exactly that architecture so the claim can be
measured: a single *parser* process performs all bitstream decoding
(VLC, headers, boundary detection) serially, and worker processes
perform only the reconstruction half (inverse quantization + IDCT,
motion compensation, pixel writes) of each slice's macroblocks.
Amdahl's law then caps the speedup at
``total_work / parse_work`` — about 2x at the paper's 5 Mb/s
operating point — which is why the paper parallelizes at slice
granularity instead.

The parser body and the worker body live here; they run on the shared
:class:`~repro.parallel.simrun.SimRun`, the parser in the scan seat.
"""

from __future__ import annotations

from repro.mpeg2.counters import WorkCounters
from repro.parallel.profile import StreamProfile
from repro.parallel.queues import SimQueue
from repro.parallel.simrun import DecodeRunResult, ParallelConfig, SimRun
from repro.smp.costs import CostModel
from repro.smp.engine import Compute, Process


def parse_cycles(cost: CostModel, counters: WorkCounters) -> int:
    """The bitstream-decoding share of a task's work.

    Everything that must walk the VLC stream serially: bit parsing and
    header processing.  This is the work pinned to the parser process.
    """
    return int(
        cost.cycles_per_bit * counters.bits
        + cost.cycles_per_header * counters.headers
    )


def reconstruction_cycles(cost: CostModel, counters: WorkCounters) -> int:
    """The parallelizable remainder: IDCT, MC, pixel reconstruction."""
    return cost.decode_cycles(counters) - parse_cycles(cost, counters)


class MacroblockLevelDecoder:
    """Simulate the parser + reconstruction-workers architecture.

    Tasks handed to workers are the reconstruction of one slice's
    macroblocks (batching individual macroblocks per slice keeps queue
    traffic comparable to the slice-level decoder; per-macroblock
    queueing would only be worse).

    Reference dependencies are not explicitly gated: the serial parser
    trails aggregate reconstruction for every P >= 2, so a picture's
    references are reconstructed long before its own tasks are parsed;
    gating would only lower the measured ceiling this ablation exists
    to demonstrate.
    """

    def __init__(self, profile: StreamProfile) -> None:
        self.profile = profile

    def amdahl_bound(self, cost: CostModel) -> float:
        """The architecture's speedup ceiling: total work / serial work."""
        total = cost.decode_cycles(self.profile.total_counters())
        serial = parse_cycles(cost, self.profile.total_counters())
        return total / serial if serial else float("inf")

    def run(self, config: ParallelConfig) -> DecodeRunResult:
        profile = self.profile
        run = SimRun(profile, config)
        sim, cost, memory = run.sim, run.cost, run.memory
        recon_queue = SimQueue("recon-tasks", cost.queue_op_cycles)
        fbytes = profile.frame_bytes

        # Per-picture counters: ``unstarted`` guards the one-time frame
        # allocation at first claim; ``remaining`` detects completion.
        # Both are updated atomically with respect to engine yields.
        flat = list(enumerate(p for g in profile.gops for p in g.pictures))
        unstarted = [len(pic.slices) for _, pic in flat]
        remaining = list(unstarted)

        # -- parser process: ALL bitstream decoding, serially ------------
        def parser_body(proc: Process):
            for order_, pic in flat:
                yield Compute(
                    int(cost.cycles_per_bit * pic.header_bits + cost.cycles_per_header)
                )
                for si, sp in enumerate(pic.slices):
                    yield from run.work(
                        parse_cycles(cost, sp.counters), config.remote_fraction
                    )
                    yield from recon_queue.put((order_, pic, si))
            yield from recon_queue.close()

        # -- reconstruction workers ---------------------------------------
        def worker_body(proc: Process, wid: int):
            while True:
                task = yield from recon_queue.get()
                if task is None:
                    break
                order_, pic, si = task
                if unstarted[order_] == len(pic.slices):
                    memory.allocate(sim.now, fbytes, "frames")
                unstarted[order_] -= 1
                yield from run.work(
                    reconstruction_cycles(cost, pic.slices[si].counters),
                    config.remote_fraction,
                )
                remaining[order_] -= 1
                if remaining[order_] == 0:
                    yield from run.display_queue.put((pic.display_index, None))

        return run.run(
            parser_body, worker_body,
            shown=lambda _item: memory.free(sim.now, fbytes, "frames"),
            feeder_name="parser",
        )
