"""Slice-level parallel decoder, simple and improved (paper Section 5.2).

Tasks are slices, organised in the 2-D picture/slice queue.  The
*simple* variant synchronises workers at the end of every picture; the
*improved* variant observes that consecutive B-pictures share the same
references and are never referenced themselves, so workers may roll
into the next picture early — synchronisation is needed only when the
next picture (transitively) depends on an unfinished reference, i.e.
at the end of I- and P-pictures.

Compared with the GOP decoder: memory stays at a handful of frames
independent of worker count and GOP size, and random access is fast
(all workers attack the first picture together); the price is
synchronisation at picture boundaries and slice-grain queue traffic,
plus re-reading picture headers per worker (all modelled, all measured
by the paper).

This module is the scan body, the worker body and the frame lifetimes;
when a slice may start is the task graph inside
:class:`~repro.parallel.queues.SliceTaskQueue`, and the machine they
run on is :class:`~repro.parallel.simrun.SimRun`.
"""

from __future__ import annotations

import enum

from repro.parallel.profile import StreamProfile
from repro.parallel.queues import PictureEntry, SliceTaskQueue
from repro.parallel.simrun import DecodeRunResult, ParallelConfig, SimRun
from repro.smp.engine import Compute, Process


class SliceMode(enum.Enum):
    """Synchronisation policy of the slice-level decoder."""

    #: Barrier after every picture (first implementation in the paper).
    SIMPLE = "simple"
    #: Barrier only after reference (I/P) pictures (improved version).
    IMPROVED = "improved"


class SliceLevelDecoder:
    """Simulate the slice-level parallel decoder over a stream profile."""

    def __init__(self, profile: StreamProfile) -> None:
        self.profile = profile

    # ------------------------------------------------------------------
    def _build_entries(self) -> list[PictureEntry]:
        """Flatten the stream into coding-order picture entries."""
        entries: list[PictureEntry] = []
        base = 0
        for gop in self.profile.gops:
            for pos, pic in enumerate(gop.pictures):
                deps = [base + r for r in gop.reference_positions(pos)]
                entries.append(
                    PictureEntry(
                        gop=gop, picture=pic, order=base + pos, dependencies=deps
                    )
                )
            base += len(gop.pictures)
        return entries

    def run(
        self, config: ParallelConfig, mode: SliceMode = SliceMode.IMPROVED
    ) -> DecodeRunResult:
        profile = self.profile
        run = SimRun(profile, config)
        sim, cost, memory = run.sim, run.cost, run.memory
        entries = self._build_entries()
        queue = SliceTaskQueue("slice-tasks", cost.queue_op_cycles, mode.value)
        fbytes = profile.frame_bytes

        # Frame lifetime refcounts: 1 for display + 1 per dependent
        # picture that still needs this frame as a reference.
        refcount = {e.order: 1 for e in entries}
        for e in entries:
            for dep in e.dependencies:
                refcount[dep] += 1

        def _release(order: int) -> None:
            refcount[order] -= 1
            if refcount[order] == 0:
                memory.free(sim.now, fbytes, "frames")

        # -- scan process -------------------------------------------------
        def scan_body(proc: Process):
            i = 0
            for gop in profile.gops:
                yield Compute(cost.scan_cycles(max(gop.header_bits // 8, 1)))
                for _ in gop.pictures:
                    entry = entries[i]
                    yield Compute(cost.scan_cycles(entry.picture.wire_bytes))
                    memory.allocate(sim.now, entry.picture.wire_bytes, "stream")
                    yield from queue.add_picture(entry)
                    i += 1
            yield from queue.finish_feeding()

        # -- worker processes ----------------------------------------------
        allocated: set[int] = set()

        def worker_body(proc: Process, wid: int):
            seen_pictures: set[int] = set()
            while True:
                task = yield from queue.get_slice()
                if task is None:
                    break
                entry = task.entry
                if entry.order not in seen_pictures:
                    seen_pictures.add(entry.order)
                    # Each worker re-reads the picture header and sets
                    # up per-picture context for every picture it
                    # touches (paper: the slice versions' extra
                    # overhead, Section 5.2.1).
                    yield Compute(
                        int(
                            cost.picture_attach_cycles
                            + cost.cycles_per_bit * entry.picture.header_bits
                        )
                    )
                if entry.order not in allocated:
                    allocated.add(entry.order)
                    memory.allocate(sim.now, fbytes, "frames")
                sp = entry.picture.slices[task.slice_index]
                yield from run.work(
                    cost.decode_cycles(sp.counters), config.remote_fraction
                )
                finished = yield from queue.complete_slice(task)
                if finished:
                    memory.free(sim.now, entry.picture.wire_bytes, "stream")
                    for dep in entry.dependencies:
                        _release(dep)
                    yield from run.display_queue.put(
                        (entry.picture.display_index, entry)
                    )

        return run.run(
            scan_body, worker_body, shown=lambda entry: _release(entry.order)
        )
