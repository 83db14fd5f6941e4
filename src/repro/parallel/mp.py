"""Real-hardware GOP-level parallel decoding with OS processes.

Everything else in :mod:`repro.parallel` runs the paper's scan/worker/
display architecture on the *simulated* SMP, because CPython threads
cannot show real speedup under the GIL.  This module escapes the GIL
the same way the paper escaped a single R4400: separate OS processes
(`multiprocessing`), one per worker, each decoding whole closed GOPs.

The process machinery is not here: GOP-grain decode is one *partition*
handed to the single worker runtime in :mod:`repro.exec.backend` — a
task body (:func:`~repro.exec.backend.decode_gop_chunk`) plus a small
session context — and this module is the parent loop around it.

The paper's three roles map onto real primitives:

* **scan** — the parent builds a :class:`repro.mpeg2.index.StreamIndex`
  (start-code scan, no decoding) and splits it into per-GOP byte-range
  tasks (:func:`~repro.exec.backend.scan_gop_tasks`).
* **workers** — the warm :class:`~repro.exec.backend.WorkerTeam` for
  ``(workers, start_method)``, forked once per process and shared with
  the slice decoder and the serve layer.  The coded stream is published
  **once** into POSIX shared memory; workers attach by name and slice
  their GOP's bytes straight out of the segment — the bitstream never
  crosses the task pipe.  Each worker rebuilds a stand-alone substream
  (sequence-header prefix + GOP bytes), decodes it with the batched
  :class:`~repro.mpeg2.decoder.SequenceDecoder`, and writes the
  decoded planes straight into a shared-memory frame pool.  Tasks are
  *chunks* of consecutive GOPs
  (:func:`~repro.exec.backend.coalesce_gop_tasks`) so streams with many
  more GOPs than workers cost one queue message per chunk — dispatch
  and result publication both — instead of one per GOP; only tiny
  metadata (temporal references + work counters) crosses the process
  boundary through pickling, and pixel arrays never do.
* **display** — the parent merges completed GOPs back into display
  order through the shared reorder buffer
  (:class:`~repro.parallel.mp_slice.DisplayMerger`), reading frames
  out of the pool.

``workers=0`` runs the identical loop on the in-process transport
(:class:`~repro.exec.backend.LocalTeam`: no ``fork``, no shared memory)
so functional tests are deterministic on constrained CI;
``workers>=1`` is the real-silicon path measured by
``benchmarks/perf_parallel.py``.

Bit-exactness: closed GOPs carry no coded state across their
boundaries, so a GOP decoded from its substream is identical to the
same GOP decoded mid-stream; frames within a GOP are display-ordered
by ``decode_gop`` and closed GOPs appear in display order in the
stream.  The mp decoder therefore reproduces
``SequenceDecoder.decode_all`` bit-for-bit, counters included — pinned
by ``tests/parallel/test_mp_parity.py`` and the golden-vector suite.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Iterator

from repro.exec.backend import (  # noqa: F401  (names tests import from here)
    GopResult,
    coalesce_gop_tasks,
    decode_gop_chunk,
    fetch_or_raise,
    persistent_worker_pids,
    scan_gop_tasks,
    scan_index,
    team_run,
)
from repro.exec.shm import FrameLayout, SharedFramePool  # noqa: F401
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import ENGINES
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import StreamIndex, sequence_prefix
from repro.obs.metrics import metrics
from repro.obs.stalls import StallTable
from repro.obs.trace import trace_span
from repro.parallel.mp_slice import DisplayMerger, record_merge_hold


# ----------------------------------------------------------------------
# the decoder
# ----------------------------------------------------------------------
class MPGopDecoder:
    """GOP-level parallel decoder on real cores (paper Section 5.1).

    Parameters
    ----------
    data:
        The complete coded stream.
    index:
        Optional pre-built scan index (shared between the scan step and
        the workers, as in the paper).
    workers:
        ``0`` decodes in-process through the identical scan/merge
        pipeline (deterministic CI path, no processes).  ``>= 1``
        spawns exactly that many OS worker processes (the paper's
        ``P``); workers beyond the GOP count simply stay idle.
        ``None`` uses the available CPU count.
    engine:
        Decode engine for the workers (default ``"batched"``).
    resilient:
        Conceal corrupt slices instead of failing (worker-local,
        identical to the sequential decoder's behaviour).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``"fork"`` on Linux keeps the coded bytes copy-on-write).
    """

    def __init__(
        self,
        data: bytes,
        index: StreamIndex | None = None,
        workers: int | None = None,
        engine: str = "batched",
        resilient: bool = False,
        start_method: str | None = None,
        _crash_gop: int | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.data = data
        self.index = scan_index(data, index)
        self.workers = workers
        self.engine = engine
        self.resilient = resilient
        self.start_method = start_method
        #: Test-only fault injection: the worker that picks up this GOP
        #: dies with ``os._exit`` mid-stream (no result, no cleanup).
        self._crash_gop = _crash_gop
        self.seq = self.index.sequence_header
        self.layout = FrameLayout.for_display(self.seq.width, self.seq.height)
        self.tasks = scan_gop_tasks(self.index)
        self.prefix = sequence_prefix(data, self.index)
        #: Shared-pool bytes the last parallel run allocated (Fig. 8
        #: counterpart on real silicon); 0 for the in-process path.
        self.last_pool_bytes = 0
        #: Stall attribution for the last run (wall seconds, canonical
        #: :mod:`repro.obs.stalls` reasons; workers + merge combined).
        self.last_stalls = StallTable()
        #: Wall seconds of the last ``iter_gops`` drain.
        self.last_wall_seconds = 0.0

    def stall_breakdown(self) -> dict[str, float]:
        """Fraction of aggregate process time blocked, per reason.

        Denominator: ``wall seconds x (worker processes + merger)`` —
        the real-silicon analogue of the simulator's
        ``finish_cycles x processes``, so the two breakdowns line up
        in ``repro.analysis.obs_report``.
        """
        procs = min(self.workers, len(self.tasks)) + 1 if self.workers else 1
        return self.last_stalls.breakdown(self.last_wall_seconds * procs)

    # ------------------------------------------------------------------
    def decode_all(self, counters: WorkCounters | None = None) -> list[Frame]:
        """Decode the whole stream to display-ordered frames.

        Bit-identical to ``SequenceDecoder(data).decode_all()`` —
        frames *and* aggregate work counters.
        """
        frames: list[Frame] = []
        for _gop, gop_frames in self.iter_gops(counters):
            frames.extend(gop_frames)
        return frames

    def iter_gops(
        self, counters: WorkCounters | None = None
    ) -> Iterator[tuple[int, list[Frame]]]:
        """Yield ``(gop_number, display_ordered_frames)`` in stream order.

        One loop for both transports: chunks of consecutive GOPs go to
        whichever worker is free (one chunk per worker at a time — the
        tasks are coarse, so pulling costs nothing and balances load),
        results come back through the liveness-polled fetch, and the
        reorder buffer releases GOPs in stream order.  ``workers=0``
        runs each chunk where it is submitted.
        """
        workers = self.workers
        self.last_stalls = stalls = StallTable()
        reg = metrics()
        occupancy = reg.gauge("mp.frame_pool.occupancy")
        depth = reg.gauge("queue.depth")
        chunks = deque(enumerate(coalesce_gop_tasks(self.tasks, workers)))
        merger = DisplayMerger(
            len(self.tasks),
            # An out-of-order completion sat in the reorder buffer: the
            # display-order merge stall (paper's display process).
            on_hold=(
                (lambda r, t0, ns: record_merge_hold(stalls, t0, ns, gop=r.gop))
                if workers
                else None
            ),
        )
        state = {
            "prefix": self.prefix,
            "engine": self.engine,
            "resilient": self.resilient,
        }
        t_run = time.perf_counter()
        try:
            with team_run(
                workers, self.start_method, decode_gop_chunk, self.data,
                self.layout, self.index.picture_count, state,
            ) as (team, sid, pool):
                self.last_pool_bytes = pool.nbytes if workers else 0

                def feed() -> None:
                    for wid in team.free():
                        if not chunks:
                            return
                        n, group = chunks.popleft()
                        crash = any(t.gop == self._crash_gop for t in group)
                        team.submit(
                            wid, sid, n, group, "crash" if crash else None
                        )
                        reg.counter("mp.dispatch.messages").inc()

                feed()
                while team.in_flight(sid):
                    results = fetch_or_raise(
                        team, stalls, "GOP", "stream", "task"
                    )
                    feed()
                    for result in results:
                        occupancy.inc(len(result.temporal_references))
                        ready = merger.push(result.gop, result)
                        depth.set(merger.held)
                        for done in ready:
                            if counters is not None:
                                counters.add(done.counters)
                            refs = done.temporal_references
                            with trace_span(
                                "mp.shm.read", cat="mp",
                                gop=done.gop, frames=len(refs),
                            ):
                                frames = [
                                    pool.read_frame(done.slot_base + j, ref)
                                    for j, ref in enumerate(refs)
                                ]
                            occupancy.dec(len(refs))
                            yield done.gop, frames
                merger.finish("GOP results")
        finally:
            self.last_wall_seconds = time.perf_counter() - t_run


def decode_parallel(
    data: bytes,
    workers: int | None = None,
    engine: str = "batched",
    resilient: bool = False,
    start_method: str | None = None,
) -> list[Frame]:
    """Convenience: parallel-decode a stream to display-ordered frames."""
    return MPGopDecoder(
        data,
        workers=workers,
        engine=engine,
        resilient=resilient,
        start_method=start_method,
    ).decode_all()
