"""Real-hardware GOP-level parallel decoding with OS processes.

Everything else in :mod:`repro.parallel` runs the paper's scan/worker/
display architecture on the *simulated* SMP, because CPython threads
cannot show real speedup under the GIL.  This module escapes the GIL
the same way the paper escaped a single R4400: separate OS processes
(`multiprocessing`), one per worker, each decoding whole closed GOPs.

Neither the process machinery nor the dispatch loop is here: GOP-grain
decode is one *partition* — the plan
:func:`~repro.exec.plan.plan_gop_graph`, the task body
:func:`~repro.exec.backend.decode_gop_chunk` and a small session
context — handed to the single worker runtime in
:mod:`repro.exec.backend` and driven by the one parent loop in
:mod:`repro.exec.dispatch`.  This module supplies the policy
(one chunk per worker, stream order) and the display
merge.

The paper's three roles map onto real primitives:

* **scan** — the parent builds a :class:`repro.mpeg2.index.StreamIndex`
  (start-code scan, no decoding) and splits it into per-GOP byte-range
  tasks (:func:`~repro.exec.plan.scan_gop_tasks`).
* **workers** — the warm :class:`~repro.exec.backend.WorkerTeam` for
  ``(workers, start_method)``, forked once per process and shared with
  the slice decoder and the serve layer.  The coded stream is published
  **once** into POSIX shared memory; workers attach by name and slice
  their GOP's bytes straight out of the segment — the bitstream never
  crosses the task pipe.  Each worker rebuilds a stand-alone substream
  (sequence-header prefix + GOP bytes), decodes it with the batched
  :class:`~repro.mpeg2.decoder.SequenceDecoder`, and writes the
  decoded planes straight into a shared-memory frame pool.  Tasks are
  *chunks* of consecutive GOPs (one ``decode`` node of the plan each)
  so streams with many
  more GOPs than workers cost one queue message per chunk — dispatch
  and result publication both — instead of one per GOP; only tiny
  metadata (temporal references + work counters) crosses the process
  boundary through pickling, and pixel arrays never do.
* **display** — the parent merges completed GOPs back into display
  order through the shared reorder buffer
  (:class:`~repro.parallel.mp_slice.DisplayMerger`), reading frames
  out of the pool.

``workers=0`` runs the identical plan on the in-process transport
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

from typing import Iterator

from repro.exec.backend import (  # noqa: F401  (names tests import from here)
    GopResult,
    decode_gop_chunk,
    persistent_worker_pids,
)
from repro.exec.dispatch import StreamDecoder
from repro.exec.plan import plan_gop_graph, scan_gop_tasks  # noqa: F401
from repro.exec.shm import FrameLayout, SharedFramePool  # noqa: F401
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import ENGINES
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import StreamIndex, sequence_prefix
from repro.obs.metrics import metrics
from repro.obs.trace import trace_span
from repro.parallel.mp_slice import DisplayMerger, record_merge_hold


# ----------------------------------------------------------------------
# the decoder
# ----------------------------------------------------------------------
class MPGopDecoder(StreamDecoder):
    """GOP-level parallel decoder on real cores (paper Section 5.1).

    Parameters
    ----------
    data:
        The complete coded stream.
    index:
        Optional pre-built scan index (shared between the scan step and
        the workers, as in the paper).
    workers:
        See :class:`~repro.exec.dispatch.StreamDecoder`; workers beyond
        the GOP count simply stay idle.
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
        super().__init__(data, index, workers, resilient, start_method)
        self.engine = engine
        #: Test-only fault injection: the worker that picks up this GOP
        #: dies with ``os._exit`` mid-stream (no result, no cleanup).
        self._crash_gop = _crash_gop
        self.prefix = sequence_prefix(data, self.index)

    def stall_breakdown(self) -> dict[str, float]:
        """As the base class's, but a team larger than the stream has
        GOPs only ever keeps that many workers busy."""
        procs = min(self.workers, len(self.index.gops)) + 1 if self.workers else 1
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

        The plan is :func:`~repro.exec.plan.plan_gop_graph`; the policy
        below is one chunk per worker at a time, in stream order — the
        tasks are coarse, so pulling costs nothing and balances load.
        ``workers=0`` runs each chunk where it is submitted.
        """
        self.counters = counters
        self.graph = plan_gop_graph(self.index, self.workers)
        #: chunk tid -> the GopResults its publish node will merge.
        self.results: dict[str, list[GopResult]] = {}
        self.merger = DisplayMerger(
            len(self.index.gops),
            # An out-of-order completion sat in the reorder buffer: the
            # display-order merge stall (paper's display process).
            on_hold=self._held if self.workers else None,
        )
        state = {
            "prefix": self.prefix,
            "engine": self.engine,
            "resilient": self.resilient,
        }
        yield from self._run(
            self.graph, decode_gop_chunk, self.index.picture_count, state
        )
        self.merger.finish("GOP results")

    def _held(self, result: GopResult, since_ns: int, held_ns: int) -> None:
        record_merge_hold(self.last_stalls, since_ns, held_ns, gop=result.gop)

    # -- the policy ------------------------------------------------------
    def _claim(self) -> tuple | None:
        free = self.team.free()
        node = self.graph.first_ready()
        if not free or node is None:
            return None
        self.graph.dispatch(node.tid)
        metrics().counter("mp.dispatch.messages").inc()
        crash = any(t.gop == self._crash_gop for t in node.payload)
        return free[0], self.sid, node.tid, node.payload, "crash" if crash else None

    def _done(self, sid, key, results: list[GopResult]) -> None:
        self.graph.complete(key)
        self.results[key] = results

    def _publish(self) -> list[GopResult]:
        reg = metrics()
        ready: list[GopResult] = []
        while (node := self.graph.first_ready(publish=True)) is not None:
            self.graph.dispatch(node.tid)
            for result in self.results.pop(node.deps[0]):
                reg.gauge("mp.frame_pool.occupancy").inc(
                    len(result.temporal_references)
                )
                ready += self.merger.push(result.gop, result)
                reg.gauge("queue.depth").set(self.merger.held)
            self.graph.complete(node.tid)
        return ready

    def _emit(self, ready: list[GopResult]) -> Iterator[tuple[int, list[Frame]]]:
        for done in ready:
            if self.counters is not None:
                self.counters.add(done.counters)
            refs = done.temporal_references
            with trace_span(
                "mp.shm.read", cat="mp", gop=done.gop, frames=len(refs)
            ):
                frames = [
                    self.pool.read_frame(done.slot_base + j, ref)
                    for j, ref in enumerate(refs)
                ]
            metrics().gauge("mp.frame_pool.occupancy").dec(len(refs))
            yield done.gop, frames


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
