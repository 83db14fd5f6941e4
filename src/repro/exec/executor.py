"""The unified executor: one front end over every decode path.

:class:`TaskGraphExecutor` (``decode --grain ... --engine ...``)
resolves the request by the rule of :mod:`repro.exec.auto` and runs one
``MPGopDecoder`` or ``MPSliceDecoder`` on the one parent loop.  Frames
and work counters equal ``SequenceDecoder(data).decode_all()``'s for
every grain / engine / workers (``tests/exec/test_exec_parity.py``).
"""

from __future__ import annotations

import time

from repro.exec.auto import resolve
from repro.exec.dispatch import account
from repro.exec.graph import TaskGraph
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import StreamIndex
from repro.obs.metrics import metrics
from repro.obs.trace import trace_complete


class TaskGraphExecutor:
    """Decode a stream at a grain and engine: ``"auto"`` (default) is
    GOP grain / ``batched``, and slice grain with ``engine="scalar"``
    raises.  ``workers``: ``0`` in-process, ``>= 1`` real worker
    processes, ``None`` = CPU count.  ``mode`` is the slice-grain
    barrier policy (``"simple"`` | ``"improved"``)."""

    def __init__(
        self,
        data: bytes,
        index: StreamIndex | None = None,
        grain: str = "auto",
        engine: str = "auto",
        workers: int | None = None,
        mode: str = "improved",
        resilient: bool = False,
        _crash_gop: int | None = None,
        _crash_task: tuple[int, int] | None = None,
    ) -> None:
        from repro.parallel.mp import MPGopDecoder
        from repro.parallel.mp_slice import MPSliceDecoder

        #: The grain and engine this executor runs (the rule applied).
        self.decision = d = resolve(grain, engine)
        common = dict(index=index, workers=workers, resilient=resilient)
        if d.grain == "gop":
            self.planner = MPGopDecoder(
                data, engine=d.engine, _crash_gop=_crash_gop, **common
            )
        else:
            self.planner = MPSliceDecoder(
                data, mode=mode, _crash_task=_crash_task, **common
            )
        self.workers = self.planner.workers
        #: The graphs the last decode dispatched from (one per run).
        self.last_graphs: list[TaskGraph] = []

    @property
    def index(self) -> StreamIndex:
        """The decoder's whole-stream scan, built on first access."""
        return self.planner.index

    @property
    def last_stalls(self):
        return self.planner.last_stalls

    def stall_breakdown(self) -> dict[str, float]:
        return self.planner.stall_breakdown()

    def decode_all(self, counters: WorkCounters | None = None) -> list[Frame]:
        """Decode the whole stream to display-ordered frames, traced as
        one ``exec.plan`` span; the graph the decoder dispatched from,
        an aborted run's included, must conserve (``exec.tasks.*``)."""
        d = self.decision
        trace_complete(
            "exec.plan", "exec", time.monotonic_ns(), 0,
            grain=d.grain, engine=d.engine, reason=d.reason,
        )
        metrics().counter(f"exec.plan.grain.{d.grain}").inc()
        metrics().counter(f"exec.plan.engine.{d.engine}").inc()
        try:
            return self.planner.decode_all(counters)
        finally:
            self.last_graphs = list(self.planner.last_graphs)
            account(self.last_graphs)
