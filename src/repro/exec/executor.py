"""The unified executor: one front end over every decode path.

:class:`TaskGraphExecutor` is what ``decode --grain ... --engine ...``
runs: it plans a typed task graph (:mod:`repro.exec.plan`) for
accounting, asks :class:`~repro.exec.auto.AutoGranularity` for a
``(grain, engine)`` decision when either axis is ``auto``, and then
drives the decode through ``MPGopDecoder`` for GOP grain or
``MPSliceDecoder`` for slice grain — two partitions handed to the one
process runtime in :mod:`repro.exec.backend` (every window reuses the
same warm worker team).

Online re-pick: with ``grain="auto"`` the stream is executed in
windows of ``repick_gops`` closed GOPs.  Each window is decoded as a
stand-alone substream (sequence-header prefix + the window's GOP byte
range — bit-exact by the closed-GOP argument that already underwrites
the mp decoder), the planner's observed stall table is summarized
into an :class:`~repro.exec.auto.ObsSnapshot`, and the controller
re-picks at the GOP boundary.  Every decision — initial and re-pick —
is traced as an ``exec.plan`` span carrying the chosen grain/engine
*and the rejected alternative's estimated cost*, and counted in the
``exec.plan.*`` metrics.

Engine semantics: the engine choice selects the substream decode
engine at GOP grain.  At slice grain the two-phase slice machinery is
inherently the batched path (bit-identical output regardless), so the
engine decision is recorded in the plan as a cost-model hint rather
than switching kernels — the differential matrix pins that every
combination still matches the scalar oracle exactly.

Bit-exactness contract (pinned by ``tests/exec/test_exec_parity.py``):
frames *and* aggregate work counters equal
``SequenceDecoder(data).decode_all()`` for every grain / engine /
worker combination.  Window substreams re-include the sequence-header
prefix, which contributes zero to the work counters, so per-window
counter sums equal the linear decode's — the same argument the
per-GOP mp parity already rests on.
"""

from __future__ import annotations

import os
import time

from repro.exec.auto import AutoGranularity, CostModel, Decision, ObsSnapshot
from repro.exec.backend import scan_index
from repro.exec.graph import TaskGraph
from repro.exec.plan import plan_graph
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import StreamIndex, sequence_prefix
from repro.obs.metrics import metrics
from repro.obs.stalls import StallTable
from repro.obs.trace import trace_complete

GRAIN_CHOICES = ("auto", "gop", "slice")
ENGINE_CHOICES = ("auto", "scalar", "batched")

#: Default re-pick window: decisions are revisited every this many
#: closed GOPs (a GOP boundary is the only safe re-plan point).
DEFAULT_REPICK_GOPS = 4


def _trace_decision(decision: Decision, window: int, gop: int) -> None:
    """Emit the ``exec.plan`` span + decision metrics for one choice."""
    now = time.monotonic_ns()
    trace_complete(
        "exec.plan", "exec", now, 0,
        window=window,
        gop=gop,
        grain=decision.grain,
        engine=decision.engine,
        est_cost=round(decision.est_cost, 6),
        alt_grain=decision.alt_grain,
        alt_engine=decision.alt_engine,
        alt_cost=round(decision.alt_cost, 6),
        reason=decision.reason,
    )
    reg = metrics()
    reg.counter(f"exec.plan.grain.{decision.grain}").inc()
    reg.counter(f"exec.plan.engine.{decision.engine}").inc()


class TaskGraphExecutor:
    """Decode a stream through the unified planner/backend split.

    Parameters
    ----------
    data:
        The complete coded stream.
    index:
        Optional pre-built scan index.
    grain:
        ``"gop"`` / ``"slice"`` pin the decomposition; ``"auto"``
        (default) lets :class:`AutoGranularity` choose per stream and
        re-pick at GOP boundaries from observed stage timings.
    engine:
        ``"scalar"`` / ``"batched"`` pin the substream decode engine;
        ``"auto"`` chooses from the cost model.
    workers:
        Same contract as the planners: ``0`` in-process, ``>= 1`` real
        worker processes, ``None`` = CPU count.
    mode:
        Slice-grain barrier policy (``"simple"`` | ``"improved"``),
        forwarded to ``MPSliceDecoder``.
    repick_gops:
        Window size (in closed GOPs) between auto re-pick points.
    """

    def __init__(
        self,
        data: bytes,
        index: StreamIndex | None = None,
        grain: str = "auto",
        engine: str = "auto",
        workers: int | None = None,
        mode: str = "improved",
        resilient: bool = False,
        start_method: str | None = None,
        repick_gops: int = DEFAULT_REPICK_GOPS,
        model: CostModel | None = None,
        _crash_gop: int | None = None,
        _crash_task: tuple[int, int] | None = None,
    ) -> None:
        if grain not in GRAIN_CHOICES:
            raise ValueError(
                f"unknown grain {grain!r}; expected one of {GRAIN_CHOICES}"
            )
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
            )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if repick_gops < 1:
            raise ValueError(f"repick_gops must be >= 1, got {repick_gops}")
        self.data = data
        self.index = scan_index(data, index)
        self.grain = grain
        self.engine = engine
        self.workers = workers
        self.mode = mode
        self.resilient = resilient
        self.start_method = start_method
        self.repick_gops = repick_gops
        self.model = model or CostModel()
        self._crash_gop = _crash_gop
        self._crash_task = _crash_task
        self.prefix = sequence_prefix(data, self.index)
        #: Every Decision this executor made, in order (first entry is
        #: the up-front pick; later entries are GOP-boundary re-picks).
        self.last_decisions: list[Decision] = []
        #: Accounting graphs for the executed segments (one per window
        #: in auto mode, one for the whole stream otherwise); each is
        #: conservation-verified after its segment completes.
        self.last_graphs: list[TaskGraph] = []
        #: Aggregate stall table + wall seconds across the run.
        self.last_stalls = StallTable()
        self.last_wall_seconds = 0.0

    # ------------------------------------------------------------------
    def _profile(self):
        from repro.analysis.bandwidth import profile_stream

        return profile_stream(self.data, index=self.index)

    def _controller(self) -> AutoGranularity:
        return AutoGranularity(
            profile=self._profile(),
            workers=self.workers,
            model=self.model,
            grain_hint=None if self.grain == "auto" else self.grain,
            engine_hint=None if self.engine == "auto" else self.engine,
        )

    def _gop_planner(self, data: bytes, engine: str, index=None):
        from repro.parallel.mp import MPGopDecoder

        return MPGopDecoder(
            data,
            index=index,
            workers=self.workers,
            engine=engine,
            resilient=self.resilient,
            start_method=self.start_method,
            _crash_gop=self._crash_gop,
        )

    def _slice_planner(self, data: bytes, index=None):
        from repro.parallel.mp_slice import MPSliceDecoder

        return MPSliceDecoder(
            data,
            index=index,
            workers=self.workers,
            mode=self.mode,
            resilient=self.resilient,
            start_method=self.start_method,
            _crash_task=self._crash_task,
        )

    def _account_segment(self, index: StreamIndex, grain: str) -> TaskGraph:
        """Build + drive the segment's typed task graph (accounting).

        The pixel work runs through the planner; the graph is the
        executor's explicit record of what that work *was* — typed
        nodes, ref edges, and the conservation counters the property
        suite audits.  ``run_all`` enforces dependency order
        structurally (dispatch refuses a node whose refs have not
        published), so a planner bug that reordered edges would raise
        here, not silently corrupt output.
        """
        graph = plan_graph(index, grain)
        graph.run_all()
        graph.verify_conservation()
        reg = metrics()
        for name, value in graph.counts().items():
            if value:
                reg.counter(f"exec.tasks.{name}").inc(value)
        self.last_graphs.append(graph)
        return graph

    def _fold_planner_obs(self, planner) -> None:
        self.last_stalls.merge(planner.last_stalls.snapshot())

    # ------------------------------------------------------------------
    def decode_all(self, counters: WorkCounters | None = None) -> list[Frame]:
        """Decode the whole stream to display-ordered frames.

        Bit-identical to ``SequenceDecoder(data).decode_all()`` —
        frames *and* aggregate work counters — for every grain /
        engine / workers combination.
        """
        self.last_decisions = []
        self.last_graphs = []
        self.last_stalls = StallTable()
        t_run = time.perf_counter()
        try:
            if self.grain == "auto":
                return self._decode_windowed(counters)
            return self._decode_fixed(counters)
        finally:
            self.last_wall_seconds = time.perf_counter() - t_run

    def _initial_decision(self) -> Decision:
        if self.grain != "auto" and self.engine != "auto":
            # Nothing to choose: record the pinned configuration so
            # traces and metrics still show what ran (alt == chosen).
            est = self.model.estimate(
                self._profile(), self.grain, self.engine, self.workers
            )
            return Decision(
                grain=self.grain,
                engine=self.engine,
                est_cost=est,
                alt_grain=self.grain,
                alt_engine=self.engine,
                alt_cost=est,
                reason="fixed",
            )
        return self._controller().decide()

    def _decode_fixed(self, counters: WorkCounters | None) -> list[Frame]:
        """Pinned grain: one pass over the whole stream, zero overhead."""
        decision = self._initial_decision()
        self.last_decisions.append(decision)
        _trace_decision(decision, window=0, gop=0)
        self._account_segment(self.index, decision.grain)
        if decision.grain == "gop":
            planner = self._gop_planner(
                self.data, decision.engine, index=self.index
            )
        else:
            planner = self._slice_planner(self.data, index=self.index)
        frames = planner.decode_all(counters)
        self._fold_planner_obs(planner)
        return frames

    def _decode_windowed(self, counters: WorkCounters | None) -> list[Frame]:
        """Auto grain: windowed execution with GOP-boundary re-picks."""
        controller = self._controller()
        decision = controller.decide()
        self.last_decisions.append(decision)
        gops = self.index.gops
        frames: list[Frame] = []
        window = 0
        start = 0
        while start < len(gops):
            end = min(start + self.repick_gops, len(gops))
            _trace_decision(decision, window=window, gop=start)
            # The window substream: sequence-header prefix + the
            # contiguous GOP byte range.  Closed GOPs make this decode
            # bit-exact; the repeated prefix adds zero to counters.
            sub = bytes(self.prefix) + bytes(
                self.data[gops[start].start_offset : gops[end - 1].end_offset]
            )
            if decision.grain == "gop":
                planner = self._gop_planner(sub, decision.engine)
            else:
                planner = self._slice_planner(sub)
            self._account_segment(planner.index, decision.grain)
            frames.extend(planner.decode_all(counters))
            self._fold_planner_obs(planner)
            start = end
            window += 1
            if start < len(gops):
                snap = ObsSnapshot.from_run(
                    planner.last_stalls,
                    planner.last_wall_seconds,
                    pictures=planner.index.picture_count,
                )
                repicked = controller.repick(decision, snap)
                if (repicked.grain, repicked.engine) != (
                    decision.grain,
                    decision.engine,
                ):
                    metrics().counter("exec.plan.repick").inc()
                self.last_decisions.append(repicked)
                decision = repicked
        return frames

    # ------------------------------------------------------------------
    def stall_breakdown(self) -> dict[str, float]:
        """Fraction of aggregate process time blocked, per reason
        (same denominator convention as the planners)."""
        procs = self.workers + 1 if self.workers else 1
        return self.last_stalls.breakdown(self.last_wall_seconds * procs)


def decode_auto(
    data: bytes,
    workers: int | None = None,
    grain: str = "auto",
    engine: str = "auto",
    resilient: bool = False,
    start_method: str | None = None,
) -> list[Frame]:
    """Convenience: decode through the unified executor."""
    return TaskGraphExecutor(
        data,
        grain=grain,
        engine=engine,
        workers=workers,
        resilient=resilient,
        start_method=start_method,
    ).decode_all()
