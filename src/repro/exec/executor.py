"""The unified executor: one front end over every decode path.

:class:`TaskGraphExecutor` is what ``decode --grain ... --engine ...``
(and its older spelling ``--workers N --parallel ...``) runs: it asks
:class:`~repro.exec.auto.AutoGranularity` for a ``(grain, engine)``
decision when either axis is ``auto`` and drives the decode through
``MPGopDecoder`` or ``MPSliceDecoder`` — a plan and a policy each for
the one parent loop (:mod:`repro.exec.dispatch`) on the one process
runtime (:mod:`repro.exec.backend`; every window reuses the same warm
worker team).  The task graphs those decoders *dispatched from* are
kept in ``last_graphs``: after every run, aborted ones included, each
must satisfy the conservation law, and their counts are what the
``exec.tasks.*`` metrics report.

One decode path: the stream is executed in windows — one window over
the whole stream for a pinned grain, windows of ``repick_gops`` closed
GOPs with ``grain="auto"``.  A window is the stream itself plus a
:class:`~repro.mpeg2.index.StreamIndex` over the window's GOPs — both
grains' task bodies read the coded bytes by the offsets of the one
scan, so nothing is copied or scanned again, and closed GOPs make any
window decode bit-exact.  After each, the planner's observed stall
table is summarized into an :class:`~repro.exec.auto.ObsSnapshot` and
the controller re-picks at the GOP boundary.  Every decision — initial
and re-pick — is traced as an ``exec.plan`` span carrying the chosen
grain/engine *and the rejected alternative's estimated cost*, and
counted in the ``exec.plan.*`` metrics.

Engine semantics: the engine choice selects the GOP decode engine at
GOP grain.  At slice grain the two-phase slice machinery is
inherently the batched path (bit-identical output regardless), so the
engine decision is recorded in the plan as a cost-model hint rather
than switching kernels — the differential matrix pins that every
combination still matches the scalar oracle exactly.

Bit-exactness contract (pinned by ``tests/exec/test_exec_parity.py``):
frames *and* aggregate work counters equal
``SequenceDecoder(data).decode_all()`` for every grain / engine /
worker combination; the sequence header contributes nothing to the
work counters, so per-window counter sums equal the linear decode's.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.exec.auto import AutoGranularity, CostModel, Decision, ObsSnapshot
from repro.exec.backend import scan_index
from repro.exec.dispatch import account
from repro.exec.graph import TaskGraph
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import StreamIndex
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
        #: Every Decision this executor made, in order (first entry is
        #: the up-front pick; later entries are GOP-boundary re-picks).
        self.last_decisions: list[Decision] = []
        #: The task graphs the last run's windows dispatched from (one
        #: per window in auto mode, one for the whole stream otherwise);
        #: each is conservation-verified when the run ends or aborts.
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

    def _planner(self, decision: Decision, index: StreamIndex):
        """The decoder for one window of the stream: a plan + a policy
        for the one parent loop (:mod:`repro.exec.dispatch`)."""
        from repro.parallel.mp import MPGopDecoder
        from repro.parallel.mp_slice import MPSliceDecoder

        common = dict(
            index=index,
            workers=self.workers,
            resilient=self.resilient,
            start_method=self.start_method,
        )
        if decision.grain == "gop":
            return MPGopDecoder(
                self.data, engine=decision.engine, _crash_gop=self._crash_gop,
                **common,
            )
        return MPSliceDecoder(
            self.data, mode=self.mode, _crash_task=self._crash_task, **common
        )

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
            return self._decode_windows(counters)
        finally:
            self.last_wall_seconds = time.perf_counter() - t_run
            # The graphs this run dispatched from — an aborted run's
            # included — must conserve, and feed ``exec.tasks.*``.
            account(self.last_graphs)

    def _decode_windows(self, counters: WorkCounters | None) -> list[Frame]:
        """Windowed execution with GOP-boundary re-picks.

        Auto grain re-picks every ``repick_gops`` closed GOPs; a pinned
        grain is one window over the whole stream.
        With both axes pinned there is nothing to choose: the pinned
        configuration is recorded so traces and metrics still show
        what ran (alt == chosen).
        """
        gops = self.index.gops
        controller = None
        if "auto" in (self.grain, self.engine):
            controller = self._controller()
            decision = controller.decide()
        else:
            est = self.model.estimate(
                self._profile(), self.grain, self.engine, self.workers
            )
            decision = Decision(
                grain=self.grain, engine=self.engine, est_cost=est,
                alt_grain=self.grain, alt_engine=self.engine, alt_cost=est,
                reason="fixed",
            )
        self.last_decisions.append(decision)
        step = self.repick_gops if self.grain == "auto" else max(len(gops), 1)
        frames: list[Frame] = []
        for window, start in enumerate(range(0, max(len(gops), 1), step)):
            end = min(start + step, len(gops))
            _trace_decision(decision, window=window, gop=start)
            planner = self._planner(
                decision, replace(self.index, gops=gops[start:end])
            )
            try:
                frames.extend(planner.decode_all(counters))
            finally:
                if planner.last_graph is not None:
                    self.last_graphs.append(planner.last_graph)
                self.last_stalls.merge(planner.last_stalls.snapshot())
            if end < len(gops):
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
