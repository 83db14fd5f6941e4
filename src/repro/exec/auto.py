"""Online auto-granularity: choose grain + engine, re-pick from obs.

The paper's central experimental result is that the *decomposition
grain* decides whether software MPEG-2 decoding meets real time: GOP
grain parallelizes with almost no synchronization but needs many GOPs
in flight; slice grain exposes parallelism inside a single picture but
pays barrier / reference-publish waits.  The repo historically made
that choice a per-run flag; :class:`AutoGranularity` makes it a
per-stream *decision* with an online correction loop:

1. **Up-front** (:meth:`AutoGranularity.decide`): estimate each
   candidate ``(grain, engine)``'s cost from the bandwidth profiler's
   per-stream numbers (:class:`~repro.analysis.bandwidth.
   BandwidthProfile` — bytes to decode, picture mix, GOP count) and a
   calibrated :class:`CostModel`, then pick the cheapest.  The rejected
   runner-up and its estimate ride along in the :class:`Decision` so
   the ``exec.plan`` trace span can show *what was not chosen and why*.
2. **Online** (:meth:`AutoGranularity.repick`): at GOP boundaries the
   executor summarizes the last window's observed stage timings into
   an :class:`ObsSnapshot` (worker idle, barrier + ref-publish stalls,
   queue depth) and the controller re-picks: sustained worker idleness
   at GOP grain means the stream is not wide enough in GOPs — go
   finer; heavy synchronization share at slice grain means the fine
   grain is paying more in waits than it buys — go coarser.  Both
   functions are **pure**: same profile / snapshot in, same decision
   out (pinned by a Hypothesis determinism property).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.bandwidth import BandwidthProfile
from repro.obs.stalls import (
    REASON_BARRIER,
    REASON_QUEUE_GET,
    REASON_REF_PUBLISH,
    StallTable,
)

GRAINS = ("gop", "slice")
ENGINES_CHOICES = ("scalar", "batched")

#: Re-pick hysteresis: a correction needs a clear signal, not noise.
#: Idle fraction above this at GOP grain reads as "not enough GOPs in
#: flight"; sync fraction above this at slice grain reads as "the fine
#: grain's barriers cost more than its width buys".
IDLE_REPICK_FRAC = 0.25
SYNC_REPICK_FRAC = 0.25


@dataclass(frozen=True)
class ObsSnapshot:
    """A window's observed stage timings, summarized for the controller.

    Everything the re-pick rule reads, and nothing else — so decisions
    are a pure function of this record (the determinism property) and
    a snapshot can be built equally from a live run or a test fixture.
    """

    wall_s: float
    pictures: int
    queue_depth: int = 0
    worker_idle_s: float = 0.0
    barrier_s: float = 0.0
    ref_publish_s: float = 0.0

    @classmethod
    def from_run(
        cls,
        stalls: StallTable,
        wall_s: float,
        pictures: int,
        queue_depth: int = 0,
    ) -> "ObsSnapshot":
        """Summarize a planner's post-run stall table.

        Worker idleness is the ``queue.get`` time booked by
        ``worker-*`` waiters (the between-task gaps the worker loop
        attributes); barrier / ref-publish totals come straight from
        the canonical reasons.
        """
        idle = 0.0
        for waiter, reasons in stalls.snapshot().items():
            if waiter.startswith("worker-"):
                cell = reasons.get(REASON_QUEUE_GET)
                if cell is not None:
                    idle += cell["total"]
        return cls(
            wall_s=wall_s,
            pictures=pictures,
            queue_depth=queue_depth,
            worker_idle_s=idle,
            barrier_s=stalls.total(REASON_BARRIER),
            ref_publish_s=stalls.total(REASON_REF_PUBLISH),
        )

    @property
    def idle_frac(self) -> float:
        return self.worker_idle_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def sync_frac(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return (self.barrier_s + self.ref_publish_s) / self.wall_s


@dataclass(frozen=True)
class Decision:
    """One planning decision, with the rejected runner-up attached.

    The estimates are model costs (seconds of work, not a promise of
    wall time); ``reason`` is a short human-readable tag that lands in
    the ``exec.plan`` trace span and the decision metrics.
    """

    grain: str
    engine: str
    est_cost: float
    alt_grain: str
    alt_engine: str
    alt_cost: float
    reason: str


@dataclass(frozen=True)
class CostModel:
    """Calibrated per-stream cost estimates for each (grain, engine).

    Deliberately coarse — the controller needs *ordering*, not
    absolute seconds.  Decode work scales with coded bytes
    (entropy-decode dominated, so wire bytes are the right size
    proxy); the scalar engine pays roughly 4x the batched engine's
    per-byte cost (the measured gap between the per-block and the
    whole-picture vectorized paths).  Each grain then adds its own
    overheads: GOP grain a per-GOP dispatch message and its
    result's display merge, slice grain a per-picture process
    message plus worker spawn cost (the slice path spawns fresh
    workers per run) and the barrier/ref-publish synchronization the
    paper charges the fine grain with.
    """

    #: Seconds per coded byte, batched engine (calibrated on the
    #: pure-python decoder; absolute scale cancels in comparisons).
    batched_s_per_byte: float = 2.0e-6
    #: The scalar engine's multiplier over batched.
    scalar_multiplier: float = 4.0
    #: Per-GOP overhead at GOP grain: one dispatch message + the
    #: result's trip back and display merge.
    gop_task_s: float = 2.0e-3
    #: Per-picture overhead at slice grain: at most ``workers`` batch
    #: messages each way + publish/merge bookkeeping (measured ~0.6 ms
    #: of CPU per 352x240 picture over the sequential decode).
    slice_task_s: float = 1.0e-3
    #: Per-worker spawn cost at slice grain (fresh processes per run,
    #: unlike the GOP path's persistent pool).
    slice_spawn_s: float = 0.25
    #: Synchronization surcharge at slice grain: fraction of decode
    #: work lost to barrier / ref-publish waits (Table 3's sync share
    #: for the fine grain; with earliest-first credit dispatch the
    #: improved policy runs within ~3% of GOP grain's wall clock).
    slice_sync_frac: float = 0.05

    def engine_cost(self, stream_bytes: int, engine: str) -> float:
        per_byte = self.batched_s_per_byte
        if engine == "scalar":
            per_byte *= self.scalar_multiplier
        return stream_bytes * per_byte

    def estimate(
        self,
        profile: BandwidthProfile,
        grain: str,
        engine: str,
        workers: int,
    ) -> float:
        """Model seconds for one (grain, engine) on ``workers`` cores.

        Work divides by the *effective* parallel width: GOP grain
        cannot use more workers than the stream has GOPs, slice grain
        is bounded by pictures in flight (B-pictures between two
        published references — modelled as the per-GOP picture count).
        """
        decode = self.engine_cost(profile.stream_bytes, engine)
        gops = max(len(profile.gops), 1)
        pictures = max(profile.pictures, 1)
        lanes = max(workers, 1)
        if grain == "gop":
            width = min(lanes, gops)
            return decode / width + self.gop_task_s * gops
        if grain == "slice":
            width = min(lanes, max(pictures // gops, 1))
            sync = decode * self.slice_sync_frac if lanes > 1 else 0.0
            return (
                decode / width
                + sync
                + self.slice_task_s * pictures
                + self.slice_spawn_s * min(lanes, workers or 0)
            )
        raise ValueError(f"unknown grain {grain!r}")


@dataclass(frozen=True)
class AutoGranularity:
    """The controller: pure decision functions over profile + obs.

    ``engine_hint`` / ``grain_hint`` pin one axis while the other
    stays automatic (the CLI's ``--grain auto --engine batched``
    shape).
    """

    profile: BandwidthProfile
    workers: int
    model: CostModel = field(default_factory=CostModel)
    grain_hint: str | None = None
    engine_hint: str | None = None

    def _candidates(self) -> list[tuple[str, str]]:
        grains = (self.grain_hint,) if self.grain_hint else GRAINS
        engines = (self.engine_hint,) if self.engine_hint else ENGINES_CHOICES
        return [(g, e) for g in grains for e in engines]

    def decide(self) -> Decision:
        """Up-front pick: cheapest modelled (grain, engine) candidate.

        Ties break toward the earlier candidate in (gop, slice) x
        (scalar, batched) order — deterministic by construction.
        """
        scored = [
            (self.model.estimate(self.profile, g, e, self.workers), g, e)
            for g, e in self._candidates()
        ]
        scored.sort(key=lambda t: t[0])
        best_cost, best_g, best_e = scored[0]
        if len(scored) > 1:
            alt_cost, alt_g, alt_e = scored[1]
        else:
            alt_cost, alt_g, alt_e = best_cost, best_g, best_e
        return Decision(
            grain=best_g,
            engine=best_e,
            est_cost=best_cost,
            alt_grain=alt_g,
            alt_engine=alt_e,
            alt_cost=alt_cost,
            reason="profile",
        )

    def repick(self, prev: Decision, snap: ObsSnapshot) -> Decision:
        """Online correction at a GOP boundary — pure in (prev, snap).

        * GOP grain + sustained worker idleness: the stream is not
          wide enough in GOPs for the pool — go finer (slice), if the
          model thinks slice is even viable here and the grain is not
          pinned.
        * Slice grain + heavy barrier/ref-publish share: the fine
          grain pays more in synchronization than its width buys — go
          coarser (gop).
        * Otherwise: hold steady.  No signal is never treated as a
          reason to churn.
        """
        if self.grain_hint is not None:
            return Decision(
                grain=prev.grain,
                engine=prev.engine,
                est_cost=prev.est_cost,
                alt_grain=prev.alt_grain,
                alt_engine=prev.alt_engine,
                alt_cost=prev.alt_cost,
                reason="pinned",
            )
        if prev.grain == "gop" and snap.idle_frac > IDLE_REPICK_FRAC:
            est = self.model.estimate(
                self.profile, "slice", prev.engine, self.workers
            )
            return Decision(
                grain="slice",
                engine=prev.engine,
                est_cost=est,
                alt_grain="gop",
                alt_engine=prev.engine,
                alt_cost=prev.est_cost,
                reason="worker-idle",
            )
        if prev.grain == "slice" and snap.sync_frac > SYNC_REPICK_FRAC:
            est = self.model.estimate(
                self.profile, "gop", prev.engine, self.workers
            )
            return Decision(
                grain="gop",
                engine=prev.engine,
                est_cost=est,
                alt_grain="slice",
                alt_engine=prev.engine,
                alt_cost=prev.est_cost,
                reason="sync-bound",
            )
        return Decision(
            grain=prev.grain,
            engine=prev.engine,
            est_cost=prev.est_cost,
            alt_grain=prev.alt_grain,
            alt_engine=prev.alt_engine,
            alt_cost=prev.alt_cost,
            reason="steady",
        )
