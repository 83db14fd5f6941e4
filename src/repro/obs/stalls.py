"""Stall attribution: who waited, why, for how long.

The paper's Table 3 splits each process's time into execution and
synchronisation; Fig. 12 tracks the sync/exec ratio as workers are
added.  To reproduce that analysis on *both* of this repo's parallel
decoders — the SMP simulator (virtual cycles) and the real
multiprocessing pipeline (wall seconds) — every blocking wait records
a :class:`StallRecord` ``(waiter, reason, duration)`` into a
:class:`StallTable` under a **shared reason vocabulary**, so the
simulated Challenge and real silicon report the same
"% time in barrier / queue / pool-full" breakdown side by side.

Canonical reasons
-----------------
========================= ============================================
:data:`REASON_QUEUE_GET`  waiting for work (task/result queue empty;
                          mp worker idle between GOPs; parent blocked
                          on the completion queue)
:data:`REASON_QUEUE_PUT`  downstream queue full
:data:`REASON_POOL_SLOT`  frame-pool slot unavailable (bounded pool)
:data:`REASON_MERGE`      display-order merge holding an out-of-order
                          completion until its turn
:data:`REASON_BARRIER`    barrier wait (policy-imposed: the slice
                          decoder's picture barrier beyond any true
                          data dependency)
:data:`REASON_REF_PUBLISH` waiting for a reference (I/P) picture to be
                          decoded and published before a dependent
                          picture's slices may start
:data:`REASON_LOCK`       contended mutex acquire
:data:`REASON_CONDITION`  generic condition wait (unclassified)
:data:`REASON_DEGRADE_DROP_B`   overload degradation dropped pending
                          B-picture tasks (duration = the deadline
                          debt that triggered the drop)
:data:`REASON_DEGRADE_SKIP_GOP` overload degradation skipped whole
                          pending GOPs (duration = the deadline debt
                          that triggered the skip)
:data:`REASON_DEGRADE_SWITCH_RUNG` overload degradation downshifted a
                          session to a cheaper ABR rung ahead of any
                          picture shedding (duration = the deadline
                          debt that triggered the switch)
:data:`REASON_ADMISSION`  a session sat in the admission queue before
                          a slot opened (multi-stream serve layer)
:data:`REASON_CONCEAL_TEMPORAL` a lost or corrupt slice was concealed
                          from the co-located rows of a previous
                          picture (duration = concealment work time)
:data:`REASON_CONCEAL_SPATIAL` a lost or corrupt slice was concealed
                          spatially (row-copy from the row above; used
                          when no earlier picture exists, e.g. an
                          I-picture at stream start)
========================= ============================================

Durations are unit-agnostic (the table never mixes sources): the
simulator records cycles, the mp pipeline seconds.  ``breakdown()``
normalises to fractions of a caller-supplied total, which is where the
two become directly comparable.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

REASON_QUEUE_GET = "queue.get"
REASON_QUEUE_PUT = "queue.put"
REASON_POOL_SLOT = "pool.slot"
REASON_MERGE = "merge.reorder"
REASON_BARRIER = "barrier"
REASON_REF_PUBLISH = "ref.publish"
REASON_LOCK = "lock"
REASON_CONDITION = "condition"
REASON_DEGRADE_DROP_B = "degrade.drop_b"
REASON_DEGRADE_SKIP_GOP = "degrade.skip_gop"
REASON_DEGRADE_SWITCH_RUNG = "degrade.switch_rung"
REASON_ADMISSION = "degrade.admission_wait"
REASON_CONCEAL_TEMPORAL = "conceal.temporal"
REASON_CONCEAL_SPATIAL = "conceal.spatial"

#: Every reason either decoder may report (the shared vocabulary).
CANONICAL_REASONS = (
    REASON_QUEUE_GET,
    REASON_QUEUE_PUT,
    REASON_POOL_SLOT,
    REASON_MERGE,
    REASON_BARRIER,
    REASON_REF_PUBLISH,
    REASON_LOCK,
    REASON_CONDITION,
    REASON_DEGRADE_DROP_B,
    REASON_DEGRADE_SKIP_GOP,
    REASON_DEGRADE_SWITCH_RUNG,
    REASON_ADMISSION,
    REASON_CONCEAL_TEMPORAL,
    REASON_CONCEAL_SPATIAL,
)


def record_concealment(
    table: "StallTable",
    waiter: str,
    temporal: int,
    spatial: int,
    seconds: float,
) -> None:
    """Attribute a concealment sweep's wall time to the conceal reasons.

    One sweep may mix policies (temporal rows and spatial rows of the
    same picture); the measured duration is split proportionally to the
    row counts so ``conceal.temporal`` / ``conceal.spatial`` totals stay
    additive across pictures.
    """
    total = temporal + spatial
    if total == 0:
        return
    if temporal:
        table.record(
            waiter, REASON_CONCEAL_TEMPORAL, seconds * temporal / total
        )
    if spatial:
        table.record(
            waiter, REASON_CONCEAL_SPATIAL, seconds * spatial / total
        )


@dataclass(frozen=True)
class StallRecord:
    """One blocking wait: who, why, how long (cycles or seconds)."""

    waiter: str
    reason: str
    duration: float


class StallTable:
    """Accumulates stall durations keyed by (waiter, reason)."""

    def __init__(self) -> None:
        self._totals: dict[tuple[str, str], float] = {}
        self._counts: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def record(self, waiter: str, reason: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative stall duration: {duration}")
        key = (waiter, reason)
        self._totals[key] = self._totals.get(key, 0.0) + duration
        self._counts[key] = self._counts.get(key, 0) + 1

    def merge(self, snap: dict) -> None:
        """Fold a peer's :meth:`snapshot` in (mp worker -> parent)."""
        for waiter, reasons in snap.items():
            for reason, cell in reasons.items():
                key = (waiter, reason)
                self._totals[key] = self._totals.get(key, 0.0) + cell["total"]
                self._counts[key] = self._counts.get(key, 0) + cell["count"]

    # ------------------------------------------------------------------
    def total(self, reason: str | None = None) -> float:
        """Summed stall time, optionally restricted to one reason."""
        return sum(
            t
            for (_, r), t in self._totals.items()
            if reason is None or r == reason
        )

    def by_reason(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_, reason), t in self._totals.items():
            out[reason] = out.get(reason, 0.0) + t
        return out

    def waiters(self) -> list[str]:
        return sorted({w for (w, _) in self._totals})

    def snapshot(self) -> dict:
        """JSON-able nested view: waiter -> reason -> {total, count}."""
        out: dict[str, dict[str, dict]] = {}
        for (waiter, reason), t in sorted(self._totals.items()):
            out.setdefault(waiter, {})[reason] = {
                "total": t,
                "count": self._counts[(waiter, reason)],
            }
        return out

    # ------------------------------------------------------------------
    def breakdown(self, total_time: float) -> dict[str, float]:
        """Fraction of ``total_time`` stalled, per reason.

        ``total_time`` is the denominator the percentages are quoted
        against — e.g. ``finish_cycles * processes`` for the simulator
        or ``wall_seconds * processes`` for the mp pipeline.  The
        denominator is floored at the summed stall time, so the
        returned fractions always sum to <= 1.0 even if the caller
        underestimates the wall.
        """
        if total_time < 0:
            raise ValueError(f"negative total_time: {total_time}")
        per_reason = self.by_reason()
        denom = max(total_time, sum(per_reason.values()))
        if denom == 0:
            return {reason: 0.0 for reason in per_reason}
        out = {reason: t / denom for reason, t in per_reason.items()}
        # Rounding in the divisions can lift the sum a few ulps over 1
        # when the stalls fill the denominator: take them off the top.
        while sum(out.values()) > 1.0:
            top = max(out, key=out.__getitem__)
            out[top] = math.nextafter(out[top], 0.0)
        return out

    def __bool__(self) -> bool:
        return bool(self._totals)


def format_stall_breakdown(
    breakdown: dict[str, float], title: str = "stall breakdown"
) -> str:
    """Render a reason -> fraction map as a monospace table."""
    from repro.analysis.report import TextTable

    table = TextTable(["reason", "% of time"], title=title)
    for reason in sorted(breakdown, key=lambda r: -breakdown[r]):
        table.add_row(reason, f"{100.0 * breakdown[reason]:.2f}%")
    table.add_row("(total)", f"{100.0 * sum(breakdown.values()):.2f}%")
    return table.render()
