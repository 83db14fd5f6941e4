"""Metrics registry: counters, gauges and histograms with JSON snapshots.

The paper's Table 2 is a per-stage time breakdown; its Fig. 6 is a
worker load-balance chart.  Both are *aggregates*, and this module is
where the reproduction accumulates theirs: named counters (monotonic
totals), gauges (current value + high-water mark) and histograms
(count/sum/min/max plus a bounded sample reservoir for percentiles).

Canonical metric names (shared by the real mp pipeline, the decoder
and the SMP simulator so reports line up):

======================== ==========================================
``decode.picture_ms``    histogram — wall ms per decoded picture
``decode.gop_ms``        histogram — wall ms per decoded GOP
``mp.worker.idle_ms``    histogram — worker gap between tasks
``mp.scan_ms``           counter   — parent scan ms, summed over GOPs
``mp.frame_pool.occupancy`` gauge  — frame-window slots held, either mp grain; 0 after a run
``queue.depth``          gauge     — display reorder-buffer depth
======================== ==========================================

Snapshots are plain JSON-able dicts and **mergeable**
(:meth:`MetricsRegistry.merge_snapshot`), which is how per-task
snapshots from mp worker processes fold into the parent's registry —
only small dicts cross the process boundary, never the registry
objects themselves.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Histogram sample reservoir size; aggregates stay exact beyond it.
HISTOGRAM_SAMPLE_CAP = 1024


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ascending ``ordered`` by linear
    interpolation between order statistics; 0.0 when empty.  (A
    :class:`Histogram` reads its reservoir by nearest rank instead.)"""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A current value with a high-water mark."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"value": self.value, "max": self.max}


class Histogram:
    """Exact count/sum/min/max plus a bounded reservoir for percentiles.

    The reservoir keeps the first :data:`HISTOGRAM_SAMPLE_CAP`
    observations (deterministic; aggregates remain exact regardless),
    which is plenty for the decoder's per-picture/per-GOP cadence.
    """

    __slots__ = ("count", "sum", "min", "max", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < HISTOGRAM_SAMPLE_CAP:
            self.samples.append(value)

    def _percentile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        idx = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[idx]

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
            "p50": self._percentile(0.50),
            "p90": self._percentile(0.90),
            "p99": self._percentile(0.99),
        }

    def merge(self, snap: dict) -> None:
        """Fold another histogram's snapshot-shaped dict into this one."""
        if not snap or snap.get("count", 0) == 0:
            return
        self.count += snap["count"]
        self.sum += snap["sum"]
        self.min = min(self.min, snap["min"])
        self.max = max(self.max, snap["max"])
        # Reservoir merge: accept the peer's representative values up
        # to the cap (peers ship mean/percentiles, not raw samples, so
        # re-observe the summary points weighted crudely by count).
        room = HISTOGRAM_SAMPLE_CAP - len(self.samples)
        if room > 0:
            for key in ("p50", "p90", "p99"):
                if key in snap:
                    self.samples.append(snap[key])


class MetricsRegistry:
    """Named metrics, lazily created, snapshotable and mergeable."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-able view of every metric (the ``--stats`` payload)."""
        return {
            "counters": {k: c.snapshot() for k, c in self._counters.items()},
            "gauges": {k: g.snapshot() for k, g in self._gauges.items()},
            "histograms": {
                k: h.snapshot() for k, h in self._histograms.items()
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a peer registry's snapshot in (mp worker -> parent)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, g in snap.get("gauges", {}).items():
            gauge = self.gauge(name)
            if g.get("max", 0) > gauge.max:
                gauge.max = g["max"]
        for name, h in snap.get("histograms", {}).items():
            self.histogram(name).merge(h)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    def render_table(self) -> str:
        """The ``--stats`` summary table (monospace, TextTable)."""
        from repro.analysis.report import TextTable

        lines: list[str] = []
        if self._counters:
            t = TextTable(["counter", "total"], title="counters")
            for name in sorted(self._counters):
                t.add_row(name, self._counters[name].value)
            lines.append(t.render())
        if self._gauges:
            t = TextTable(["gauge", "value", "max"], title="gauges")
            for name in sorted(self._gauges):
                g = self._gauges[name]
                t.add_row(name, g.value, g.max)
            lines.append(t.render())
        if self._histograms:
            t = TextTable(
                ["histogram", "count", "mean", "p50", "p90", "p99", "max"],
                title="histograms",
            )
            for name in sorted(self._histograms):
                s = self._histograms[name].snapshot()
                if s["count"] == 0:
                    t.add_row(name, 0, "-", "-", "-", "-", "-")
                else:
                    t.add_row(
                        name, s["count"], s["mean"], s["p50"], s["p90"],
                        s["p99"], s["max"],
                    )
            lines.append(t.render())
        return "\n\n".join(lines) if lines else "(no metrics recorded)"


# ----------------------------------------------------------------------
# the process-global registry
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global registry (always on; recording is cheap)."""
    return _registry


def reset_metrics() -> None:
    _registry.reset()
