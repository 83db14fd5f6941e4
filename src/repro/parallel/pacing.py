"""Real-time display pacing: the 30 pictures/second deadline schedule.

The paper's goal is *real-time* decoding: 30 pictures/second reaching
the display.  The throughput experiments decode as fast as possible;
this module adds the real-time view: picture ``k`` is due at
``t0 + (k + preroll) * period``, where ``t0`` is when the first picture
is ready (the startup latency), and a picture that is ready after its
deadline is *late* by the difference.

:class:`Pacer` is that schedule on whatever clock its caller keeps.
The simulated display process (:mod:`repro.parallel.simrun`) counts
machine cycles — an integer period, integer lateness — and sleeps an
early picture until its deadline, which is what makes the GOP
decoder's decoded-picture backlog grow against a paced drain (the flip
side of the Fig. 8/9 analysis).  The serve layer and the net client
count wall-clock seconds, and their per-picture lateness is the raw
material for the deadline-miss CDF that ``benchmarks/perf_serve.py``
charts and for the overload-degradation triggers
(:mod:`repro.serve.degrade`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Pacer:
    """Deadline bookkeeping for a paced display, in the caller's units.

    With a ``period`` of ``None`` the pacer is inert (decode-rate
    display, the default the throughput benchmarks use).
    """

    #: Time between two pictures' deadlines (``None``: no pacing).
    period: float | None = None
    #: Deadlines start this many periods after the first picture (a
    #: player's preroll buffer).
    preroll_pictures: int = 0
    #: When the first picture was ready: the anchor of every deadline.
    t0: float | None = field(default=None, init=False)
    #: Lateness per emitted picture (0 = met its deadline).
    lateness: list[float] = field(default_factory=list, init=False)

    @property
    def enabled(self) -> bool:
        return self.period is not None

    def deadline(self, index: int) -> float:
        if self.period is None:
            raise ValueError("pacer has no display rate")
        assert self.t0 is not None, "deadline before first picture"
        return self.t0 + (index + self.preroll_pictures) * self.period

    def on_emit(self, index: int, now: float) -> float:
        """Record picture ``index`` becoming displayable at ``now``.

        Returns its lateness (0 when the deadline was met or pacing is
        off).  The first emission anchors ``t0`` and is never late.
        """
        if self.period is None:
            return 0
        late = 0 * self.period  # zero in the clock's own type
        if self.t0 is None:
            self.t0 = now
        else:
            late = max(late, now - self.deadline(index))
        self.lateness.append(late)
        return late

    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        return len(self.lateness)

    @property
    def late_pictures(self) -> int:
        return sum(1 for s in self.lateness if s > 0)

    @property
    def max_lateness(self) -> float:
        return max(self.lateness, default=0)

    def lateness_percentiles(self) -> dict[str, float]:
        """Fixed lateness percentiles: p50/p90/p99/max.

        The compact form bench payloads carry — four numbers instead of
        thousands of per-picture samples (linear interpolation between
        order statistics, max exact).
        """
        ordered = sorted(self.lateness)
        if not ordered:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}

        def pct(q: float) -> float:
            pos = q * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

        return {
            "p50": pct(0.50),
            "p90": pct(0.90),
            "p99": pct(0.99),
            "max": ordered[-1],
        }

    def summary(self) -> dict[str, float]:
        """Report row of a pacer on a seconds clock (serve, net)."""
        return {
            "emitted": self.emitted,
            "late_pictures": self.late_pictures,
            "max_lateness_s": self.max_lateness,
            "total_lateness_s": sum(self.lateness),
        }
