"""Per-session service-level objectives with burn-rate accounting.

The ROADMAP's north star — serve heavy traffic and *prove* graceful
degradation — needs more than raw lateness lists: it needs a declared
objective and an online verdict.  ``SLOPolicy`` declares the contract
(deadline-miss budget, p99 lateness ceiling, conceal-rate ceiling) and
``SLOTracker`` evaluates it picture by picture:

* **budget_spent** — lifetime miss rate over the declared budget
  (1.0 = the whole error budget is gone);
* **burn_rate** — the same ratio over a sliding window of recent
  pictures, the SRE-style early-warning signal (burn_rate 2.0 means
  the budget is being consumed at twice the sustainable pace);
* **breaches / burned_out** — the explicit verdict once at least
  ``min_pictures`` observations have landed, so cold-start noise never
  trips an alarm.

Trackers live on both sides of the wire: `repro.serve` feeds one from
emit-time lateness per session, `repro.net` feeds one from client
STATS receipts per connection, and the snapshot travels in STATS
pushes, ``obs_report`` and ``BENCH_net.json``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import percentile

# Keep at most this many lateness samples per tracker; beyond it only
# the running max is exact.  4096 pictures is ~2 min at 30 fps — far
# more than any test or bench session — while bounding memory.
LATENESS_SAMPLE_CAP = 4096


@dataclass(frozen=True)
class SLOPolicy:
    """Declarative per-session objectives.

    ``deadline_miss_budget`` is the tolerated fraction of pictures
    emitted after their display deadline; ``p99_lateness_ms`` bounds
    how late the worst tolerated tail may run; ``conceal_rate_ceiling``
    bounds the fraction of macroblock rows arriving concealed rather
    than decoded.  ``window_pictures`` sizes the burn-rate window and
    ``min_pictures`` gates any verdict so short sessions don't alarm
    on one unlucky picture.
    """

    deadline_miss_budget: float = 0.05
    p99_lateness_ms: float = 100.0
    conceal_rate_ceiling: float = 0.05
    window_pictures: int = 60
    min_pictures: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.deadline_miss_budget <= 1.0:
            raise ValueError("deadline_miss_budget must be in (0, 1]")
        if self.p99_lateness_ms < 0:
            raise ValueError("p99_lateness_ms must be >= 0")
        if not 0.0 <= self.conceal_rate_ceiling <= 1.0:
            raise ValueError("conceal_rate_ceiling must be in [0, 1]")
        if self.window_pictures < 1:
            raise ValueError("window_pictures must be >= 1")
        if self.min_pictures < 1:
            raise ValueError("min_pictures must be >= 1")

    def to_json(self) -> dict[str, Any]:
        return {
            "deadline_miss_budget": self.deadline_miss_budget,
            "p99_lateness_ms": self.p99_lateness_ms,
            "conceal_rate_ceiling": self.conceal_rate_ceiling,
            "window_pictures": self.window_pictures,
            "min_pictures": self.min_pictures,
        }


class SLOTracker:
    """Online evaluation of one session against an :class:`SLOPolicy`."""

    def __init__(
        self, policy: SLOPolicy | None = None, session: str | None = None
    ) -> None:
        self.policy = policy or SLOPolicy()
        self.session = session
        self.pictures = 0
        self.misses = 0
        self.shed = 0
        self.rows_total = 0
        self.rows_concealed = 0
        self._lateness_ms: list[float] = []
        self._max_late_ms = 0.0
        self._window: deque[bool] = deque(maxlen=self.policy.window_pictures)

    def observe(
        self,
        late_s: float = 0.0,
        concealed_rows: int = 0,
        rows: int = 0,
        shed: bool = False,
    ) -> None:
        """Record one picture outcome.

        ``late_s`` is emit-time lateness in seconds (<= 0 means on
        time); ``rows``/``concealed_rows`` feed the conceal-rate
        objective; a ``shed`` picture counts as a deadline miss — the
        viewer never saw it, which is the worst kind of late.
        """

        self.pictures += 1
        late_ms = max(0.0, late_s * 1000.0)
        miss = shed or late_s > 0.0
        if shed:
            self.shed += 1
        if miss:
            self.misses += 1
        self._window.append(miss)
        if late_ms > self._max_late_ms:
            self._max_late_ms = late_ms
        if len(self._lateness_ms) < LATENESS_SAMPLE_CAP:
            self._lateness_ms.append(late_ms)
        self.rows_total += rows
        self.rows_concealed += concealed_rows

    @property
    def miss_rate(self) -> float:
        return self.misses / self.pictures if self.pictures else 0.0

    @property
    def conceal_rate(self) -> float:
        if not self.rows_total:
            return 0.0
        return self.rows_concealed / self.rows_total

    @property
    def p99_lateness_ms(self) -> float:
        return percentile(sorted(self._lateness_ms), 0.99)

    @property
    def budget_spent(self) -> float:
        """Fraction of the lifetime error budget consumed (1.0 = all)."""

        return self.miss_rate / self.policy.deadline_miss_budget

    @property
    def burn_rate(self) -> float:
        """Budget-consumption pace over the recent window.

        1.0 means the window is missing at exactly the budgeted rate;
        anything persistently above 1.0 exhausts the budget early.
        """

        if not self._window:
            return 0.0
        window_rate = sum(self._window) / len(self._window)
        return window_rate / self.policy.deadline_miss_budget

    def breaches(self) -> list[str]:
        """Objectives currently violated (empty before ``min_pictures``)."""

        if self.pictures < self.policy.min_pictures:
            return []
        out: list[str] = []
        if self.budget_spent > 1.0:
            out.append("deadline-miss-budget")
        if self.p99_lateness_ms > self.policy.p99_lateness_ms:
            out.append("p99-lateness")
        if self.conceal_rate > self.policy.conceal_rate_ceiling:
            out.append("conceal-rate")
        return out

    @property
    def burned_out(self) -> bool:
        return bool(self.breaches())

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state for STATS pushes, reports and benches."""

        return {
            "session": self.session,
            "policy": self.policy.to_json(),
            "pictures": self.pictures,
            "misses": self.misses,
            "shed": self.shed,
            "miss_rate": self.miss_rate,
            "p99_lateness_ms": self.p99_lateness_ms,
            "max_lateness_ms": self._max_late_ms,
            "conceal_rate": self.conceal_rate,
            "budget_spent": self.budget_spent,
            "burn_rate": self.burn_rate,
            "breaches": self.breaches(),
            "burned_out": self.burned_out,
        }
