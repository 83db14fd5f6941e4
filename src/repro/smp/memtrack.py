"""Memory-allocation tracking over virtual time (Figs. 8-9 substrate).

The paper's Fig. 8 measures the decoder's actual memory footprint and
Fig. 9 compares it against the analytical model
``mem(x) = scan(x) + frames(x)``.  The tracker records categorised
allocate/free events stamped with simulation time and reconstructs the
usage curve and its peak.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MemoryEvent:
    time: int
    delta: int
    category: str


@dataclass
class MemoryTracker:
    """Categorised time-series of allocations in a simulation run."""

    events: list[MemoryEvent] = field(default_factory=list)

    def allocate(self, time: int, nbytes: int, category: str) -> None:
        if nbytes < 0:
            raise ValueError("allocate() takes a non-negative size")
        if nbytes:
            self.events.append(MemoryEvent(time, nbytes, category))

    def free(self, time: int, nbytes: int, category: str) -> None:
        if nbytes < 0:
            raise ValueError("free() takes a non-negative size")
        if nbytes:
            self.events.append(MemoryEvent(time, -nbytes, category))

    # ------------------------------------------------------------------
    def _sorted(self) -> list[MemoryEvent]:
        return sorted(self.events, key=lambda e: e.time)

    def curve(self, category: str | None = None) -> list[tuple[int, int]]:
        """(time, bytes-in-use) steps, one point per change."""
        points: list[tuple[int, int]] = []
        usage = 0
        for e in self._sorted():
            if category is not None and e.category != category:
                continue
            usage += e.delta
            if points and points[-1][0] == e.time:
                points[-1] = (e.time, usage)
            else:
                points.append((e.time, usage))
        return points

    def usage_at(self, time: int, category: str | None = None) -> int:
        curve = self.curve(category)
        times = [t for t, _ in curve]
        i = bisect.bisect_right(times, time) - 1
        return curve[i][1] if i >= 0 else 0

    def peak(self, category: str | None = None) -> int:
        curve = self.curve(category)
        return max((u for _, u in curve), default=0)

    def categories(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.category, None)
        return list(seen)

    def final_usage(self) -> dict[str, int]:
        """Bytes still allocated at the end (leak check: should be ~0)."""
        usage: dict[str, int] = defaultdict(int)
        for e in self.events:
            usage[e.category] += e.delta
        return dict(usage)
