"""Set-associative cache simulation with coherence and miss classes.

The simulator replays a :class:`~repro.cache.trace.MemoryTrace`
through one LRU cache per processor with write-invalidate coherence
(the Challenge's Illinois-style protocol at this level of detail) and
classifies every miss:

* **cold** — the first time this cache ever touches the line;
* **coherence** — the line was here but another processor's write
  invalidated it (the paper's sharing misses; it found these small and
  false sharing negligible);
* **capacity/conflict** — everything else.  For fully-associative
  caches this class is pure capacity, which is exactly the quantity
  Fig. 15 reports against cold misses.

Consecutive references to the same line by the same processor cannot
miss after the first, so runs are collapsed before the Python replay
loop — a large constant-factor win that leaves every miss count exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.trace import MemoryTrace


@dataclass(frozen=True)
class CacheConfig:
    """One cache organisation to evaluate."""

    line_size: int = 64
    capacity: int = 1 << 20
    #: Ways per set; 0 means fully associative.
    associativity: int = 0

    def __post_init__(self) -> None:
        if self.line_size & (self.line_size - 1) or self.line_size < 4:
            raise ValueError(f"line_size must be a power of two >= 4")
        if self.capacity % self.line_size:
            raise ValueError("capacity must be a multiple of line_size")
        lines = self.capacity // self.line_size
        if self.associativity < 0 or self.associativity > lines:
            raise ValueError(f"bad associativity {self.associativity}")
        if self.associativity and lines % self.associativity:
            raise ValueError("lines must divide evenly into sets")

    @property
    def total_lines(self) -> int:
        return self.capacity // self.line_size

    @property
    def ways(self) -> int:
        return self.associativity or self.total_lines

    @property
    def n_sets(self) -> int:
        return self.total_lines // self.ways


@dataclass
class CacheStats:
    """Reference and miss counts (per processor or aggregated)."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    cold_misses: int = 0
    coherence_misses: int = 0
    capacity_conflict_misses: int = 0

    @property
    def refs(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def read_miss_rate(self) -> float:
        return self.read_misses / self.reads if self.reads else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.refs if self.refs else 0.0

    @property
    def capacity_to_cold_ratio(self) -> float:
        """Fig. 15's measure (meaningful for fully-associative runs)."""
        return (
            self.capacity_conflict_misses / self.cold_misses
            if self.cold_misses
            else 0.0
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        for name in (
            "reads", "writes", "read_misses", "write_misses",
            "cold_misses", "coherence_misses", "capacity_conflict_misses",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


class _Cache:
    """One processor's LRU set-associative cache."""

    __slots__ = ("sets", "ways", "n_sets", "seen", "invalidated")

    def __init__(self, config: CacheConfig) -> None:
        self.ways = config.ways
        self.n_sets = config.n_sets
        self.sets: list[dict[int, None]] = [dict() for _ in range(self.n_sets)]
        self.seen: set[int] = set()
        self.invalidated: set[int] = set()

    def lookup(self, line: int) -> tuple[bool, str]:
        """Access ``line``; returns (hit, miss_class)."""
        s = self.sets[line % self.n_sets]
        if line in s:
            del s[line]  # refresh LRU position
            s[line] = None
            return True, ""
        if line not in self.seen:
            self.seen.add(line)
            cls = "cold"
        elif line in self.invalidated:
            self.invalidated.discard(line)
            cls = "coherence"
        else:
            cls = "capacity"
        s[line] = None
        if len(s) > self.ways:
            evicted = next(iter(s))
            del s[evicted]
        return False, cls

    def invalidate(self, line: int) -> None:
        s = self.sets[line % self.n_sets]
        if line in s:
            del s[line]
            self.invalidated.add(line)


def simulate(
    trace: MemoryTrace, config: CacheConfig
) -> tuple[CacheStats, list[CacheStats]]:
    """Replay ``trace`` through per-processor caches.

    Returns ``(aggregate, per_processor)`` statistics.
    """
    n_procs = trace.processors
    caches = [_Cache(config) for _ in range(n_procs)]
    stats = [CacheStats() for _ in range(n_procs)]

    if len(trace) == 0:
        return CacheStats(), stats

    shift = int(config.line_size).bit_length() - 1
    lines = trace.addr >> shift
    procs = trace.proc.astype(np.int64)
    writes = trace.write

    # Collapse consecutive same-(proc, line) runs: only the first
    # reference of a run can miss; the rest are guaranteed hits.
    key = (procs << 44) | lines
    boundaries = np.empty(len(key), dtype=bool)
    boundaries[0] = True
    np.not_equal(key[1:], key[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    run_lines = lines[starts]
    run_procs = procs[starts]
    run_first_write = writes[starts]
    ends = np.append(starts[1:], len(key))
    run_lens = ends - starts
    run_writes = np.add.reduceat(writes.astype(np.int64), starts)
    run_any_write = run_writes > 0

    for i in range(len(starts)):
        p = int(run_procs[i])
        line = int(run_lines[i])
        st = stats[p]
        n = int(run_lens[i])
        w = int(run_writes[i])
        st.reads += n - w
        st.writes += w
        hit, cls = caches[p].lookup(line)
        if not hit:
            if run_first_write[i]:
                st.write_misses += 1
            else:
                st.read_misses += 1
            if cls == "cold":
                st.cold_misses += 1
            elif cls == "coherence":
                st.coherence_misses += 1
            else:
                st.capacity_conflict_misses += 1
        if run_any_write[i] and n_procs > 1:
            for q in range(n_procs):
                if q != p:
                    caches[q].invalidate(line)

    total = CacheStats()
    for st in stats:
        total.merge(st)
    return total, stats


def line_size_sweep(
    trace: MemoryTrace,
    line_sizes: list[int],
    capacity: int = 1 << 20,
) -> dict[int, float]:
    """Read miss rate per line size, fully associative (Fig. 13)."""
    out: dict[int, float] = {}
    for ls in line_sizes:
        total, _ = simulate(trace, CacheConfig(line_size=ls, capacity=capacity))
        out[ls] = total.read_miss_rate
    return out
