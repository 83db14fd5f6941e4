"""Measurement helpers matching the paper's methodology (Section 5.1.1).

Speedup is defined exactly as in the paper: pictures/second with ``P``
worker processes (P+2 processors total) over pictures/second with one
worker process (3 processors total) — *not* over a uniprocessor that
multiplexes scan and display, which would inflate the numbers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.parallel.simrun import DecodeRunResult


def pictures_per_second(result: DecodeRunResult) -> float:
    return result.pictures_per_second


def speedup_curve(
    run: Callable[[int], DecodeRunResult], worker_counts: Iterable[int]
) -> dict[int, float]:
    """Speedup at each worker count, per the paper's definition.

    ``run(P)`` must simulate the decode with ``P`` workers.  The
    baseline is ``run(1)`` (computed once, first).
    """
    counts = list(worker_counts)
    base = run(1).pictures_per_second
    curve: dict[int, float] = {}
    for p in counts:
        rate = base if p == 1 else run(p).pictures_per_second
        curve[p] = rate / base
    return curve


def load_balance(result: DecodeRunResult) -> tuple[int, int, float]:
    """(min, max, mean) of worker computing time (Fig. 6's measure)."""
    execs = [result.worker_exec(i) for i in range(len(result.worker_busy))]
    return min(execs), max(execs), sum(execs) / len(execs)


def sync_ratio(result: DecodeRunResult) -> float:
    """Average worker sync-wait / execution-time ratio (Fig. 12)."""
    return result.mean_sync_ratio


def ideal_vs_actual(result: DecodeRunResult) -> tuple[int, int]:
    """(ideal, actual) time summed over workers — the Fig. 7 bars.

    Ideal is pixie-style busy time; actual adds the modelled memory
    stalls.
    """
    ideal = sum(result.worker_busy)
    actual = ideal + sum(result.worker_stall)
    return ideal, actual
