"""Wall-clock speedup of the real-process GOP-parallel decoder.

The empirical counterpart of the paper's Fig. 5 on real silicon: where
``bench_fig5_gop_speedup.py`` sweeps worker counts on the *simulated*
SGI Challenge, this harness runs :class:`repro.parallel.mp.MPGopDecoder`
— OS worker processes, shared-memory frame pool, display-order merger —
and measures actual wall-clock speedup over the sequential
``SequenceDecoder`` at 1/2/4/8 workers on the Table 1 matrix plus a
multi-GOP 352x240 headline stream.  Results go to
``BENCH_parallel.json`` at the repo root.

Reported per stream:

* sequential baseline (batched engine, best of N passes);
* the ``workers=0`` in-process pipeline (scan/merge overhead without
  processes);
* wall-clock seconds and speedup per worker count;
* the shared frame pool's allocated bytes (the Fig. 8 memory quantity,
  now measured on real shared memory).

Speedup is bounded by physical cores: the JSON records
``cpu_affinity`` and the pytest gate (``perf`` marker, never tier-1)
asserts the >= 1.8x @ 4-workers acceptance bar only when at least 4
cores are actually available — on smaller machines it records the
numbers and skips the assertion rather than failing on physics.

Run directly (``PYTHONPATH=src python benchmarks/perf_parallel.py``)
or via ``pytest benchmarks/perf_parallel.py -m perf``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from time import perf_counter

import numpy as np
import pytest

from repro.mpeg2.decoder import SequenceDecoder
from repro.parallel.mp import MPGopDecoder
from repro.parallel.mp_slice import MPSliceDecoder
from repro.video.streams import (
    TestStreamSpec,
    build_stream,
    paper_stream_matrix,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_parallel.json")

#: Worker-process counts swept per stream (paper Fig. 5 sweeps 1..14).
WORKER_COUNTS = (1, 2, 4, 8)

#: The headline case: the Table 1 352x240 row, 8 closed 13-picture GOPs
#: so an 8-worker pool has one GOP per worker.
HEADLINE_SPEC = TestStreamSpec(
    name="table1/352x240/gop13x8",
    width=352,
    height=240,
    gop_size=13,
    pictures=104,
    bit_rate=5_000_000,
)

#: Quarter-scale Table 1 matrix, 8 GOPs of 4 pictures per stream.
SMALL_MATRIX = paper_stream_matrix(pictures=32, resolution_divisor=4, gop_sizes=(4,))

#: Timed passes per configuration (minimum reported).
REPEATS = 3


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def bench_parallel_stream(
    spec: TestStreamSpec,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
    repeats: int = REPEATS,
) -> dict[str, object]:
    """Sequential baseline + worker sweep for one stream."""
    data = build_stream(spec)

    sequential_s = _best_of(
        lambda: SequenceDecoder(data, engine="batched").decode_all(), repeats
    )
    fallback_s = _best_of(
        lambda: MPGopDecoder(data, workers=0).decode_all(), repeats
    )

    sweep: dict[str, dict[str, float]] = {}
    pool_bytes = 0
    for workers in worker_counts:
        decoder = MPGopDecoder(data, workers=workers)
        seconds = _best_of(decoder.decode_all, repeats)
        pool_bytes = decoder.last_pool_bytes
        sweep[str(workers)] = {
            "seconds": seconds,
            "pictures_per_sec": spec.pictures / seconds,
            "speedup_vs_sequential": sequential_s / seconds,
        }

    return {
        "spec": asdict(spec),
        "stream_bytes": len(data),
        "gops": spec.gop_count,
        "sequential_seconds": sequential_s,
        "sequential_pictures_per_sec": spec.pictures / sequential_s,
        "inprocess_fallback_seconds": fallback_s,
        "frame_pool_bytes": pool_bytes,
        "workers": sweep,
    }


def _traced_headline_obs(data: bytes, workers: int = 4) -> dict[str, object]:
    """One traced (untimed) mp run -> stall and utilization breakdowns.

    The empirical Table 3 analogue: the same canonical stall-reason
    vocabulary the simulator reports, measured on the real process
    pipeline, plus per-process busy fractions from the merged trace —
    so ``BENCH_parallel.json`` can answer "why is N-worker slower"
    from the log alone.
    """
    from repro.analysis.obs_report import (
        process_names,
        stall_breakdown,
        utilization,
    )
    from repro.obs.metrics import metrics, reset_metrics
    from repro.obs.trace import (
        disable_tracing,
        enable_tracing,
        get_tracer,
        to_chrome,
    )

    reset_metrics()
    enable_tracing(process_name="perf_parallel (scan+merge)")
    try:
        decoder = MPGopDecoder(data, workers=workers)
        decoder.decode_all()
        doc = to_chrome(get_tracer().events)
        names = process_names(doc)
        counters = metrics().snapshot()["counters"]
        return {
            "workers": workers,
            "stall_breakdown": decoder.stall_breakdown(),
            "trace_stall_breakdown": stall_breakdown(doc),
            # Dispatch cost: queue messages for the whole run (one per
            # GOP) and the cumulative parent/worker queue-wait seconds.
            "dispatch_messages": counters.get("mp.dispatch.messages", 0),
            "queue_get_stall_seconds": decoder.last_stalls.by_reason().get(
                "queue.get", 0.0
            ),
            "utilization": {
                names.get(pid, str(pid)): rec
                for pid, rec in utilization(doc).items()
            },
        }
    finally:
        disable_tracing()


#: The slice-decomposition stream: long multi-B GOPs, the structure
#: whose consecutive-B independence the improved barrier exploits
#: (paper Section 5.2).  Two GOPs keep the run short while still
#: crossing a GOP boundary.
SLICE_SPEC = TestStreamSpec(
    name="slice/176x120/gop13x2",
    width=176,
    height=120,
    gop_size=13,
    pictures=26,
    bit_rate=2_000_000,
)

#: Worker count for the GOP-vs-slice comparison (modest: the gating
#: behaviour, not raw speedup, is what this section measures).
SLICE_WORKERS = 2


def bench_slice_decompositions(
    spec: TestStreamSpec = SLICE_SPEC,
    workers: int = SLICE_WORKERS,
    repeats: int = REPEATS,
) -> dict[str, object]:
    """GOP vs slice-simple vs slice-improved on one multi-B stream.

    The empirical Section 5.2 comparison: same stream, same worker
    count, three task decompositions.  Alongside wall-clock each slice
    variant reports its cumulative per-reason stall seconds — the
    acceptance criterion is that the improved policy's ``barrier``
    time is *strictly below* simple's (it is zero by construction: its
    only gate is reference publication).
    """
    from repro.obs.stalls import REASON_BARRIER, REASON_REF_PUBLISH

    data = build_stream(spec)
    sequential_s = _best_of(
        lambda: SequenceDecoder(data, engine="batched").decode_all(), repeats
    )

    def measure(make):
        seconds, by_reason, pool = [], None, 0
        for _ in range(repeats):
            dec = make()
            t0 = perf_counter()
            dec.decode_all()
            seconds.append(perf_counter() - t0)
            by_reason = dec.last_stalls.by_reason()
            pool = dec.last_pool_bytes
        return {
            "seconds": min(seconds),
            "speedup_vs_sequential": sequential_s / min(seconds),
            "frame_pool_bytes": pool,
            "stall_seconds": by_reason,
            "barrier_wait_seconds": by_reason.get(REASON_BARRIER, 0.0),
            "ref_publish_wait_seconds": by_reason.get(REASON_REF_PUBLISH, 0.0),
        }

    variants = {
        "gop": measure(lambda: MPGopDecoder(data, workers=workers)),
        "slice-simple": measure(
            lambda: MPSliceDecoder(data, workers=workers, mode="simple")
        ),
        "slice-improved": measure(
            lambda: MPSliceDecoder(data, workers=workers, mode="improved")
        ),
    }
    return {
        "spec": asdict(spec),
        "stream_bytes": len(data),
        "workers": workers,
        # Recorded per section: sections can be re-measured on their
        # own, on a machine unlike the one the rest of the file saw.
        "cpu_affinity": _cores(),
        "sequential_seconds": sequential_s,
        "variants": variants,
        "improved_barrier_below_simple": (
            variants["slice-improved"]["barrier_wait_seconds"]
            < variants["slice-simple"]["barrier_wait_seconds"]
        ),
    }


def run(path: str = OUTPUT_PATH) -> dict[str, object]:
    """Benchmark the matrix + headline and write the JSON."""
    streams: dict[str, object] = {}
    for spec in SMALL_MATRIX:
        streams[spec.name] = bench_parallel_stream(spec, repeats=2)
    headline = bench_parallel_stream(HEADLINE_SPEC, repeats=REPEATS)
    streams[HEADLINE_SPEC.name] = headline
    headline["observability"] = _traced_headline_obs(
        build_stream(HEADLINE_SPEC), workers=4
    )
    slice_section = bench_slice_decompositions()

    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": _cores(),
        "worker_counts": list(WORKER_COUNTS),
        "repeats": REPEATS,
        "headline": HEADLINE_SPEC.name,
        "headline_speedup_at_4_workers": headline["workers"]["4"][
            "speedup_vs_sequential"
        ],
        "streams": streams,
        "slice": slice_section,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def _format_report(report: dict) -> str:
    lines = [
        f"{'stream':<26}{'seq p/s':>9}" +
        "".join(f"{f'x @ {w}w':>10}" for w in report["worker_counts"])
    ]
    for name, row in report["streams"].items():
        lines.append(
            f"{name:<26}{row['sequential_pictures_per_sec']:>9.2f}"
            + "".join(
                f"{row['workers'][str(w)]['speedup_vs_sequential']:>9.2f}x"
                for w in report["worker_counts"]
            )
        )
    sl = report["slice"]
    lines.append(
        f"slice decompositions ({sl['spec']['name']}, "
        f"{sl['workers']} workers):"
    )
    for variant, row in sl["variants"].items():
        lines.append(
            f"  {variant:<16}{row['seconds']:>8.3f}s"
            f"  barrier {row['barrier_wait_seconds']:.3f}s"
            f"  ref.publish {row['ref_publish_wait_seconds']:.3f}s"
        )
    lines.append(
        f"cores available: {report['cpu_affinity']} "
        f"(speedup is physically capped at this)"
    )
    return "\n".join(lines)


#: The one speedup floor: headline stream, 4 workers, >= 4 real cores.
#: The pytest gate, ``main()``'s exit code and CI (which runs ``main()``)
#: all read it from here.
SPEEDUP_FLOOR_AT_4_WORKERS = 1.8


@pytest.mark.perf
def test_perf_parallel(record) -> None:
    """Perf gate: >= 1.8x wall-clock at 4 workers on the headline stream.

    The assertion needs >= 4 real cores; on smaller machines the
    numbers are still measured and written to BENCH_parallel.json, but
    asserting parallel speedup without parallel hardware would only
    test the weather.
    """
    report = run()
    record(_format_report(report))
    cores = report["cpu_affinity"]
    # Sanity that is core-count independent: the mp pipeline at 1
    # worker must not be catastrophically slower than sequential
    # (process + shm overhead bounded), and results stay bit-exact
    # (asserted by tier-1, not here).
    headline = report["streams"][report["headline"]]
    assert headline["workers"]["1"]["speedup_vs_sequential"] > 0.5
    # Core-count independent by construction: the improved policy's
    # only gate is reference publication, so its cumulative barrier
    # time must sit strictly below simple's on the multi-B stream.
    assert report["slice"]["improved_barrier_below_simple"], (
        "improved barrier policy did not reduce barrier wait vs simple"
    )
    if cores < 4:
        pytest.skip(
            f"only {cores} core(s) available; cannot assert 4-worker "
            f"wall-clock speedup (measured "
            f"{report['headline_speedup_at_4_workers']:.2f}x)"
        )
    assert report["headline_speedup_at_4_workers"] >= SPEEDUP_FLOOR_AT_4_WORKERS


def main() -> int:
    report = run()
    print(f"wrote {OUTPUT_PATH}")
    print(_format_report(report))
    speedup = report["headline_speedup_at_4_workers"]
    print(f"headline speedup at 4 workers: {speedup:.2f}x")
    if report["cpu_affinity"] < 4:
        print("(fewer than 4 cores available; acceptance bar not applicable)")
        return 0
    print(f"floor: {SPEEDUP_FLOOR_AT_4_WORKERS}x")
    return 0 if speedup >= SPEEDUP_FLOOR_AT_4_WORKERS else 1


if __name__ == "__main__":
    raise SystemExit(main())
