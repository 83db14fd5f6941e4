"""Wall-clock decode/encode performance harness (scalar vs batched).

Unlike the ``bench_*`` experiment files, which reproduce the paper's
figures on the *simulated* machine, this harness measures real
wall-clock throughput of the two decode engines on this repository's
Table 1 small-stream matrix, plus the full-size 352x240 Table 1 stream
as the headline case.  Results are written to ``BENCH_decode.json`` at
the repo root so successive changes leave a perf trajectory.

Reported per stream:

* encode throughput (pictures/s, macroblocks/s) — one timed pass;
* decode throughput for ``engine="scalar"`` and ``engine="batched"``
  (best of N timed passes each, interleaved to spread machine noise);
* the batched/scalar speedup in pictures/s;
* for the headline stream, the per-stage span totals of one traced
  decode, and from them the phase split of the two-phase fast path
  (:func:`phase_split`) — the empirical parse/reconstruct fractions
  behind the paper's Section 4 argument.

Run directly (``PYTHONPATH=src python benchmarks/perf_decode.py``) or
through pytest (``pytest benchmarks/perf_decode.py -m perf``); the
pytest entry point asserts the headline speedup so perf regressions
fail loudly, but only under the ``perf`` marker — tier-1 never runs
wall-clock assertions.
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

from repro.mpeg2.decoder import ENGINES, SequenceDecoder
from repro.video.streams import (
    TestStreamSpec,
    build_stream,
    paper_stream_matrix,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_decode.json")

#: The full-size Table 1 row the acceptance numbers are quoted on:
#: 352x240, one 13-picture GOP, 5 Mb/s.
HEADLINE_SPEC = TestStreamSpec(
    name="table1/352x240/gop13",
    width=352,
    height=240,
    gop_size=13,
    pictures=13,
    bit_rate=5_000_000,
)

#: Quarter-scale version of the full four-resolution Table 1 matrix —
#: small enough that the whole matrix encodes and decodes in seconds,
#: wide enough to track throughput scaling across resolutions.
SMALL_MATRIX = paper_stream_matrix(pictures=4, resolution_divisor=4, gop_sizes=(4,))

#: Timed decode passes per engine (the minimum is reported).
DECODE_REPEATS = 5

#: Batched/scalar floor on the headline stream (measured ~7.7x).
HEADLINE_SPEEDUP_FLOOR = 6.0


def _cores() -> int:
    """Effective core count (affinity mask, not package count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _traced_stage_breakdown(data: bytes, engine: str = "batched") -> dict:
    """One traced decode pass -> per-stage span totals.

    Enables the :mod:`repro.obs` tracer for a single (untimed) decode
    and aggregates the emitted spans, so ``BENCH_decode.json`` records
    *where* the headline decode time goes (parse vs reconstruct vs
    per-kernel), not just the end-to-end number — the harness-level
    analogue of the paper's Table 2 breakdown.
    """
    from repro.analysis.obs_report import span_totals
    from repro.obs.trace import (
        disable_tracing,
        enable_tracing,
        get_tracer,
        to_chrome,
    )

    enable_tracing(process_name=f"perf_decode ({engine})")
    try:
        SequenceDecoder(data, engine=engine).decode_all()
        doc = to_chrome(get_tracer().events)
    finally:
        disable_tracing()
    return span_totals(doc)


def phase_split(stages: dict) -> dict[str, float]:
    """Parse/reconstruct split of a traced decode, from its span totals.

    Phase 1 (serial bit work) is the ``decode.parse`` spans, phase 2
    (reconstruction) the ``decode.reconstruct`` spans.  The
    ``amdahl_bound`` is the speedup ceiling of the parser-process
    architecture :mod:`repro.parallel.macroblock_level` simulates — the
    number the paper argues against at its Section 4 operating point.
    """
    parse = stages["decode.parse"]
    parse_s = parse["total_ms"] / 1e3
    recon_s = stages["decode.reconstruct"]["total_ms"] / 1e3
    return {
        "parse_seconds": parse_s,
        "reconstruct_seconds": recon_s,
        "parse_fraction": parse_s / (parse_s + recon_s),
        "amdahl_bound": (parse_s + recon_s) / parse_s,
        "pictures": float(parse["count"]),
    }


def _throughput(spec: TestStreamSpec, seconds: float) -> dict[str, float]:
    mb_per_picture = ((spec.width + 15) // 16) * ((spec.height + 15) // 16)
    return {
        "seconds": seconds,
        "pictures_per_sec": spec.pictures / seconds,
        "macroblocks_per_sec": spec.pictures * mb_per_picture / seconds,
    }


def bench_stream(
    spec: TestStreamSpec, repeats: int = DECODE_REPEATS
) -> dict[str, object]:
    """Measure one stream: encode once, decode with both engines."""
    from repro.mpeg2.encoder import encode_sequence

    frames = spec.video().frames(spec.pictures)
    t0 = perf_counter()
    encode_sequence(frames, spec.encoder_config())
    encode_s = perf_counter() - t0

    data = build_stream(spec)  # disk-cached; bitstream identical to above
    decode: dict[str, dict[str, float]] = {}
    # Interleave engine passes so slow drifts in machine load hit both.
    times: dict[str, list[float]] = {e: [] for e in ENGINES}
    for _ in range(repeats):
        for engine in ENGINES:
            t0 = perf_counter()
            SequenceDecoder(data, engine=engine).decode_all()
            times[engine].append(perf_counter() - t0)
    for engine in ENGINES:
        decode[engine] = _throughput(spec, min(times[engine]))

    return {
        "spec": asdict(spec),
        "stream_bytes": len(data),
        "encode": _throughput(spec, encode_s),
        "decode": decode,
        "decode_speedup": (
            decode["batched"]["pictures_per_sec"]
            / decode["scalar"]["pictures_per_sec"]
        ),
    }


def run(path: str = OUTPUT_PATH) -> dict[str, object]:
    """Benchmark the matrix + headline stream and write the JSON."""
    streams = {}
    for spec in SMALL_MATRIX:
        streams[spec.name] = bench_stream(spec, repeats=3)
    headline = bench_stream(HEADLINE_SPEC, repeats=DECODE_REPEATS)
    streams[HEADLINE_SPEC.name] = headline
    headline["stage_breakdown"] = _traced_stage_breakdown(
        build_stream(HEADLINE_SPEC)
    )
    headline["phase_split"] = phase_split(headline["stage_breakdown"])

    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": _cores(),
        "decode_repeats": DECODE_REPEATS,
        "headline": HEADLINE_SPEC.name,
        "headline_decode_speedup": headline["decode_speedup"],
        "streams": streams,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


#: The perf-smoke spec: the largest quarter-scale matrix row — big
#: enough that the batched engine's win sits far above shared-runner
#: timing noise, small enough that two interleaved passes per engine
#: finish in a couple of seconds.
SMOKE_SPEC = SMALL_MATRIX[-1]


@pytest.mark.perf
@pytest.mark.perf_smoke
def test_perf_smoke(record) -> None:
    """Fast sanity gate for the default CI matrix (``-m perf_smoke``).

    Not a calibrated benchmark: one small stream, two passes per
    engine, and a deliberately loose 2x floor.  It exists to catch
    "the batched engine stopped being fast at all" on every push
    without the full harness's runtime or its sensitivity to noisy
    shared runners.
    """
    row = bench_stream(SMOKE_SPEC, repeats=2)
    record(
        f"{SMOKE_SPEC.name}: scalar "
        f"{row['decode']['scalar']['pictures_per_sec']:.2f} p/s, batched "
        f"{row['decode']['batched']['pictures_per_sec']:.2f} p/s, "
        f"speedup {row['decode_speedup']:.2f}x (floor 2.0x)"
    )
    assert row["decode_speedup"] >= 2.0


@pytest.mark.perf
def test_perf_decode(record) -> None:
    """Perf gate: batched must beat scalar >= 6x on the headline stream."""
    report = run()
    lines = [
        f"{'stream':<24}{'scalar p/s':>12}{'batched p/s':>13}{'speedup':>9}"
    ]
    for name, row in report["streams"].items():
        lines.append(
            f"{name:<24}"
            f"{row['decode']['scalar']['pictures_per_sec']:>12.2f}"
            f"{row['decode']['batched']['pictures_per_sec']:>13.2f}"
            f"{row['decode_speedup']:>8.2f}x"
        )
    split = report["streams"][report["headline"]]["phase_split"]
    lines.append(
        f"headline phase split: parse {split['parse_fraction']:.1%}, "
        f"amdahl bound of parser-process architecture "
        f"{split['amdahl_bound']:.2f}x"
    )
    record("\n".join(lines))
    assert report["headline_decode_speedup"] >= HEADLINE_SPEEDUP_FLOOR


def main() -> int:
    report = run()
    print(f"wrote {OUTPUT_PATH}")
    for name, row in report["streams"].items():
        print(
            f"{name:<24} scalar {row['decode']['scalar']['pictures_per_sec']:8.2f} p/s"
            f"  batched {row['decode']['batched']['pictures_per_sec']:8.2f} p/s"
            f"  speedup {row['decode_speedup']:.2f}x"
        )
    print(f"headline speedup: {report['headline_decode_speedup']:.2f}x")
    return 0 if report["headline_decode_speedup"] >= HEADLINE_SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
