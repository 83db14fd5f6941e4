"""Perf-regression guard: fresh numbers vs the committed baseline.

``BENCH_decode.json`` is committed at the repo root so the repository
carries its own perf trajectory.  This guard (``perf`` marker, never
tier-1) re-measures the headline stream with the same harness
(:mod:`benchmarks.perf_decode`) and fails if batched decode throughput
dropped more than :data:`ALLOWED_REGRESSION` below the committed
number — the tripwire that catches a "refactor" quietly costing 2x.

The committed baseline is read *before* any fresh run overwrites the
file.  Machine identity is checked loosely: if the baseline was
recorded on a different platform string, the comparison is
informational only (skip, not fail) — cross-machine wall-clock deltas
are not regressions.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from benchmarks.perf_decode import (
    DECODE_REPEATS,
    HEADLINE_SPEC,
    _cores,
    _traced_stage_breakdown,
    bench_stream,
)
from repro.obs.metrics import metrics
from repro.video.streams import build_stream

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_decode.json")
VERDICT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "results",
    "perf_regression_verdict.json",
)

#: Fail when fresh throughput drops below (1 - this) of the baseline.
ALLOWED_REGRESSION = 0.25


def load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def _breakdown_table(fresh: dict, baseline: dict | None) -> str:
    """Render a per-stage span table for the failure message.

    ``fresh`` is :func:`span_totals` output (stage -> count/total_ms/
    mean_ms) from a traced decode of the regressed engine, taken *at
    failure time*; when the committed baseline row carries its own
    ``stage_breakdown`` the ratio column points straight at the stage
    that regressed, otherwise the fresh totals alone still show where
    the wall-clock went.
    """
    baseline = baseline or {}
    have_base = bool(baseline)
    header = f"{'stage':<28}{'count':>7}{'total ms':>10}{'mean ms':>9}"
    if have_base:
        header += f"{'base ms':>10}{'ratio':>7}"
    lines = ["stage breakdown (regressed engine, one traced pass):", header]
    order = sorted(fresh, key=lambda n: -fresh[n]["total_ms"])
    for name in order:
        rec = fresh[name]
        line = (
            f"{name:<28}{rec['count']:>7d}{rec['total_ms']:>10.2f}"
            f"{rec['mean_ms']:>9.3f}"
        )
        if have_base:
            base_ms = baseline.get(name, {}).get("total_ms")
            if base_ms:
                line += f"{base_ms:>10.2f}{rec['total_ms'] / base_ms:>7.2f}"
            else:
                line += f"{'-':>10}{'-':>7}"
        lines.append(line)
    return "\n".join(lines)


def _diagnose_regression(engine: str, baseline_row: dict, record) -> str:
    """On failure: trace one decode, print + persist the stage split."""
    data = build_stream(HEADLINE_SPEC)
    fresh = _traced_stage_breakdown(data, engine=engine)
    table = _breakdown_table(fresh, baseline_row.get("stage_breakdown"))
    record(table)
    return table


def _write_verdict(verdict: dict) -> None:
    """Persist the comparison so CI logs/artifacts carry the numbers.

    The verdict also lands in the :mod:`repro.obs` metrics registry
    (gauges under ``perf.regression.*``), so a ``--stats``-style
    snapshot taken after the guard includes it.
    """
    reg = metrics()
    for key in ("baseline_pps", "measured_pps", "floor_pps", "ratio"):
        if verdict.get(key) is not None:
            reg.gauge(f"perf.regression.{key}").set(verdict[key])
    os.makedirs(os.path.dirname(VERDICT_PATH), exist_ok=True)
    doc = dict(verdict)
    doc["metrics_snapshot"] = reg.snapshot()
    with open(VERDICT_PATH, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _baseline_row(baseline: dict) -> dict | None:
    """The committed headline row, or ``None`` when it cannot anchor a
    comparison.

    A renamed or newly-added headline spec (or an older JSON schema)
    must surface as a clean "baseline missing stream" verdict — never
    a ``KeyError`` mid-comparison — so every access is defensive: the
    row only qualifies when both engines carry a throughput number.
    """
    row = (baseline.get("streams") or {}).get(HEADLINE_SPEC.name)
    if row is None:
        return None
    decode = row.get("decode") or {}
    for engine in ("scalar", "batched"):
        if "pictures_per_sec" not in (decode.get(engine) or {}):
            return None
    return row


@pytest.mark.perf
def test_perf_no_decode_regression(record) -> None:
    if not os.path.exists(BASELINE_PATH):
        pytest.skip("no committed BENCH_decode.json baseline")
    baseline = load_baseline()
    base_row = _baseline_row(baseline)
    if base_row is None:
        _write_verdict(
            {
                "stream": HEADLINE_SPEC.name,
                "verdict": "baseline-missing-stream",
                "detail": (
                    "committed BENCH_decode.json has no comparable "
                    f"row for {HEADLINE_SPEC.name!r} (renamed/added "
                    "spec or older schema); regenerate the baseline"
                ),
            }
        )
        pytest.skip(
            f"baseline missing stream {HEADLINE_SPEC.name!r} — "
            "renamed/added spec; regenerate BENCH_decode.json "
            "(clean verdict written, no comparison possible)"
        )

    fresh = bench_stream(HEADLINE_SPEC, repeats=DECODE_REPEATS)

    lines = [f"{'engine':<10}{'baseline p/s':>14}{'fresh p/s':>12}{'ratio':>8}"]
    ratios = {}
    for engine in ("scalar", "batched"):
        base_pps = base_row["decode"][engine]["pictures_per_sec"]
        fresh_pps = fresh["decode"][engine]["pictures_per_sec"]
        ratios[engine] = fresh_pps / base_pps
        lines.append(
            f"{engine:<10}{base_pps:>14.2f}{fresh_pps:>12.2f}"
            f"{ratios[engine]:>8.2f}"
        )
    record("\n".join(lines))

    floor = 1.0 - ALLOWED_REGRESSION
    base_pps = base_row["decode"]["batched"]["pictures_per_sec"]
    measured_pps = fresh["decode"]["batched"]["pictures_per_sec"]
    floor_pps = floor * base_pps
    same_platform = baseline.get("platform") == platform.platform()
    # Effective-core identity matters as much as platform identity:
    # a baseline recorded with a different affinity mask (container
    # resize, taskset) is not comparable wall-clock.  Old baselines
    # without the field are treated as same-machine.
    base_cores = baseline.get("cpu_affinity")
    same_cores = base_cores is None or base_cores == _cores()
    verdict = {
        "stream": HEADLINE_SPEC.name,
        "engine": "batched",
        "baseline_pps": base_pps,
        "measured_pps": measured_pps,
        "floor_pps": floor_pps,
        "ratio": ratios["batched"],
        "allowed_regression": ALLOWED_REGRESSION,
        "same_platform": same_platform,
        "baseline_cpu_affinity": base_cores,
        "cpu_affinity": _cores(),
        "verdict": (
            "informational"
            if not (same_platform and same_cores)
            else ("pass" if measured_pps >= floor_pps else "fail")
        ),
    }
    _write_verdict(verdict)

    if not same_platform:
        pytest.skip(
            "baseline recorded on a different platform "
            f"({baseline.get('platform')!r}); wall-clock comparison "
            "is informational only (measured "
            f"{measured_pps:.2f} p/s vs baseline {base_pps:.2f} p/s)"
        )
    if not same_cores:
        pytest.skip(
            f"baseline recorded with {base_cores} effective core(s), "
            f"this run has {_cores()}; wall-clock comparison is "
            "informational only (measured "
            f"{measured_pps:.2f} p/s vs baseline {base_pps:.2f} p/s)"
        )

    if measured_pps < floor_pps:
        # Don't just say "slower" — say *which stage*.  One traced
        # decode pass, aggregated by span name, lands in the failure
        # message, the -s output, and the persisted verdict.
        table = _diagnose_regression("batched", base_row, record)
        verdict["stage_breakdown"] = True
        _write_verdict(verdict)
        raise AssertionError(
            f"batched decode regressed: measured {measured_pps:.2f} "
            f"pictures/s vs floor {floor_pps:.2f} pictures/s "
            f"(baseline {base_pps:.2f} p/s x {floor:.2f} allowed; "
            f"ratio {ratios['batched']:.2f}x) — see {VERDICT_PATH} and "
            f"investigate before re-committing BENCH_decode.json\n{table}"
        )
    # The batched engine must also still beat scalar by a wide margin.
    scalar_pps = fresh["decode"]["scalar"]["pictures_per_sec"]
    if not measured_pps > 2.0 * scalar_pps:
        table = _diagnose_regression("batched", base_row, record)
        raise AssertionError(
            f"batched engine no longer beats scalar 2x: batched "
            f"{measured_pps:.2f} p/s vs scalar {scalar_pps:.2f} p/s "
            f"(floor {2.0 * scalar_pps:.2f} p/s)\n{table}"
        )

