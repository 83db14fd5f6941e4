"""Network streaming under loss: the delivered-or-concealed sweep.

The serve benchmarks ask how many sessions one pool sustains; this
harness asks whether those sessions *survive the wire*.  It runs the
real `repro.net` stack — asyncio TCP server fronting the decode
service, real client reassembly and concealment — under the in-process
impairment shim, sweeping injected slice loss {0, 1, 5, 10}% against
concurrent session counts, and writes ``BENCH_net.json`` at the repo
root:

* ``profile`` — the stream's bandwidth/burstiness shape
  (:func:`repro.analysis.bandwidth.profile_stream`), the same numbers
  the server's admission gate consumes;
* ``sweep`` — one record per (loss, sessions) point: per-client
  delivery accounting (intact / concealed / shed / abandoned), the
  per-client lateness CDF at fixed percentiles
  (:meth:`repro.parallel.pacing.Pacer.lateness_percentiles` —
  p50/p90/p99/max, a stable shape instead of the old raw knot list;
  readers accept both),
  the server's per-connection SLO snapshot (burn rate, budget spent,
  breaches), concealment rates, and the shim's own drop ledger;
* ``gates`` — the acceptance summary the pytest gate asserts.

The gate (``perf`` marker, never tier-1): at every point with **loss
<= 5%**, zero failed sessions and every announced picture delivered or
concealed (no abandoned pictures); at 5% loss the shim must actually
drop slices and the clients must actually conceal them (the sweep has
teeth).  10% loss is recorded, not gated — the paper-grade claim stops
at 5%.

Run directly (``PYTHONPATH=src python benchmarks/perf_net.py``) or via
``pytest benchmarks/perf_net.py -m perf``.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from time import perf_counter

import numpy as np
import pytest

from repro.analysis.bandwidth import profile_stream
from repro.net.client import stream_session
from repro.net.impair import ImpairmentProfile
from repro.net.server import NetServer
from repro.video.streams import TestStreamSpec, build_stream

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_net.json")

#: Injected per-slice loss probabilities (the issue's sweep).
LOSS_SWEEP = (0.0, 0.01, 0.05, 0.10)

#: Loss levels the acceptance gate applies to (<= 5%).
GATED_LOSS = 0.05

#: Concurrent client counts per loss level.
SESSION_COUNTS = (1, 2, 4)

#: Wire pacing rate.  Real-time-shaped (the lateness CDFs mean
#: something) but fast enough that the full sweep stays under a minute.
FPS = 30.0

IMPAIR_SEED = 0x10C5

#: Server pushes a live STATS frame (SLO snapshot) every N pictures, so
#: the bench exercises the telemetry path and each client's JSON block
#: carries the server-observed SLO state.
STATS_PUSH_PICTURES = 8

#: The streamed workload: IPB GOPs so temporal concealment has a
#: previous picture to borrow from and B slices actually drop.
NET_SPEC = TestStreamSpec(
    name="net/176x120/gop13x2",
    width=176,
    height=120,
    gop_size=13,
    pictures=26,
    bit_rate=1_500_000,
)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


async def _run_point(
    data: bytes, loss: float, sessions: int
) -> tuple[list, dict, float]:
    impairment = (
        ImpairmentProfile(loss=loss, seed=IMPAIR_SEED)
        if loss > 0
        else None
    )
    srv = NetServer(
        {"net": data},
        workers=0,
        fps=FPS,
        capacity=sessions,
        impairment=impairment,
        preroll_pictures=2,
        stats_push_pictures=STATS_PUSH_PICTURES,
    )
    await srv.start()
    t0 = perf_counter()
    try:
        results = await asyncio.gather(
            *[
                stream_session("127.0.0.1", srv.port, "net", timeout_s=120.0)
                for _ in range(sessions)
            ]
        )
    finally:
        wall = perf_counter() - t0
        report = await srv.aclose()
    return results, report, wall


def _point_record(loss, sessions, results, report, wall) -> dict:
    clients = []
    total_rows = 0
    concealed = 0
    for res in results:
        j = res.to_json()
        j["complete"] = res.complete
        clients.append(j)
        total_rows += sum(r.rows for r in res.receipts if not r.shed)
        concealed += res.concealed_slices
    dropped = sum(
        c.get("impair", {}).get("dropped", 0)
        for c in report["connections"]
    )
    counts = report["service"]["status_counts"]
    slo_blocks = [
        c["slo"] for c in report["connections"] if c.get("slo") is not None
    ]
    return {
        "loss": loss,
        "sessions": sessions,
        "wall_seconds": wall,
        "clients": clients,
        "all_complete": all(c["complete"] for c in clients),
        "abandoned_pictures": sum(c["abandoned"] for c in clients),
        "failed_sessions": counts.get("failed", 0),
        "status_counts": counts,
        "slices_dropped": dropped,
        "slices_concealed": concealed,
        "slices_expected": total_rows,
        "concealment_rate": concealed / total_rows if total_rows else 0.0,
        # Server-side SLO accounting, one block per connection.
        "slo": slo_blocks,
    }


def run(path: str = OUTPUT_PATH) -> dict:
    data = build_stream(NET_SPEC)
    profile = profile_stream(data, fps=FPS)
    sweep = []
    for loss in LOSS_SWEEP:
        for sessions in SESSION_COUNTS:
            results, report, wall = asyncio.run(
                _run_point(data, loss, sessions)
            )
            sweep.append(
                _point_record(loss, sessions, results, report, wall)
            )
    gated = [p for p in sweep if p["loss"] <= GATED_LOSS + 1e-9]
    at_gate = [p for p in sweep if abs(p["loss"] - GATED_LOSS) < 1e-9]
    gates = {
        "gated_loss_max": GATED_LOSS,
        "failed_sessions": sum(p["failed_sessions"] for p in gated),
        "abandoned_pictures": sum(p["abandoned_pictures"] for p in gated),
        "all_complete": all(p["all_complete"] for p in gated),
        "dropped_at_gate": sum(p["slices_dropped"] for p in at_gate),
        "concealed_at_gate": sum(p["slices_concealed"] for p in at_gate),
    }
    out = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": _cores(),
        "spec": asdict(NET_SPEC),
        "stream_bytes": len(data),
        "fps": FPS,
        "workers": 0,
        "impair_seed": IMPAIR_SEED,
        "profile": profile.to_json(),
        "sweep": sweep,
        "gates": gates,
    }
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return out


def _format_report(report: dict) -> str:
    lines = [
        f"{'loss':<7}{'sessions':<10}{'complete':<10}{'concealed':<11}"
        f"{'dropped':<9}{'conceal %':<11}{'wall s':<8}"
    ]
    for p in report["sweep"]:
        lines.append(
            f"{p['loss'] * 100:<7.0f}{p['sessions']:<10}"
            f"{str(p['all_complete']):<10}{p['slices_concealed']:<11}"
            f"{p['slices_dropped']:<9}"
            f"{p['concealment_rate'] * 100:<11.2f}{p['wall_seconds']:<8.2f}"
        )
    g = report["gates"]
    lines.append(
        f"gate (loss <= {g['gated_loss_max']:.0%}): "
        f"failed {g['failed_sessions']}, abandoned "
        f"{g['abandoned_pictures']}, all complete {g['all_complete']}, "
        f"at 5%: dropped {g['dropped_at_gate']} / concealed "
        f"{g['concealed_at_gate']}"
    )
    return "\n".join(lines)


@pytest.mark.perf
def test_perf_net(record) -> None:
    """Perf gate: delivered-or-concealed at every loss level <= 5%."""
    report = run()
    record(_format_report(report))
    g = report["gates"]
    assert g["failed_sessions"] == 0, "sessions failed under gated loss"
    assert g["abandoned_pictures"] == 0, (
        "pictures abandoned under gated loss"
    )
    assert g["all_complete"], "a client ended incomplete under gated loss"
    # The sweep has teeth: at 5% loss the shim dropped real slices and
    # the clients concealed every one of them.
    assert g["dropped_at_gate"] > 0, "5% loss dropped nothing"
    assert g["concealed_at_gate"] == g["dropped_at_gate"], (
        "dropped and concealed slice counts diverge at the gate"
    )
    # Every client recorded a lateness CDF (the per-client evidence).
    # Current records carry fixed percentiles under ``lateness_cdf``;
    # pre-PR-8 files carried raw knots under ``miss_cdf`` — accept both
    # so the gate can read an old committed BENCH_net.json.
    for p in report["sweep"]:
        for c in p["clients"]:
            cdf = c.get("lateness_cdf") or c.get("miss_cdf")
            assert cdf, "client recorded no lateness CDF"
        # The telemetry path ran: the server tracked an SLO per
        # connection and pushed live snapshots on the wire.
        assert p["slo"], "no per-connection SLO blocks recorded"
        for c in p["clients"]:
            assert c["server_stats_pushes"] > 0, "no STATS pushes seen"


if __name__ == "__main__":
    rep = run()
    print(_format_report(rep))
    print(f"wrote {OUTPUT_PATH}")
