"""Render utilization and stall reports from a Chrome trace file.

The paper's Figs. 5-7 are per-process execution timelines with the
busy/stall/synchronisation split measured by pixie/prof and source
instrumentation.  This module reproduces that analysis from a trace
written by ``python -m repro decode ... --trace out.json``:

* **span totals** — total wall milliseconds per span name (Table 2's
  "where does decode time go", but measured, not modelled);
* **per-process utilization** — for each pid, the union of its
  non-stall span intervals divided by the trace's wall span (the
  paper's processor-utilization plots);
* **stall breakdown** — ``cat == "stall"`` events grouped by their
  canonical reason (``args.reason``, :mod:`repro.obs.stalls`
  vocabulary), as a fraction of aggregate process time — directly
  comparable with the simulator's ``DecodeRunResult.stall_breakdown``
  and the mp pipeline's ``MPGopDecoder.stall_breakdown``.

PR-8 adds ``--merged``: given the *server* trace shard first and any
number of client shards after it, the shards are joined onto the
server's clock (:func:`repro.obs.propagate.merge_traces`, using each
client's recorded ``clock.sync`` offset), every client picture is
validated against its matching server send
(:func:`~repro.obs.propagate.validate_joins`), and the end-to-end
latency waterfall — ``decode → pace → wire → reassemble → conceal →
deadline lateness`` — is printed per stage.  A join failure (a client
picture with no matching server span) exits nonzero, which is what the
CI ``live`` job's net-serve run gates on.

Usage::

    python -m repro.analysis.obs_report out.json
    python -m repro.analysis.obs_report --merged server.json client*.json

Exported timestamps/durations are microseconds (Chrome trace format),
rebased so the earliest event is at 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from repro.analysis.report import TextTable
from repro.obs.propagate import (
    TraceJoinError,
    clock_syncs,
    merge_traces,
    sessions_in,
    validate_joins,
    waterfall,
)
from repro.obs.stalls import format_stall_breakdown
from repro.obs.trace import validate_chrome_trace


def load_trace(path: str) -> dict:
    """Load and validate a Chrome trace-event JSON document."""
    with open(path) as fh:
        doc = json.load(fh)
    validate_chrome_trace(doc)
    return doc


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------
def complete_events(doc: dict) -> list[dict]:
    """All ``ph == "X"`` (complete) events in the trace."""
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def span_totals(doc: dict) -> dict[str, dict]:
    """Aggregate complete events by name: count, total/mean ms."""
    totals: dict[str, dict] = {}
    for e in complete_events(doc):
        rec = totals.setdefault(e["name"], {"count": 0, "total_us": 0.0})
        rec["count"] += 1
        rec["total_us"] += e.get("dur", 0)
    for rec in totals.values():
        rec["total_ms"] = rec["total_us"] / 1e3
        rec["mean_ms"] = rec["total_ms"] / rec["count"]
        del rec["total_us"]
    return totals


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    covered += cur_end - cur_start
    return covered


def process_names(doc: dict) -> dict[int, str]:
    """pid -> process_name from the trace's metadata events."""
    names: dict[int, str] = {}
    for e in doc["traceEvents"]:
        if e.get("ph") == "M" and e.get("name") == "process_name":
            names[e["pid"]] = e.get("args", {}).get("name", str(e["pid"]))
    return names


def utilization(doc: dict) -> dict[int, dict]:
    """Per-pid busy fraction over the trace's wall span.

    Busy time is the interval union of each pid's non-stall complete
    events (nested spans don't double-count); the wall span is the
    whole trace's extent, so a worker that joins late or idles early
    shows correspondingly lower utilization — exactly the effect the
    paper's Fig. 5 timelines visualise for the scan/display bottleneck.
    """
    events = complete_events(doc)
    if not events:
        return {}
    wall_start = min(e["ts"] for e in events)
    wall_end = max(e["ts"] + e.get("dur", 0) for e in events)
    wall = max(wall_end - wall_start, 1e-9)
    by_pid: dict[int, list[tuple[float, float]]] = defaultdict(list)
    stall_by_pid: dict[int, float] = defaultdict(float)
    for e in events:
        if e.get("cat") == "stall":
            stall_by_pid[e["pid"]] += e.get("dur", 0)
        else:
            by_pid[e["pid"]].append((e["ts"], e["ts"] + e.get("dur", 0)))
    out: dict[int, dict] = {}
    # Include pids that only emitted metadata (fully idle workers on
    # streams with fewer GOPs than workers): they show 0% utilization.
    all_pids = set(by_pid) | set(stall_by_pid) | set(process_names(doc))
    for pid in sorted(all_pids):
        busy = _union_length(by_pid.get(pid, []))
        out[pid] = {
            "busy_ms": busy / 1e3,
            "stall_ms": stall_by_pid.get(pid, 0.0) / 1e3,
            "wall_ms": wall / 1e3,
            "busy_fraction": busy / wall,
        }
    return out


def stall_breakdown(doc: dict) -> dict[str, float]:
    """Fraction of aggregate process time blocked, per canonical reason.

    Groups ``cat == "stall"`` complete events by ``args.reason``
    (falling back to the event name), with denominator
    ``wall span x number of pids`` — the trace-file analogue of the
    simulator's ``finish_cycles x processes`` and the mp pipeline's
    ``wall seconds x processes`` denominators.
    """
    events = complete_events(doc)
    if not events:
        return {}
    wall_start = min(e["ts"] for e in events)
    wall_end = max(e["ts"] + e.get("dur", 0) for e in events)
    pids = {e["pid"] for e in events}
    denominator = (wall_end - wall_start) * len(pids)
    by_reason: dict[str, float] = defaultdict(float)
    for e in events:
        if e.get("cat") != "stall":
            continue
        reason = e.get("args", {}).get("reason", e["name"])
        by_reason[reason] += e.get("dur", 0)
    total_stall = sum(by_reason.values())
    denominator = max(denominator, total_stall, 1e-9)
    return {r: v / denominator for r, v in sorted(by_reason.items())}


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(min(max(fraction, 0.0), 1.0) * width))
    return "#" * filled + "." * (width - filled)


def render_report(doc: dict) -> str:
    """The full three-table report as one string."""
    sections: list[str] = []

    totals = span_totals(doc)
    table = TextTable(
        ["span", "count", "total ms", "mean ms"], title="span totals"
    )
    for name in sorted(totals, key=lambda n: -totals[n]["total_ms"]):
        rec = totals[name]
        table.add_row(
            name, rec["count"],
            round(rec["total_ms"], 3), round(rec["mean_ms"], 3),
        )
    sections.append(table.render())

    names = process_names(doc)
    util = utilization(doc)
    table = TextTable(
        ["process", "busy ms", "stall ms", "busy %", ""],
        title="per-process utilization",
    )
    for pid, rec in util.items():
        table.add_row(
            names.get(pid, str(pid)),
            round(rec["busy_ms"], 2),
            round(rec["stall_ms"], 2),
            f"{rec['busy_fraction'] * 100:.1f}%",
            _bar(rec["busy_fraction"]),
        )
    sections.append(table.render())

    breakdown = stall_breakdown(doc)
    if breakdown:
        sections.append(
            format_stall_breakdown(
                breakdown, title="stall breakdown (% of process time)"
            )
        )
    else:
        sections.append("stall breakdown: no stall events recorded")

    return "\n\n".join(sections)


def render_merged_report(doc: dict) -> str:
    """Join summary + clock-sync bounds + end-to-end waterfall table."""
    sections: list[str] = []

    stats = validate_joins(doc)
    sections.append(
        "merged trace: {joined} pictures joined across the socket "
        "boundary ({client} client spans, {server} server spans; "
        "server pids {spids}, client pids {cpids}; sessions: "
        "{sessions})".format(
            joined=stats["joined"],
            client=stats["client_spans"],
            server=stats["server_spans"],
            spids=sorted(stats["server_pids"]),
            cpids=sorted(stats["client_pids"]),
            sessions=", ".join(str(s) for s in sessions_in(doc)) or "-",
        )
    )

    syncs = clock_syncs(doc)
    if syncs:
        table = TextTable(
            ["session", "offset ms", "rtt ms", "error bound ms"],
            title="clock sync (per client shard)",
        )
        for sync in syncs:
            table.add_row(
                sync.get("session", "-"),
                round(sync["offset_ns"] / 1e6, 3),
                round(sync["rtt_ns"] / 1e6, 3),
                round(sync["error_bound_ns"] / 1e6, 3),
            )
        sections.append(table.render())

    stages = waterfall(doc)
    table = TextTable(
        ["stage", "count", "mean ms", "p50 ms", "p99 ms", "max ms"],
        title="end-to-end latency waterfall (parse→display deadline)",
    )
    for stage, rec in stages.items():
        table.add_row(
            stage, rec["count"],
            round(rec["mean_ms"], 3), round(rec["p50_ms"], 3),
            round(rec["p99_ms"], 3), round(rec["max_ms"], 3),
        )
    sections.append(table.render())

    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.obs_report",
        description="Per-worker utilization and stall report from a "
        "--trace Chrome trace file",
    )
    parser.add_argument(
        "trace", nargs="+",
        help="trace JSON written by --trace (with --merged: the server "
        "shard first, then client shards)",
    )
    parser.add_argument(
        "--merged", action="store_true",
        help="merge server + client shards onto the server clock, "
        "validate cross-boundary joins, print the e2e waterfall",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="with --merged: also write the merged Chrome trace here",
    )
    args = parser.parse_args(argv)
    if not args.merged and len(args.trace) > 1:
        parser.error("multiple trace files require --merged")

    if args.merged:
        docs = [load_trace(path) for path in args.trace]
        try:
            doc = merge_traces(docs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(doc, fh)
        print(
            "merged {n} shard(s): {events} events".format(
                n=len(docs), events=len(doc["traceEvents"])
            )
        )
        print()
        try:
            print(render_merged_report(doc))
        except TraceJoinError as exc:
            print(f"join validation FAILED: {exc}", file=sys.stderr)
            return 1
        return 0

    doc = load_trace(args.trace[0])
    print(f"{args.trace[0]}: {len(doc['traceEvents'])} events")
    print()
    print(render_report(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
