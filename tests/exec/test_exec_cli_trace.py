"""The executor end to end through the CLI: traced, on real workers.

A traced ``decode --grain auto`` or ``--grain slice`` run conserves its
task accounting, and a slice-grain run records one fused
``decode.reconstruct`` span per dispatched batch; at either grain the
worker-run nodes of the graph it dispatched from are the messages it
sent; and at GOP grain the parent hands GOP 0 over picture
by picture while GOP 0 is still decoding, reading each picture out of
the slot its task decoded it into (no worker-side copy: no
``mp.shm.write`` span).
"""

from __future__ import annotations

import json
import os

from repro.__main__ import main
from repro.exec import TaskGraphExecutor
from repro.mpeg2.index import build_index
from repro.obs import metrics, reset_metrics

from tests.conftest import VECTOR_DIR

VECTOR = os.path.join(VECTOR_DIR, "ipb_64x48_gop13.m2v")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_auto_grain_decode_accounts_every_task(tmp_path, no_shm_leak):
    for flags in (
        ["--grain", "auto", "--engine", "auto"],
        ["--grain", "slice", "--barrier", "improved"],
    ):
        trace = tmp_path / f"{flags[1]}-trace.json"
        reset_metrics()
        assert main([
            "decode", VECTOR, *flags, "--workers", "2",
            "--trace", str(trace), "--stats",
        ]) == 0
        counters = metrics().snapshot()["counters"]
        assert counters["exec.tasks.planned"] == (
            counters["exec.tasks.dispatched"]
            + counters.get("exec.tasks.cancelled", 0)
        ), (flags, counters)
    # The slice run reconstructs each dispatched batch of slices in
    # one fused call: a span per batch, none per macroblock row.
    events = json.loads(trace.read_text())["traceEvents"]
    fused = [e["args"] for e in events if e.get("name") == "decode.reconstruct"]
    assert fused, "no decode.reconstruct spans recorded"
    for args in fused:
        assert args["slices"] >= 1 and "row" not in args, args
    # The graph is the dispatcher: at either grain the worker-run nodes
    # it dispatched are what the messages carried — a GOP's pictures
    # as one chain per message, a slice batch one node per message.
    data = _read(VECTOR)
    for grain in ("gop", "slice"):
        reset_metrics()
        ex = TaskGraphExecutor(data, grain=grain, workers=2)
        ex.decode_all()
        counters = metrics().snapshot()["counters"]
        graphs = ex.last_graphs
        assert counters["exec.tasks.dispatched"] == sum(
            g.dispatched for g in graphs
        ), (grain, counters)
        sent = sum(
            len({
                n.gop if grain == "gop" else n.tid
                for n in g.nodes.values() if n.kind != "publish"
            })
            for g in graphs
        )
        assert counters["mp.dispatch.messages"] == sent, (grain, counters)
        if grain == "gop":
            assert sent == len(ex.index.gops)
            assert counters["exec.tasks.dispatched"] == ex.index.picture_count


def test_gop_grain_hands_over_picture_by_picture(tmp_path, no_shm_leak):
    # GOP grain streams: on 8 GOPs one dispatch message each, one shm
    # read per run handed over, and the parent reads GOP 0's first
    # picture out of the frame window while GOP 0 decodes.
    clip = _read(VECTOR)
    gops = build_index(clip).gops
    start, end = gops[0].start_offset, gops[-1].end_offset
    gop8 = tmp_path / "gop8.m2v"
    gop8.write_bytes(clip[:start] + clip[start:end] * 8 + clip[end:])
    trace = tmp_path / "exec-gop-trace.json"
    reset_metrics()
    assert main([
        "decode", str(gop8), "--grain", "gop", "--workers", "2",
        "--trace", str(trace),
    ]) == 0
    counters = metrics().snapshot()["counters"]
    assert counters["mp.dispatch.messages"] == 8, counters
    events = json.loads(trace.read_text())["traceEvents"]
    reads = [e for e in events if e.get("name") == "mp.shm.read"]
    decoded = [e for e in events if e.get("name") == "mp.worker.decode_gop"]
    assert len(decoded) == 8, len(decoded)
    pictures = sum(e["args"]["pictures"] for e in decoded)
    assert sum(e["args"]["frames"] for e in reads) == pictures, reads
    assert 8 <= len(reads) <= pictures, len(reads)
    first = min(reads, key=lambda e: e["ts"])
    (gop0,) = [e for e in decoded if e["args"]["gop"] == 0]
    assert first["args"]["gop"] == 0, first
    assert first["ts"] + first["dur"] < gop0["ts"] + gop0["dur"], (
        "GOP 0 was not handed over picture by picture"
    )
    # Each picture is decoded straight into its slot: nothing copies a
    # private frame into the pool.
    assert not [e for e in events if e.get("name") == "mp.shm.write"]
