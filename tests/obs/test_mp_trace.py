"""mp pipeline tracing: shard merge, timeline consistency, stats.

The acceptance-path test: a real 2-process decode with tracing on must
produce one merged Chrome trace containing the parent's scan/merge
spans and both workers' decode spans, with monotonically consistent
timestamps, and the stall breakdown must be a valid percentage split.
"""

from __future__ import annotations

from repro.mpeg2.counters import WorkCounters
from repro.obs.metrics import metrics, reset_metrics
from repro.obs.stalls import CANONICAL_REASONS
from repro.obs.trace import (
    disable_tracing,
    enable_tracing,
    get_tracer,
    to_chrome,
    validate_chrome_trace,
)
from repro.parallel.mp import MPGopDecoder


def _traced_mp_decode(data: bytes, workers: int = 2):
    """Decode with tracing enabled; returns (decoder, chrome doc)."""
    enable_tracing(process_name="main (scan+merge)")
    reset_metrics()
    try:
        counters = WorkCounters()
        decoder = MPGopDecoder(data, workers=workers)
        frames = decoder.decode_all(counters)
        doc = to_chrome(get_tracer().events)
    finally:
        disable_tracing()
    return decoder, frames, doc


class TestMergedTimeline:
    def test_trace_has_scan_workers_and_merge(self, two_gop_stream):
        decoder, _, doc = _traced_mp_decode(two_gop_stream, workers=2)
        events = validate_chrome_trace(doc)
        names = {e["name"] for e in events}
        assert "mp.scan" in names
        assert "mp.worker.decode_gop" in names
        # GOP tasks decode straight into their pool slots: no copy.
        assert "mp.shm.write" not in names
        assert "mp.shm.read" in names
        assert "mp.result.wait" in names  # parent-side merge wait

        parent_pid = {e["pid"] for e in events if e["name"] == "mp.scan"}
        worker_pids = {
            e["pid"]
            for e in events
            if e["name"] in ("mp.worker.decode_gop", "mp.worker.start")
        } - parent_pid
        assert len(worker_pids) >= 2, (
            f"expected spans from >= 2 worker processes, got {worker_pids}"
        )

    def test_merged_timestamps_monotonic_and_rebased(self, two_gop_stream):
        _, _, doc = _traced_mp_decode(two_gop_stream, workers=2)
        ts = [e["ts"] for e in doc["traceEvents"]]
        assert ts == sorted(ts)
        non_meta = [
            e["ts"] for e in doc["traceEvents"] if e.get("ph") != "M"
        ]
        assert min(non_meta) == 0  # rebased to the earliest event

    def test_worker_spans_fall_inside_parent_wall_window(
        self, two_gop_stream
    ):
        """monotonic_ns is system-wide: worker spans can't time-travel."""
        _, _, doc = _traced_mp_decode(two_gop_stream, workers=2)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        wall_end = max(e["ts"] + e.get("dur", 0) for e in events)
        for e in events:
            assert e["ts"] >= 0
            assert e["ts"] <= wall_end

    def test_frames_identical_to_sequential(self, two_gop_stream):
        from repro.mpeg2.decoder import SequenceDecoder

        from tests.mpeg2.test_batched_parity import assert_frames_identical

        _, frames, _ = _traced_mp_decode(two_gop_stream, workers=2)
        expected = SequenceDecoder(two_gop_stream).decode_all()
        assert_frames_identical(expected, frames)


class TestStatsAndStalls:
    def test_worker_metrics_fold_into_parent_registry(self, two_gop_stream):
        _traced_mp_decode(two_gop_stream, workers=2)
        # _traced_mp_decode resets the registry *before* decoding, so
        # anything present afterwards came from the run (workers ship
        # per-task snapshots that merge into the parent's registry).
        snap = metrics().snapshot()
        assert snap["histograms"]["decode.picture_ms"]["count"] == 8
        assert snap["histograms"]["decode.gop_ms"]["count"] == 2
        assert "mp.frame_pool.occupancy" in snap["gauges"]
        reset_metrics()

    def test_stall_breakdown_is_valid_percentage_split(self, two_gop_stream):
        decoder, _, _ = _traced_mp_decode(two_gop_stream, workers=2)
        breakdown = decoder.stall_breakdown()
        assert breakdown, "a real 2-worker run records at least one stall"
        assert sum(breakdown.values()) <= 1.0 + 1e-12
        assert all(0.0 <= v for v in breakdown.values())
        assert set(breakdown) <= set(CANONICAL_REASONS)

    def test_obs_report_renders_from_trace_file(
        self, two_gop_stream, tmp_path
    ):
        from repro.analysis.obs_report import (
            load_trace,
            render_report,
            span_totals,
            stall_breakdown,
            utilization,
        )

        enable_tracing(process_name="main (scan+merge)")
        try:
            MPGopDecoder(two_gop_stream, workers=2).decode_all()
            path = tmp_path / "trace.json"
            get_tracer().write_chrome(str(path))
        finally:
            disable_tracing()

        doc = load_trace(str(path))
        totals = span_totals(doc)
        assert totals["mp.worker.decode_gop"]["count"] == 2
        util = utilization(doc)
        assert len(util) >= 3  # parent + 2 workers
        assert all(0.0 <= u["busy_fraction"] <= 1.0 for u in util.values())
        trace_split = stall_breakdown(doc)
        assert sum(trace_split.values()) <= 1.0 + 1e-12
        report = render_report(doc)
        assert "per-process utilization" in report
        assert "span totals" in report
