"""obs_report CLI: single-file report, --merged waterfall, failures.

Driven entirely from the committed miniature fixtures in
``tests/analysis/fixtures/`` (regenerate with ``make_fixtures.py``),
so the CLI paths are covered without a live decode.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.obs_report import (
    load_trace,
    main,
    render_merged_report,
    render_report,
    scan_summary,
    span_totals,
    stall_breakdown,
    utilization,
)
from repro.obs.trace import disable_tracing, enable_tracing, get_tracer, to_chrome
from repro.parallel.mp import MPGopDecoder
from repro.parallel.mp_slice import MPSliceDecoder

from tests.mpeg2.test_golden_vectors import load_vector
from tests.parallel.test_mp_slice_parity import tile_gops

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SOLO = os.path.join(FIXTURES, "solo_trace.json")
SERVER = os.path.join(FIXTURES, "server_shard.json")
CLIENT = os.path.join(FIXTURES, "client_shard.json")


class TestAnalysis:
    def test_span_totals_from_fixture(self):
        totals = span_totals(load_trace(SOLO))
        assert totals["decode.picture"]["count"] == 3
        assert totals["decode.picture"]["total_ms"] == pytest.approx(18.0)

    def test_utilization_from_fixture(self):
        util = utilization(load_trace(SOLO))
        (rec,) = util.values()
        assert rec["busy_ms"] == pytest.approx(18.0)
        assert rec["stall_ms"] == pytest.approx(3.0)

    def test_stall_breakdown_from_fixture(self):
        breakdown = stall_breakdown(load_trace(SOLO))
        assert set(breakdown) == {"input"}


class TestSingleFileCLI:
    def test_report_renders(self, capsys):
        assert main([SOLO]) == 0
        out = capsys.readouterr().out
        assert "span totals" in out
        assert "decode.picture" in out
        assert "per-process utilization" in out
        assert "stall breakdown" in out

    def test_render_report_is_pure(self):
        text = render_report(load_trace(SOLO))
        assert "decode worker" in text

    def test_multiple_files_without_merged_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([SERVER, CLIENT])


class TestMergedCLI:
    def test_merged_waterfall(self, capsys):
        assert main(["--merged", SERVER, CLIENT]) == 0
        out = capsys.readouterr().out
        assert "3 pictures joined" in out
        assert "clock sync" in out
        assert "e2e.wire" in out
        assert "e2e.reassemble" in out
        assert "deadline.lateness" in out

    def test_merged_writes_out_doc(self, tmp_path, capsys):
        out_path = str(tmp_path / "merged.json")
        assert main(["--merged", SERVER, CLIENT, "--out", out_path]) == 0
        with open(out_path) as fh:
            doc = json.load(fh)
        assert "baseTimeNs" in doc
        # Events from both pids made it into one document.
        pids = {e.get("pid") for e in doc["traceEvents"]}
        assert {100, 200} <= pids

    def test_clock_offset_cancelled_in_merge(self, tmp_path):
        # The client's clock runs 2ms behind; after the merge its
        # reassemble spans must land 2ms (flight time) after the wire
        # spans, not 4ms.
        out_path = str(tmp_path / "merged.json")
        main(["--merged", SERVER, CLIENT, "--out", out_path])
        with open(out_path) as fh:
            doc = json.load(fh)
        wire = sorted(
            (e for e in doc["traceEvents"] if e.get("name") == "e2e.wire"),
            key=lambda e: e["ts"],
        )
        reasm = sorted(
            (
                e for e in doc["traceEvents"]
                if e.get("name") == "e2e.reassemble"
            ),
            key=lambda e: e["ts"],
        )
        for w, r in zip(wire, reasm):
            assert r["ts"] - w["ts"] == pytest.approx(2000.0, abs=1.0)

    def test_merged_single_shard_fails_join(self, capsys):
        # A server shard alone has nothing crossing the boundary; the
        # CLI must fail loudly rather than pass vacuously.
        assert main(["--merged", SERVER]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_orphan_client_span_fails(self, tmp_path, capsys):
        # Strip one server wire span: its client picture is orphaned.
        doc = load_trace(SERVER)
        doc["traceEvents"] = [
            e for e in doc["traceEvents"]
            if not (
                e.get("name") == "e2e.wire"
                and e.get("args", {}).get("pic") == 2
            )
        ]
        broken = str(tmp_path / "server.json")
        with open(broken, "w") as fh:
            json.dump(doc, fh)
        assert main(["--merged", broken, CLIENT]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_missing_base_time_fails_with_hint(self, tmp_path, capsys):
        doc = load_trace(CLIENT)
        del doc["baseTimeNs"]
        old = str(tmp_path / "old.json")
        with open(old, "w") as fh:
            json.dump(doc, fh)
        assert main(["--merged", SERVER, old]) == 1
        assert "baseTimeNs" in capsys.readouterr().err

    def test_fixtures_match_generator(self):
        # The committed fixtures are exactly what make_fixtures.py
        # produces — regeneration is reproducible, not drift.
        import tests.analysis.fixtures.make_fixtures as gen

        assert load_trace(SOLO) == gen.solo_trace()
        assert load_trace(SERVER) == gen.server_shard()
        assert load_trace(CLIENT) == gen.client_shard()


class TestMergedRender:
    def test_render_merged_report_pure(self):
        from repro.obs.propagate import merge_traces

        doc = merge_traces([load_trace(SERVER), load_trace(CLIENT)])
        text = render_merged_report(doc)
        assert "end-to-end latency waterfall" in text
        assert "fix#0" in text


class TestScanStage:
    """The scan row, from a real traced decode of a 4-GOP stream of
    13-picture GOPs: one ``mp.scan`` span per GOP, and only the GOPs
    the first picture waits for scanned before it."""

    @pytest.mark.parametrize(
        "decoder,before",
        [
            # One GOP per (in-process) worker.
            (lambda data: MPGopDecoder(data, workers=0), 1),
            # The window (one 13-picture GOP + 1 slot) reaches GOP 1, and
            # the spare credits of 2 workers plan it while GOP 0's P
            # waits for its I.  (The one credit of workers=0 finds a
            # GOP 0 picture at every claim before picture 0.)
            (lambda data: MPSliceDecoder(data, workers=2), 2),
        ],
    )
    def test_scan_row_from_a_traced_decode(self, decoder, before):
        data = tile_gops(load_vector("ipb_64x48_gop13"), 4)
        enable_tracing(process_name="main")
        try:
            decoder(data).decode_all()
            doc = to_chrome(get_tracer().events)
        finally:
            disable_tracing()
        scan = scan_summary(doc)
        assert scan["gops"] == 4
        assert scan["before_first_picture"] == before
        assert scan["total_ms"] > 0 and scan["mb_per_s"] > 0
        text = render_report(doc)
        assert "scan stage" in text and "GOPs before first picture" in text

    def test_no_scan_spans_no_scan_row(self):
        assert scan_summary(load_trace(SOLO)) is None
        assert "scan stage" not in render_report(load_trace(SOLO))
