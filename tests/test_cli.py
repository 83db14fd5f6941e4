"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.__main__ import main


@pytest.fixture(scope="module")
def encoded_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "clip.m2v")
    rc = main(
        ["encode", path, "--width", "64", "--height", "48",
         "--frames", "13", "--gop-size", "13", "--seed", "5"]
    )
    assert rc == 0
    return path


class TestEncode:
    def test_creates_file(self, encoded_file):
        assert os.path.getsize(encoded_file) > 100

    def test_rate_controlled_encode(self, tmp_path, capsys):
        path = str(tmp_path / "rc.m2v")
        rc = main(
            ["encode", path, "--width", "48", "--height", "32",
             "--frames", "4", "--gop-size", "4", "--bit-rate", "400000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Mb/s" in out


class TestInfo:
    def test_reports_structure(self, encoded_file, capsys):
        assert main(["info", encoded_file]) == 0
        out = capsys.readouterr().out
        assert "64x48" in out
        assert "1 GOPs, 13 pictures" in out
        assert "IPBBPBBPBBPBB" in out


class TestDecode:
    def test_decode_summary(self, encoded_file, capsys):
        assert main(["decode", encoded_file]) == 0
        out = capsys.readouterr().out
        assert "decoded 13 pictures" in out

    def test_dump_pgm(self, encoded_file, tmp_path, capsys):
        dump = str(tmp_path / "frames")
        assert main(["decode", encoded_file, "--dump-dir", dump]) == 0
        files = sorted(os.listdir(dump))
        assert len(files) == 13
        with open(os.path.join(dump, files[0]), "rb") as fh:
            header = fh.read(15)
        assert header.startswith(b"P5\n64 48\n255\n")

    def test_resilient_flag(self, encoded_file, capsys):
        assert main(["decode", encoded_file, "--resilient"]) == 0

    def test_workers_zero_inprocess_fallback(self, encoded_file, capsys):
        assert main(["decode", encoded_file, "--workers", "0"]) == 0
        out = capsys.readouterr().out
        assert "in-process fallback" in out
        assert "decoded 13 pictures" in out

    def test_workers_parallel_decode(self, encoded_file, capsys):
        assert main(["decode", encoded_file, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 worker processes" in out
        assert "decoded 13 pictures" in out

    def test_trace_and_stats(self, encoded_file, tmp_path, capsys):
        """The acceptance-criteria command line, end to end."""
        import json

        from repro.obs.trace import tracing_enabled, validate_chrome_trace

        trace_path = str(tmp_path / "out.json")
        assert main(
            ["decode", encoded_file, "--workers", "2",
             "--trace", trace_path, "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "histograms" in out  # the --stats metric table
        assert "decode.picture_ms" in out
        assert "stall breakdown" in out
        with open(trace_path) as fh:
            doc = json.load(fh)
        events = validate_chrome_trace(doc)
        names = {e["name"] for e in events}
        assert "mp.scan" in names
        assert "mp.worker.decode_gop" in names
        # The CLI disables tracing after writing the file, so tracing
        # never leaks into subsequent in-process runs.
        assert not tracing_enabled()

    def test_stats_without_trace(self, encoded_file, capsys):
        assert main(["decode", encoded_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "decode.picture_ms" in out

    def test_scalar_engine_flag(self, encoded_file, capsys):
        assert main(["decode", encoded_file, "--engine", "scalar"]) == 0
        out = capsys.readouterr().out
        assert "decoded 13 pictures" in out

    def test_slice_grain_scalar_engine_rejected(self, encoded_file, capsys):
        rc = main(["decode", encoded_file, "--grain", "slice",
                   "--engine", "scalar"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'slice'" in err and "'scalar'" in err

    def test_workers_output_matches_sequential(self, encoded_file, tmp_path, capsys):
        seq_dir = str(tmp_path / "seq")
        par_dir = str(tmp_path / "par")
        assert main(["decode", encoded_file, "--dump-dir", seq_dir]) == 0
        assert main(["decode", encoded_file, "--workers", "2",
                     "--dump-dir", par_dir]) == 0
        for name in sorted(os.listdir(seq_dir)):
            with open(os.path.join(seq_dir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(par_dir, name), "rb") as fh:
                b = fh.read()
            assert a == b, f"{name} differs between sequential and parallel"


class TestSimulate:
    @pytest.mark.parametrize(
        "decoder", ["gop", "slice-simple", "slice-improved", "macroblock"]
    )
    def test_each_decoder_runs(self, encoded_file, capsys, decoder):
        rc = main(
            ["simulate", encoded_file, "--decoder", decoder,
             "--workers", "2", "--repeat", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pictures/second" in out

    def test_paced_simulation_reports_lateness(self, encoded_file, capsys):
        rc = main(
            ["simulate", encoded_file, "--decoder", "slice-improved",
             "--workers", "2", "--rate", "30", "--preroll", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "late pictures" in out

    def test_simulate_stats_prints_stall_breakdown(self, encoded_file, capsys):
        rc = main(
            ["simulate", encoded_file, "--decoder", "gop",
             "--workers", "4", "--repeat", "2", "--stats"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stall breakdown" in out
        assert "queue.get" in out

    def test_dash_machine(self, encoded_file, capsys):
        rc = main(
            ["simulate", encoded_file, "--machine", "dash",
             "--processors", "8", "--workers", "4"]
        )
        assert rc == 0
        assert "dash" in capsys.readouterr().out
