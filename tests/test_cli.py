"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
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


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--frames", "10", "--gop-size", "4"], "whole number"),
            (["--frames", "0"], "empty sequence"),
            (["--qscale", "32"], "qscale_code out of range"),
            (["--width", "8", "--height", "8"], "at least 16x16"),
        ],
        ids=["frames-not-whole-gops", "no-frames", "qscale-out-of-range", "frame-too-small"],
    )
    def test_usage_error_exits_2_without_output(self, tmp_path, capsys, flags, message):
        path = tmp_path / "bad.m2v"
        assert main(["encode", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("encode: ") and message in err
        assert not path.exists()

    def test_internal_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        from repro.mpeg2 import encoder

        def broken(frames, config):
            raise ValueError("internal encoder fault")

        monkeypatch.setattr(encoder, "encode_sequence", broken)
        path = tmp_path / "out.m2v"
        with pytest.raises(ValueError, match="internal encoder fault"):
            main(["encode", str(path), "--width", "32", "--height", "32",
                  "--frames", "4", "--gop-size", "4"])
        assert not path.exists()


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

    def test_traced_worker_run_exits_clean(self, tmp_path):
        """In its own interpreter, so the warm workers meet the sentinel
        at exit, long after the run's trace shards were merged: no
        worker may trace into the run's removed shard directory then,
        and none of the run's worker events may be lost."""
        import subprocess
        import sys

        import repro

        vector = os.path.join(
            os.path.dirname(__file__), "vectors", "ipb_64x48_gop13.m2v"
        )
        trace_path = str(tmp_path / "t.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)),
             env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "decode", vector,
             "--workers", "2", "--trace", trace_path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        with open(trace_path) as fh:
            events = json.load(fh)["traceEvents"]
        workers = {
            e["pid"]: e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["args"]["name"].startswith("worker-")
        }
        # The stream is one GOP: worker-1 runs no task, so its only
        # event is the start instant it flushes when the run ends.
        assert sorted(workers.values()) == ["worker-0", "worker-1"]
        for pid in workers:
            assert any(e["pid"] == pid and e["ph"] != "M" for e in events)

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

    def test_seek_rate_dump_diffs_against_linear(self, tmp_path, capsys):
        # Fast-forward from picture 15 of two 13-picture GOPs joins at
        # GOP 1 and dumps its I/P pictures under their own display
        # indices: each file is the linear decode's file of that name.
        clip = str(tmp_path / "two_gop.m2v")
        assert main(["encode", clip, "--width", "48", "--height", "32",
                     "--frames", "26", "--gop-size", "13"]) == 0
        linear_dir = str(tmp_path / "linear")
        ff_dir = str(tmp_path / "ff")
        assert main(["decode", clip, "--dump-dir", linear_dir]) == 0
        assert main(["decode", clip, "--seek", "15", "--rate", "2",
                     "--dump-dir", ff_dir]) == 0
        assert "display indices 13..25" in capsys.readouterr().out
        names = sorted(os.listdir(ff_dir))
        assert names == [f"frame{i:04d}.pgm" for i in (13, 16, 19, 22, 25)]
        for name in names:
            with open(os.path.join(linear_dir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(ff_dir, name), "rb") as fh:
                assert fh.read() == a, name


class TestServe:
    def test_weighted_streams_with_repeated_names(self, encoded_file, tmp_path, capsys):
        report = str(tmp_path / "r.json")
        rc = main(["serve", "--streams", encoded_file, f"{encoded_file}=2.5",
                   "--workers", "0", "--capacity", "2", "--report", report])
        assert rc == 0
        with open(report) as fh:
            sessions = json.load(fh)["sessions"]
        assert [(s["session"], s["weight"], s["status"]) for s in sessions] == [
            ("clip", 1.0, "done"), ("clip#2", 2.5, "done"),
        ]

    @pytest.mark.parametrize("weight", ["abc", "0", "-1", "nan", ""])
    def test_bad_weight_is_a_usage_error(self, encoded_file, capsys, weight):
        rc = main(["serve", "--streams", f"{encoded_file}={weight}",
                   "--workers", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("serve: ") and "weight" in captured.err
        assert captured.out == ""

    def test_trace_written_once(self, encoded_file, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        assert main(["serve", "--streams", encoded_file, "--workers", "0",
                     "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert out.count(f"trace events to {trace}") == 1
        assert os.path.getsize(trace) > 0


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
