"""Smoke test of the benchmark harness (not part of tier-1).

    python -m pytest bench/tests -q -o addopts=""

Runs ``bench/run.py --smoke`` once — tiny clips, one pass per
workload — and checks the *shape* of what it reports against
``BENCHMARK.json``.  It asserts nothing about speed.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import compare, workloads  # noqa: E402
from bench.spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--smoke", "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        doc = json.load(fh)
    doc["summary"] = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["path"] = str(out)
    return doc


def check_metric(found: dict, declared: dict) -> None:
    name = declared["name"]
    assert NAME.match(name), name
    assert name in found, f"{name} not reported"
    assert found[name]["unit"] == declared["unit"], name
    value = found[name]["value"]
    assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def test_every_workload_reports_every_end_to_end_metric(spec, smoke):
    assert set(smoke["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload in spec["workloads"]:
        assert NAME.match(workload["name"])
        found = smoke["workloads"][workload["name"]]["end_to_end"]["metrics"]
        for declared in spec["end_to_end"]:
            check_metric(found, declared)


def test_every_per_layer_metric_is_reported(spec, smoke):
    assert smoke["probe_errors"] == {}
    for workload in spec["workloads"]:
        traced = smoke["workloads"][workload["name"]]["traced"]
        found = {**smoke["per_layer"], **traced["metrics"]}
        for declared in spec["per_layer"]:
            check_metric(found, declared)
        assert os.path.exists(traced["trace"])


def test_no_operation_failed(smoke):
    for name, entry in smoke["workloads"].items():
        for kind in ("end_to_end", "traced"):
            assert entry[kind]["attempted"] > 0
            assert entry[kind]["failed"] == 0, (name, entry[kind]["failures"])
    assert smoke["summary"]["correct"] is True
    assert smoke["summary"]["failed"] == 0


def test_stage_probe_adds_up_and_loss_is_concealed(smoke):
    layer = smoke["per_layer"]
    assert layer["mpeg2.stage_residual_frac"]["value"] <= 0.15
    assert (layer["net.slices_dropped"]["value"]
            == layer["net.slices_concealed"]["value"] > 0)


def test_seed_and_environment_are_recorded(smoke):
    assert smoke["seed"] == 3
    for key in ("nproc", "affinity", "workers", "python", "numpy", "scipy"):
        assert smoke["env"][key] is not None, key


def test_compare_accepts_a_result_against_itself(smoke, capsys):
    assert compare.main([smoke["path"], smoke["path"]]) == 0
    assert "BEYOND" not in capsys.readouterr().out


def test_compare_flags_a_regression(spec, smoke):
    worse = json.loads(json.dumps(smoke))
    for entry in worse["workloads"].values():
        entry["end_to_end"]["metrics"]["pictures_per_s"]["value"] *= 0.5
    _lines, beyond = compare.compare(smoke, worse, spec)
    assert beyond == len(spec["workloads"])


def test_span_self_time_excludes_children():
    rec = SpanRecorder("unit")
    with rec.span("bench.pass") as root:
        with rec.span("mpeg2.decode_gop", root):
            pass
    rec.spans[0][1:3] = [0, 10_000_000_000]
    rec.spans[1][1:3] = [1_000_000_000, 9_000_000_000]
    assert rec.self_seconds_by_layer() == {"bench": 2.0, "mpeg2": 8.0}
    (outer, inner) = rec.to_chrome()["traceEvents"]
    assert inner["args"]["parent"] == outer["args"]["id"]


def test_realtime_startup_and_deadline_count():
    period = workloads.PERIOD_S
    # A burst of 4 pictures at 1 s: the last is due 3 periods after the
    # first, so playback may start once the burst has arrived.
    assert workloads.realtime_startup([1.0] * 4) == 1.0
    # One picture 10 periods behind its slot holds start-up back by that.
    ready = [0.1 + k * period for k in range(5)]
    ready[3] += 10 * period
    assert workloads.realtime_startup(ready) == pytest.approx(0.1 + 10 * period)
    assert workloads.deadline_misses(ready, 6) == 2   # one late, one missing
