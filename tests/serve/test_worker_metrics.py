"""Cross-process metrics: what workers record must reach the parent.

The regression this guards: worker processes inherit the parent's
metrics registry at fork, record into their own copy, and before PR-8
those counts silently died with the worker.  Workers ship their
metrics with every result (the wire shape itself is pinned in
``tests/exec/test_worker_main.py``) and the service keeps the
per-worker sums on ``last_worker_metrics`` — so the parent's totals
must equal the sum of the workers' totals, exactly.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import metrics, reset_metrics
from repro.serve import DecodeService
from tests.parallel.test_mp_fault_injection import assert_no_stray_children

WORKER_COUNTERS = ("serve.worker.tasks", "serve.worker.pictures")


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_metrics()
    yield
    reset_metrics()


class TestShardMerge:
    def test_parent_totals_equal_worker_sums(
        self, golden, no_shm_leak, watchdog
    ):
        names = ["ipb_64x48_gop13", "two_gop_48x32"]
        svc = DecodeService(workers=2, capacity=len(names))
        for name in names:
            svc.submit(name, golden.data(name))
        report = svc.run()
        assert report["status_counts"] == {"done": len(names)}

        shards = svc.last_worker_metrics
        assert len(shards) == 2, "one metrics shard per worker"
        assert len({s["pid"] for s in shards}) == 2

        snap = metrics().snapshot()
        for name in WORKER_COUNTERS:
            worker_sum = sum(
                s["metrics"].get("counters", {}).get(name, 0)
                for s in shards
            )
            assert worker_sum > 0, f"{name} never recorded in any worker"
            assert snap["counters"].get(name) == worker_sum, name

        # Histogram observation counts merge too, not just counters.
        hist_sum = sum(
            s["metrics"]
            .get("histograms", {})
            .get("serve.worker.task_ms", {})
            .get("count", 0)
            for s in shards
        )
        assert hist_sum > 0
        assert (
            snap["histograms"]["serve.worker.task_ms"]["count"] == hist_sum
        )
        # Total pictures across workers is the sessions' picture count.
        emitted = sum(s.emitted_pictures for s in svc.sessions.values())
        assert snap["counters"]["serve.worker.pictures"] == emitted
        assert_no_stray_children()

    def test_inprocess_records_same_names(self, golden):
        # workers=0 must surface the identical metric vocabulary so
        # dashboards don't care which mode ran, and has no shards.
        svc = DecodeService(workers=0)
        svc.submit("s", golden.data("two_gop_48x32"))
        report = svc.run()
        assert report["status_counts"] == {"done": 1}
        assert svc.last_worker_metrics == []
        snap = metrics().snapshot()
        for name in WORKER_COUNTERS:
            assert snap["counters"].get(name, 0) > 0, name
        assert snap["histograms"]["serve.worker.task_ms"]["count"] > 0
        assert (
            snap["counters"]["serve.worker.pictures"]
            == svc.sessions["s"].emitted_pictures
        )

    def test_task_errors_counted_across_boundary(
        self, golden, no_shm_leak, watchdog
    ):
        # A stream that scans clean but fails mid-decode charges
        # serve.worker.task_errors in the worker; the parent must see it.
        data = bytearray(golden.data("two_gop_48x32"))
        # Corrupt a byte deep in the last GOP's slice payload so the
        # scan (headers only) passes but slice decode fails.
        data[-40] ^= 0xFF
        svc = DecodeService(workers=2)
        svc.submit("bad", bytes(data))
        svc.run()
        snap = metrics().snapshot()
        if svc.sessions["bad"].status.value == "failed":
            assert snap["counters"].get("serve.worker.task_errors", 0) > 0
        assert_no_stray_children()
