"""Stall attribution tests: vocabulary, table arithmetic, breakdowns."""

from __future__ import annotations

import pytest

from repro.obs.stalls import (
    CANONICAL_REASONS,
    REASON_BARRIER,
    REASON_MERGE,
    REASON_POOL_SLOT,
    REASON_REF_PUBLISH,
    REASON_QUEUE_GET,
    StallTable,
    format_stall_breakdown,
)


class TestVocabulary:
    def test_canonical_reasons_are_unique_strings(self):
        assert len(set(CANONICAL_REASONS)) == len(CANONICAL_REASONS)
        assert all(isinstance(r, str) for r in CANONICAL_REASONS)

    def test_shared_names_used_by_both_decoders(self):
        # The names the simulator and mp pipeline must agree on.
        assert REASON_QUEUE_GET in CANONICAL_REASONS
        assert REASON_MERGE in CANONICAL_REASONS
        assert REASON_POOL_SLOT in CANONICAL_REASONS
        assert REASON_BARRIER in CANONICAL_REASONS


class TestStallTable:
    def test_record_and_totals(self):
        t = StallTable()
        t.record("worker-0", REASON_QUEUE_GET, 3.0)
        t.record("worker-0", REASON_QUEUE_GET, 2.0)
        t.record("merge", REASON_MERGE, 1.0)
        assert t.total() == 6.0
        assert t.total(REASON_QUEUE_GET) == 5.0
        assert t.by_reason() == {REASON_QUEUE_GET: 5.0, REASON_MERGE: 1.0}
        assert t.waiters() == ["merge", "worker-0"]

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            StallTable().record("w", REASON_QUEUE_GET, -1.0)

    def test_empty_table_is_falsey(self):
        t = StallTable()
        assert not t
        t.record("w", REASON_QUEUE_GET, 0.0)
        assert t

    def test_snapshot_merge_roundtrip(self):
        worker = StallTable()
        worker.record("worker-1", REASON_QUEUE_GET, 2.0)
        worker.record("worker-1", REASON_QUEUE_GET, 3.0)
        parent = StallTable()
        parent.record("merge", REASON_MERGE, 1.0)
        parent.merge(worker.snapshot())
        assert parent.total() == 6.0
        snap = parent.snapshot()
        assert snap["worker-1"][REASON_QUEUE_GET] == {
            "total": 5.0, "count": 2,
        }


class TestBreakdown:
    def test_fractions_of_supplied_total(self):
        t = StallTable()
        t.record("w", REASON_QUEUE_GET, 25.0)
        t.record("w", REASON_MERGE, 25.0)
        b = t.breakdown(100.0)
        assert b == {REASON_QUEUE_GET: 0.25, REASON_MERGE: 0.25}

    def test_fractions_sum_to_at_most_one(self):
        # Even when the caller underestimates the denominator the
        # fractions must stay a valid percentage split.
        t = StallTable()
        t.record("a", REASON_QUEUE_GET, 80.0)
        t.record("b", REASON_MERGE, 70.0)
        b = t.breakdown(100.0)  # stalls sum to 150 > denominator
        assert sum(b.values()) <= 1.0 + 1e-12

    def test_fractions_never_round_above_one(self):
        # Stalls that fill the denominator: each division rounds, and
        # these four used to sum to 1.0000000000000002 (the split a
        # 2-worker slice decode reported now and then).
        t = StallTable()
        for reason, seconds in zip(
            (REASON_QUEUE_GET, REASON_MERGE, REASON_BARRIER, REASON_REF_PUBLISH),
            (0.9677999949201714, 0.3580493746949883,
             0.8916606598206824, 0.2184427269152317),
        ):
            t.record("w", reason, seconds)
        b = t.breakdown(1e-4)
        assert sum(b.values()) <= 1.0
        assert sum(b.values()) == pytest.approx(1.0)

    def test_zero_total_time(self):
        t = StallTable()
        assert t.breakdown(0.0) == {}
        t.record("w", REASON_QUEUE_GET, 0.0)
        assert t.breakdown(0.0) == {REASON_QUEUE_GET: 0.0}

    def test_negative_total_raises(self):
        with pytest.raises(ValueError):
            StallTable().breakdown(-1.0)

    def test_format_renders_percentages(self):
        t = StallTable()
        t.record("w", REASON_QUEUE_GET, 1.0)
        text = format_stall_breakdown(t.breakdown(4.0), title="test split")
        assert "test split" in text
        assert REASON_QUEUE_GET in text
        assert "25.00%" in text
