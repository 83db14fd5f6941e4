"""Cross-path differential matrix: the unified executor vs the oracle.

:class:`~repro.exec.executor.TaskGraphExecutor` is the single front
end every decode path now runs through, so its contract is pinned the
strongest way available: for **every** committed golden vector and
**every** ``(grain, engine, workers)`` combination, decoded pixels,
display order, and aggregate work counters must equal the sequential
scalar oracle's, and the committed *negative* vectors must be rejected
with exactly the pinned exception class.  The one cell that is not a
decode is slice grain with the scalar engine: slice grain runs only
the batched path, so that request is rejected.

The full 3x3 grain/engine matrix runs at ``workers=0`` (the
deterministic in-process fallback — cheap, and the combination logic
is identical).  Real worker processes are then exercised at 1, 2 and
4 workers on representative vectors: correctness cannot depend on
pool size (parity at any size proves the merge/ordering logic), while
running *every* combination through real fork+exec per test would buy
no additional coverage for its wall-clock cost.
"""

from __future__ import annotations

import pytest

from repro.exec import TaskGraphExecutor
from repro.mpeg2.counters import WorkCounters

GRAINS = ("gop", "slice", "auto")
ENGINES = ("scalar", "batched", "auto")

#: The matrix cells exercised through real worker processes (slice
#: grain spawns fresh workers per run, so it gets focused coverage).
REAL_WORKER_COUNTS = (1, 2, 4)


def decode_exec(data: bytes, grain: str, engine: str, workers: int, **kw):
    counters = WorkCounters()
    ex = TaskGraphExecutor(
        data, grain=grain, engine=engine, workers=workers, **kw
    )
    frames = ex.decode_all(counters)
    return ex, frames, counters


def assert_exec_parity(golden, name: str, grain: str, engine: str,
                       workers: int) -> None:
    data = golden.data(name)
    ref_frames, ref_counters = golden.scalar(name)
    ex, frames, counters = decode_exec(data, grain, engine, workers)
    assert [f.digest() for f in frames] == [f.digest() for f in ref_frames], (
        f"{name} grain={grain} engine={engine} workers={workers}: "
        f"pixels diverged from the scalar oracle"
    )
    assert [f.temporal_reference for f in frames] == [
        f.temporal_reference for f in ref_frames
    ]
    assert counters == ref_counters, (
        f"{name} grain={grain} engine={engine} workers={workers}: "
        f"work counters diverged from the scalar oracle"
    )
    # The executor's own record: the one graph it dispatched from,
    # settled with conserved counts.
    (graph,) = ex.last_graphs
    assert graph.is_settled()
    graph.verify_conservation()


class TestFullMatrixInProcess:
    """Every golden vector x every (grain, engine), in-process."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("grain", GRAINS)
    @pytest.mark.parametrize(
        "name",
        [
            "altscan_48x32_gop7",
            "intra_16x16_gop1",
            "ipb_64x48_gop13",
            "pad_40x24_gop4",
            "rc_64x48_gop4",
            "two_gop_48x32",
        ],
    )
    def test_matrix_cell(self, golden, name, grain, engine):
        if (grain, engine) == ("slice", "scalar"):
            with pytest.raises(ValueError, match="'slice'.*'scalar'"):
                TaskGraphExecutor(golden.data(name), grain=grain, engine=engine)
            return
        assert_exec_parity(golden, name, grain, engine, workers=0)

    def test_decision_reasons(self, golden):
        # Both axes pinned -> "pinned"; any auto axis -> the fixed rule,
        # which is GOP grain and the batched engine.
        data = golden.data("two_gop_48x32")
        ex = TaskGraphExecutor(data, grain="slice", engine="batched")
        assert (ex.decision.grain, ex.decision.reason) == ("slice", "pinned")
        for grain, engine in (("auto", "auto"), ("auto", "scalar"),
                              ("gop", "auto")):
            d = TaskGraphExecutor(data, grain=grain, engine=engine).decision
            assert d.grain == "gop", (grain, engine)
            assert d.engine == ("scalar" if engine == "scalar" else "batched")
            assert d.reason == "rule"


class TestRealWorkers:
    """Representative cells through real worker processes."""

    @pytest.mark.parametrize("workers", REAL_WORKER_COUNTS)
    def test_gop_grain_pool_sizes(self, golden, workers):
        assert_exec_parity(
            golden, "two_gop_48x32", "gop", "batched", workers
        )

    @pytest.mark.parametrize("workers", (1, 2))
    def test_slice_grain_real_workers(self, golden, workers):
        assert_exec_parity(
            golden, "ipb_64x48_gop13", "slice", "batched", workers
        )

    def test_auto_grain_real_workers(self, golden):
        assert_exec_parity(golden, "two_gop_48x32", "auto", "auto", 2)

    def test_auto_runs_as_one_window(self, golden, tmp_path):
        # ``auto`` is GOP grain over the whole stream: one graph, one
        # dispatch message per GOP and one ``exec.plan`` span, however
        # many GOPs the stream has.
        from repro.mpeg2.index import build_index
        from repro.obs import (
            disable_tracing,
            enable_tracing,
            get_tracer,
            metrics,
            reset_metrics,
        )

        clip = golden.data("ipb_64x48_gop13")
        gops = build_index(clip).gops
        start, end = gops[0].start_offset, gops[-1].end_offset
        data = clip[:start] + clip[start:end] * 8 + clip[end:]
        ref_frames, _ = golden.scalar("ipb_64x48_gop13")
        reset_metrics()
        enable_tracing(process_name="test")
        try:
            ex = TaskGraphExecutor(data, grain="auto", workers=2)
            frames = ex.decode_all()
            doc = get_tracer().write_chrome(str(tmp_path / "t.json"))
        finally:
            disable_tracing()
        assert [f.digest() for f in frames] == [
            f.digest() for f in ref_frames
        ] * 8
        assert len(ex.last_graphs) == 1
        assert metrics().snapshot()["counters"]["mp.dispatch.messages"] == 8
        plans = [
            e["args"] for e in doc["traceEvents"] if e.get("name") == "exec.plan"
        ]
        assert plans == [{"grain": "gop", "engine": "batched", "reason": "rule"}]

    def test_scalar_engine_real_workers(self, golden):
        assert_exec_parity(golden, "two_gop_48x32", "gop", "scalar", 2)


class TestNegativeVectors:
    """The committed hostile streams, through the executor."""

    #: The grain/engine shapes each negative runs under (full 3x3 adds
    #: nothing: the reject happens in scan or slice decode, both
    #: engine-independent).
    COMBOS = (("gop", "batched"), ("slice", "batched"), ("auto", "auto"))

    @pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "/".join(c))
    @pytest.mark.parametrize(
        "name",
        [
            "neg_fuzz010_trunc_vlc_error",
            "neg_fuzz027_splice_bitstream_error",
            "neg_open_gop_seek",
        ],
    )
    def test_error_negatives_pinned_class(self, golden, name, combo):
        grain, engine = combo
        data = golden.data(name)
        want = golden.negative[name]["error"]
        try:
            decode_exec(data, grain, engine, 0)
        except Exception as exc:
            assert type(exc).__name__ == want, (
                f"executor grain={grain} rejected {name} with "
                f"{type(exc).__name__}, pinned class is {want}"
            )
        else:
            raise AssertionError(
                f"executor grain={grain} decoded {name}, "
                f"pinned verdict is {want}"
            )

    @pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "/".join(c))
    @pytest.mark.parametrize(
        "name",
        [
            "neg_duplicated_slice",
            "neg_shuffled_slices",
            "neg_fuzz013_trunc_zero_slice",
        ],
    )
    def test_decodable_negatives_pinned_digests(self, golden, name, combo):
        grain, engine = combo
        data = golden.data(name)
        _, frames, counters = decode_exec(data, grain, engine, 0)
        assert [f.digest() for f in frames] == (
            golden.negative[name]["frame_digests"]
        ), f"executor grain={grain} diverged on {name}"
        ref = WorkCounters()
        from repro.mpeg2.decoder import SequenceDecoder

        SequenceDecoder(data, engine="scalar").decode_all(ref)
        assert counters == ref


class TestArguments:
    def test_invalid_grain_and_engine(self, golden):
        data = golden.data("two_gop_48x32")
        with pytest.raises(ValueError, match="grain"):
            TaskGraphExecutor(data, grain="bogus")
        with pytest.raises(ValueError, match="engine"):
            TaskGraphExecutor(data, engine="bogus")
        with pytest.raises(ValueError, match="workers"):
            TaskGraphExecutor(data, workers=-1)
