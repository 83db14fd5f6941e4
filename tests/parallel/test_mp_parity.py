"""Bit-exact parity of the real-process mp decoder vs the sequential one.

Mirrors ``tests/mpeg2/test_batched_parity.py``: the GOP-parallel
decoder (:mod:`repro.parallel.mp`) must be indistinguishable from
``SequenceDecoder.decode_all`` in every observable — decoded pixels,
display order, aggregate work counters, and ``resilient=True``
concealment — across worker counts, the Table 1 resolutions, and
hypothesis-random encodes.  Frames cross a process boundary through
the shared-memory frame pool, so these tests also pin the pool's
layout round-trip.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import build_index
from repro.exec.plan import plan_gop_graph
from repro.exec.shm import FrameLayout, SharedFramePool
from repro.parallel.merge import DisplayMerger
from repro.parallel.mp import MPGopDecoder
from repro.video.streams import build_stream, paper_stream_matrix
from repro.video.synthetic import SyntheticVideo

from tests.mpeg2.test_batched_parity import assert_frames_identical
from tests.mpeg2.test_resilience import corrupt_slice

#: Worker counts exercised on every stream: the in-process fallback and
#: a real 2-process pool (real pools of any size behave identically on
#: correctness; size only matters for wall-clock, measured under perf).
WORKER_COUNTS = (0, 2)


def _sequential(data: bytes, resilient: bool = False):
    counters = WorkCounters()
    frames = SequenceDecoder(data, resilient=resilient).decode_all(counters)
    return frames, counters


def _parallel(data: bytes, workers: int, resilient: bool = False):
    counters = WorkCounters()
    frames = MPGopDecoder(data, workers=workers, resilient=resilient).decode_all(
        counters
    )
    return frames, counters


def assert_mp_parity(data: bytes, workers: int, resilient: bool = False):
    frames_s, counters_s = _sequential(data, resilient)
    frames_p, counters_p = _parallel(data, workers, resilient)
    assert_frames_identical(frames_s, frames_p)
    assert [f.temporal_reference for f in frames_s] == [
        f.temporal_reference for f in frames_p
    ]
    assert counters_s == counters_p


class TestScanStep:
    """The scan products: GOP byte ranges and one-GOP index views."""

    def test_gop_ranges_are_contiguous_and_ordered(self, two_gop_stream):
        index = build_index(two_gop_stream)
        ranges = [(g.start_offset, g.end_offset) for g in index.gops]
        assert len(ranges) == 2
        for (s0, e0), (s1, e1) in zip(ranges, ranges[1:]):
            assert s0 < e0 <= s1 < e1
        # Last GOP ends at the stream tail bar the sequence end code.
        assert ranges[-1][1] <= len(two_gop_stream)

    def test_substream_decodes_standalone(self, two_gop_stream):
        index = build_index(two_gop_stream)
        whole = SequenceDecoder(two_gop_stream).decode_all()
        for gi, gop in enumerate(index.gops):
            # One GOP of the stream is the stream's own bytes and an
            # index restricted to that GOP — no copy, no second scan.
            view = replace(index, gops=[gop])
            frames = SequenceDecoder(two_gop_stream, index=view).decode_all()
            assert len(frames) == len(gop.pictures)
            offset = sum(len(g.pictures) for g in index.gops[:gi])
            assert_frames_identical(whole[offset : offset + len(frames)], frames)

    def test_tasks_cover_every_picture_once(self, medium_stream):
        # One node per picture, in coding order, each carrying its
        # GOP's task: one per GOP, in stream order.
        index = build_index(medium_stream)
        nodes = list(plan_gop_graph(index).nodes.values())
        assert [n.tid for n in nodes] == list(range(index.picture_count))
        tasks = list({id(n.payload): n.payload for n in nodes}.values())
        assert [t.gop for t in tasks] == list(range(len(index.gops)))
        assert [t.index for t in tasks] == index.gops
        assert [n.gop for n in nodes] == [
            t.gop for t in tasks for _ in t.index.pictures
        ]


class TestSharedFramePool:
    def test_frame_roundtrip_through_shared_memory(self):
        layout = FrameLayout.for_display(40, 24)
        pool = SharedFramePool(layout, slots=3)
        try:
            rng = np.random.default_rng(0)
            frames = []
            for slot in range(3):
                f = Frame.blank(40, 24)
                f.y[:, :] = rng.integers(0, 256, f.y.shape, dtype=np.uint8)
                f.cb[:, :] = rng.integers(0, 256, f.cb.shape, dtype=np.uint8)
                f.cr[:, :] = rng.integers(0, 256, f.cr.shape, dtype=np.uint8)
                f.temporal_reference = slot
                pool.write_frame(slot, f)
                frames.append(f)
            for slot, f in enumerate(frames):
                got = pool.read_frame(slot, f.temporal_reference)
                assert got.temporal_reference == slot
                assert np.array_equal(got.y, f.y)
                assert np.array_equal(got.cb, f.cb)
                assert np.array_equal(got.cr, f.cr)
                assert (got.display_width, got.display_height) == (40, 24)
        finally:
            pool.close()
            pool.unlink()

    def test_slot_bytes_is_420(self):
        # 1.5 bytes/coded pixel — the frames(x) unit of the paper's
        # memory model, now allocated for real in shared memory.
        layout = FrameLayout.for_display(64, 48)
        assert layout.slot_bytes == 64 * 48 * 3 // 2
        layout = FrameLayout.for_display(40, 24)  # pads to 48x32 coded
        assert layout.slot_bytes == 48 * 32 * 3 // 2


class TestDisplayMerge:
    def test_out_of_order_completions_are_reordered(self):
        # The GOP decoder merges pictures by display index on the shared
        # reorder buffer: a later GOP's pictures (display 4, 5) wait for
        # the earlier GOP's, which land in coding order (I0 P3 B1 B2).
        merger = DisplayMerger(6)
        merged = [
            key
            for display, key in ((4, "g1.I"), (0, "I0"), (5, "g1.B"),
                                 (3, "P3"), (1, "B1"), (2, "B2"))
            for key in merger.push(display, key)
        ]
        assert merged == ["I0", "B1", "B2", "P3", "g1.I", "g1.B"]
        merger.finish("pictures")

    def test_lost_gop_raises(self):
        merger = DisplayMerger(3)
        for display in (0, 2):
            merger.push(display, display)
        with pytest.raises(RuntimeError, match=r"lost pictures: \[1\]"):
            merger.finish("pictures")


class TestBasicParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_small_stream(self, small_stream, workers):
        assert_mp_parity(small_stream, workers)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_two_gop_stream(self, two_gop_stream, workers):
        assert_mp_parity(two_gop_stream, workers)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_medium_stream(self, medium_stream, workers):
        assert_mp_parity(medium_stream, workers)

    def test_more_workers_than_gops(self, two_gop_stream):
        # Worker count is capped at the GOP count; output unchanged.
        assert_mp_parity(two_gop_stream, workers=8)

    def test_scalar_engine_workers(self, two_gop_stream):
        ref, _ = _sequential(two_gop_stream)
        got = MPGopDecoder(two_gop_stream, workers=2, engine="scalar").decode_all()
        assert_frames_identical(ref, got)

    def test_invalid_arguments(self, small_stream):
        with pytest.raises(ValueError, match="engine"):
            MPGopDecoder(small_stream, engine="bogus")
        with pytest.raises(ValueError, match="workers"):
            MPGopDecoder(small_stream, workers=-1)


class TestResolutionMatrix:
    """All four Table 1 resolutions, two GOPs each (scaled 1/4)."""

    @pytest.mark.parametrize(
        "spec",
        paper_stream_matrix(pictures=8, resolution_divisor=4, gop_sizes=(4,)),
        ids=lambda s: s.name,
    )
    def test_table1_resolution_parity(self, spec):
        data = build_stream(spec)
        assert_mp_parity(data, workers=0)
        assert_mp_parity(data, workers=2)


class TestResilientParity:
    """Concealment inside a worker == concealment in-sequence."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_corrupt_p_slice(self, small_stream, workers):
        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        frames_s, counters_s = _sequential(data, resilient=True)
        assert counters_s.concealed_slices >= 1
        assert_mp_parity(data, workers, resilient=True)

    def test_corrupt_slice_in_second_gop(self, medium_stream):
        data = corrupt_slice(medium_stream, gop=1, pic=2, sl=1)
        assert_mp_parity(data, workers=2, resilient=True)

    def test_strict_mode_raises_across_processes(self, small_stream):
        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        with pytest.raises(Exception):
            MPGopDecoder(data, workers=2).decode_all()


class TestPropertyParity:
    """Parity over randomly-seeded multi-GOP encodes."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        qscale=st.integers(min_value=2, max_value=16),
    )
    def test_random_streams(self, seed: int, qscale: int):
        frames = SyntheticVideo(width=32, height=32, seed=seed).frames(8)
        data = encode_sequence(
            frames, EncoderConfig(gop_size=4, ip_distance=3, qscale_code=qscale)
        )
        assert_mp_parity(data, workers=0)

    def test_one_random_stream_through_real_workers(self):
        frames = SyntheticVideo(width=32, height=32, seed=424242).frames(12)
        data = encode_sequence(
            frames, EncoderConfig(gop_size=4, ip_distance=3, qscale_code=5)
        )
        assert_mp_parity(data, workers=3)
