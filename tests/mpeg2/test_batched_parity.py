"""Bit-exact parity of the batched decode engine against the scalar oracle.

The two-phase fast path (:mod:`repro.mpeg2.batched`) must be
indistinguishable from the per-macroblock scalar decoder in every
observable way: decoded pixels, per-slice and aggregate work counters,
and error behaviour (both strict raising and ``resilient=True``
concealment).  Every assertion here is an exact equality — no PSNR
thresholds, no sampling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpeg2.batched import SliceParse, parse_slice
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import ENGINES, SequenceDecoder
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.parallel.profile import profile_stream
from repro.video.streams import build_stream, paper_stream_matrix
from repro.video.synthetic import SyntheticVideo

from tests.mpeg2.test_resilience import corrupt_slice


def _decode(data: bytes, engine: str, resilient: bool = False):
    dec = SequenceDecoder(data, resilient=resilient, engine=engine)
    counters = WorkCounters()
    frames = dec.decode_all(counters)
    return frames, counters


def assert_frames_identical(frames_a, frames_b):
    assert len(frames_a) == len(frames_b)
    for i, (a, b) in enumerate(zip(frames_a, frames_b)):
        for plane in ("y", "cb", "cr"):
            pa, pb = getattr(a, plane), getattr(b, plane)
            assert np.array_equal(pa, pb), (
                f"frame {i} plane {plane}: engines diverge "
                f"({np.count_nonzero(pa != pb)} pixels differ)"
            )


def assert_stream_parity(data: bytes):
    """Full cross-engine check: frames and aggregate counters equal."""
    frames_s, counters_s = _decode(data, "scalar")
    frames_b, counters_b = _decode(data, "batched")
    assert_frames_identical(frames_s, frames_b)
    assert counters_s == counters_b


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("scalar", "batched")

    def test_unknown_engine_rejected(self, small_stream):
        with pytest.raises(ValueError, match="engine"):
            SequenceDecoder(small_stream, engine="bogus")

    def test_default_engine_is_batched(self, small_stream):
        assert SequenceDecoder(small_stream).engine == "batched"


class TestBasicParity:
    """I/P/B parity on the shared session streams."""

    def test_small_stream(self, small_stream):
        assert_stream_parity(small_stream)

    def test_two_gop_stream(self, two_gop_stream):
        assert_stream_parity(two_gop_stream)

    def test_medium_stream(self, medium_stream):
        assert_stream_parity(medium_stream)

    def test_per_slice_counters_identical(self, small_stream):
        """Slice-granular counters feed the paper's simulations; the
        batched engine must report the exact same per-slice work."""
        prof_s, frames_s = profile_stream(
            small_stream, keep_frames=True, engine="scalar"
        )
        prof_b, frames_b = profile_stream(
            small_stream, keep_frames=True, engine="batched"
        )
        assert_frames_identical(frames_s, frames_b)
        for gs, gb in zip(prof_s.gops, prof_b.gops):
            for ps, pb in zip(gs.pictures, gb.pictures):
                assert len(ps.slices) == len(pb.slices)
                for ss, sb in zip(ps.slices, pb.slices):
                    assert ss.vertical_position == sb.vertical_position
                    assert ss.counters == sb.counters


class TestResolutionMatrix:
    """All four Table 1 resolutions (scaled 1/4 to keep the suite fast)."""

    @pytest.mark.parametrize(
        "spec",
        paper_stream_matrix(pictures=4, resolution_divisor=4, gop_sizes=(4,)),
        ids=lambda s: s.name,
    )
    def test_table1_resolution_parity(self, spec):
        data = build_stream(spec)
        assert_stream_parity(data)
        # The coefficient stream is packed bytes, never a list of ints.
        dec = SequenceDecoder(data)
        pic = dec.index.gops[0].pictures[0]
        sl = pic.slices[0]
        sp = parse_slice(
            dec.slice_payload(sl), sl.vertical_position, pic.header(),
            dec.index.mb_width, dec.index.mb_height, False,
        )
        assert type(sp.coef_packed) is bytearray
        # ... and phase 1 hands over flat buffers alone: no Python list.
        assert type(sp.records) is bytearray
        assert not [
            name for name in SliceParse.__slots__
            if isinstance(getattr(sp, name), list)
        ]


class TestAlternateScan:
    def test_alternate_scan_parity(self):
        frames = SyntheticVideo(width=48, height=32, seed=21).frames(7)
        data = encode_sequence(
            frames,
            EncoderConfig(gop_size=7, qscale_code=4, alternate_scan=True),
        )
        assert_stream_parity(data)


class TestResilientParity:
    """Concealment must conceal the same rows with the same pixels."""

    def _assert_resilient_parity(self, data: bytes):
        frames_s, counters_s = _decode(data, "scalar", resilient=True)
        frames_b, counters_b = _decode(data, "batched", resilient=True)
        assert counters_s.concealed_slices >= 1
        assert_frames_identical(frames_s, frames_b)
        assert counters_s == counters_b

    def test_corrupt_p_slice(self, small_stream):
        self._assert_resilient_parity(
            corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        )

    def test_corrupt_first_i_slice(self, small_stream):
        # No forward reference: concealment falls back to grey fill.
        self._assert_resilient_parity(
            corrupt_slice(small_stream, gop=0, pic=0, sl=0)
        )

    def test_corrupt_b_slice(self, small_stream):
        self._assert_resilient_parity(
            corrupt_slice(small_stream, gop=0, pic=2, sl=2)
        )

    def test_multiple_corruptions(self, small_stream):
        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        data = corrupt_slice(data, gop=0, pic=1, sl=0)
        data = corrupt_slice(data, gop=0, pic=6, sl=2)
        self._assert_resilient_parity(data)

    def test_strict_batched_raises(self, small_stream):
        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        with pytest.raises(Exception):
            _decode(data, "batched")


class TestPropertyParity:
    """Parity over randomly-seeded encodes (random content and motion)."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        qscale=st.integers(min_value=2, max_value=16),
    )
    def test_random_streams(self, seed: int, qscale: int):
        frames = SyntheticVideo(width=32, height=32, seed=seed).frames(7)
        data = encode_sequence(
            frames, EncoderConfig(gop_size=7, ip_distance=3, qscale_code=qscale)
        )
        assert_stream_parity(data)
