"""Stream profiling: per-task counters and reference relationships."""

from __future__ import annotations

import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.parallel.profile import cached_profile, profile_stream


@pytest.fixture(scope="module")
def profile(medium_stream):
    return profile_stream(medium_stream)


class TestProfileStructure:
    def test_counts(self, profile, medium_stream):
        assert profile.picture_count == 26
        assert len(profile.gops) == 2
        assert profile.gop_size == 13
        assert profile.slices_per_picture == 4  # 64/16 rows
        assert profile.slice_count == 26 * 4
        assert profile.total_bytes == len(medium_stream)
        assert profile.width == 96 and profile.height == 64

    def test_display_indices_are_global_and_unique(self, profile):
        indices = sorted(
            p.display_index for g in profile.gops for p in g.pictures
        )
        assert indices == list(range(26))

    def test_frame_bytes(self, profile):
        assert profile.frame_bytes == 96 * 64 * 3 // 2

    def test_total_counters_match_sequential_decode(
        self, profile, medium_stream
    ):
        seq_counters = WorkCounters()
        SequenceDecoder(medium_stream).decode_all(seq_counters)
        total = profile.total_counters()
        assert total.macroblocks == seq_counters.macroblocks
        assert total.idct_blocks == seq_counters.idct_blocks
        assert total.pixels == seq_counters.pixels
        assert total.coefficients == seq_counters.coefficients

    def test_per_picture_wire_bytes_sum_to_stream(
        self, profile, medium_stream
    ):
        total = sum(
            p.wire_bytes for g in profile.gops for p in g.pictures
        )
        # Remaining bytes: sequence header, GOP headers, sequence end.
        overhead = len(medium_stream) - total
        assert 8 < overhead < 200


class TestReferences:
    def test_reference_positions_coding_order(self, profile):
        gop = profile.gops[0]
        # Coding order is I P B B P B B ...
        types = [p.picture_type for p in gop.pictures]
        assert types[0] is PictureType.I
        assert types[1] is PictureType.P
        assert gop.reference_positions(0) == []
        assert gop.reference_positions(1) == [0]      # P3 <- I0
        assert gop.reference_positions(2) == [0, 1]   # B1 <- I0, P3
        assert gop.reference_positions(3) == [0, 1]   # B2 <- I0, P3
        assert gop.reference_positions(4) == [1]      # P6 <- P3

    def test_dependents_inverse_of_references(self, profile):
        gop = profile.gops[0]
        n = len(gop.pictures)
        for pos in range(n):
            for d in gop.dependents(pos):
                assert pos in gop.reference_positions(d)
        # B-pictures have no dependents.
        for pos in range(n):
            if gop.pictures[pos].picture_type is PictureType.B:
                assert gop.dependents(pos) == []


class TestProfileCache:
    def test_cache_roundtrip(self, medium_stream, tmp_path):
        p1 = cached_profile(medium_stream, "testkey", cache_dir=str(tmp_path))
        assert (tmp_path / "testkey.profile.pkl").exists()
        p2 = cached_profile(medium_stream, "testkey", cache_dir=str(tmp_path))
        assert p2.picture_count == p1.picture_count
        assert p2.total_counters().bits == p1.total_counters().bits
