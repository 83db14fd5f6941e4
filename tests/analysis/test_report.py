"""Report rendering helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    TextTable,
    ascii_series,
    comparison_table,
    doubling_ratios,
    format_bytes,
)
from repro.parallel.profile import profile_stream, tile_profile


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable(["name", "value"], title="T")
        t.add_row("a", 1)
        t.add_row("longer", 123.456)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len({len(l) for l in lines[2:]}) == 1  # equal widths

    def test_row_width_checked(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_float_formatting(self):
        t = TextTable(["x"])
        t.add_row(0.12345)
        assert "0.1234" in t.render() or "0.1235" in t.render()


class TestSeriesHelpers:
    def test_ascii_series_scales_bars(self):
        out = ascii_series([(1, 1.0), (2, 2.0)], width=10, label="s")
        lines = out.splitlines()
        assert lines[0] == "s"
        assert lines[2].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty_series(self):
        assert "(no data)" in ascii_series([], label="x")

    def test_doubling_ratios(self):
        series = {16: 0.8, 32: 0.4, 64: 0.2}
        assert doubling_ratios(series) == pytest.approx([2.0, 2.0])

    def test_comparison_table_ratio(self):
        out = comparison_table("t", [("case", 10.0, 5.0)])
        assert "0.50x" in out

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(2048) == "2.0KB"
        assert format_bytes(3 * 1024**2) == "3.0MB"


class TestSliceGopsAndSynthesize:
    def test_slice_gops_drops_warmup(self, medium_stream):
        from repro.parallel.profile import slice_gops

        profile = profile_stream(medium_stream)
        trimmed = slice_gops(profile, 1)
        assert len(trimmed.gops) == len(profile.gops) - 1
        assert trimmed.gops[0].index == 0
        indices = sorted(
            p.display_index for g in trimmed.gops for p in g.pictures
        )
        assert indices == list(range(trimmed.picture_count))
        assert trimmed.total_bytes == sum(g.wire_bytes for g in trimmed.gops)

    def test_slice_gops_empty_range_rejected(self, medium_stream):
        from repro.parallel.profile import slice_gops

        profile = profile_stream(medium_stream)
        with pytest.raises(ValueError):
            slice_gops(profile, 5)

    def test_synthesize_profile_structure(self, medium_stream):
        from repro.mpeg2.constants import PictureType
        from repro.parallel.profile import synthesize_profile

        base = profile_stream(medium_stream)
        out = synthesize_profile(base, gop_size=31, gops=3)
        assert len(out.gops) == 3
        assert out.picture_count == 93
        for gop in out.gops:
            types = [p.picture_type for p in gop.pictures]
            assert types[0] is PictureType.I
            assert types.count(PictureType.P) == 10
            assert types.count(PictureType.B) == 20
        indices = sorted(
            p.display_index for g in out.gops for p in g.pictures
        )
        assert indices == list(range(93))

    def test_synthesize_profile_reuses_measured_work(self, medium_stream):
        from repro.parallel.profile import synthesize_profile

        base = profile_stream(medium_stream)
        out = synthesize_profile(base, gop_size=13, gops=2)
        measured_bits = {
            p.total_counters().bits for g in base.gops for p in g.pictures
        }
        for g in out.gops:
            for p in g.pictures:
                assert p.total_counters().bits in measured_bits

    def test_synthesize_simulates(self, medium_stream):
        from repro.parallel import GopLevelDecoder, ParallelConfig
        from repro.parallel.profile import synthesize_profile
        from repro.smp import challenge

        base = profile_stream(medium_stream)
        out = synthesize_profile(base, gop_size=4, gops=12)
        result = GopLevelDecoder(out).run(
            ParallelConfig(workers=4, machine=challenge(6))
        )
        assert len(result.display_times) == 48


class TestTileProfile:
    def test_tiling_scales_counts(self, medium_stream):
        profile = profile_stream(medium_stream)
        tiled = tile_profile(profile, 3)
        assert tiled.picture_count == 3 * profile.picture_count
        assert len(tiled.gops) == 3 * len(tiled.gops) // 3
        assert tiled.total_bytes == 3 * profile.total_bytes
        assert tiled.total_counters().bits == 3 * profile.total_counters().bits

    def test_display_indices_unique_and_dense(self, medium_stream):
        profile = profile_stream(medium_stream)
        tiled = tile_profile(profile, 4)
        indices = sorted(
            p.display_index for g in tiled.gops for p in g.pictures
        )
        assert indices == list(range(tiled.picture_count))

    def test_gop_indices_renumbered(self, medium_stream):
        profile = profile_stream(medium_stream)
        tiled = tile_profile(profile, 2)
        assert [g.index for g in tiled.gops] == list(range(len(tiled.gops)))

    def test_tiled_profile_simulates(self, medium_stream):
        from repro.parallel import GopLevelDecoder, ParallelConfig
        from repro.smp import challenge

        profile = profile_stream(medium_stream)
        tiled = tile_profile(profile, 5)  # 10 GOPs
        r4 = GopLevelDecoder(tiled).run(
            ParallelConfig(workers=4, machine=challenge(6))
        )
        r1 = GopLevelDecoder(tiled).run(
            ParallelConfig(workers=1, machine=challenge(3))
        )
        # Near-linear; short pipelines (10 GOPs) lose a little to
        # startup/drain, so allow ~3.2x at P=4.
        assert 3.2 < r4.pictures_per_second / r1.pictures_per_second <= 4.05

    def test_invalid_repeats(self, medium_stream):
        profile = profile_stream(medium_stream)
        with pytest.raises(ValueError):
            tile_profile(profile, 0)
