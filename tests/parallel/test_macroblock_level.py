"""Macroblock-level ablation: the serial-parser ceiling."""

from __future__ import annotations

import pytest

from repro.parallel import ParallelConfig, profile_stream
from repro.parallel.macroblock_level import (
    MacroblockLevelDecoder,
    parse_cycles,
    reconstruction_cycles,
)
from repro.parallel.profile import tile_profile
from repro.smp import DEFAULT_COST_MODEL, challenge


@pytest.fixture(scope="module")
def profile(medium_stream):
    p = profile_stream(medium_stream)
    return tile_profile(p, 4)


def cfg(workers):
    return ParallelConfig(workers=workers, machine=challenge(16))


class TestWorkSplit:
    def test_split_partitions_total(self, profile):
        c = profile.total_counters()
        total = DEFAULT_COST_MODEL.decode_cycles(c)
        assert (
            parse_cycles(DEFAULT_COST_MODEL, c)
            + reconstruction_cycles(DEFAULT_COST_MODEL, c)
            == total
        )

    def test_parse_share_substantial(self, profile):
        """The paper's premise: bitstream decode is a large share."""
        c = profile.total_counters()
        share = parse_cycles(DEFAULT_COST_MODEL, c) / DEFAULT_COST_MODEL.decode_cycles(c)
        assert 0.15 < share < 0.8


class TestCeiling:
    def test_all_pictures_display_in_order(self, profile):
        result = MacroblockLevelDecoder(profile).run(cfg(4))
        assert len(result.display_times) == profile.picture_count
        assert result.display_times == sorted(result.display_times)

    def test_speedup_saturates_at_amdahl_bound(self, profile):
        dec = MacroblockLevelDecoder(profile)
        bound = dec.amdahl_bound(DEFAULT_COST_MODEL)
        r1 = dec.run(cfg(1)).pictures_per_second
        r14 = dec.run(cfg(14)).pictures_per_second
        speedup = r14 / r1
        # The ceiling is amdahl_bound relative to a *pure serial*
        # decode; relative to the 1-worker run of the same
        # architecture it is lower still.  Must sit below the bound.
        assert speedup < bound
        r8 = dec.run(cfg(8)).pictures_per_second
        # Saturation: going 8 -> 14 workers buys almost nothing.
        assert r14 < r8 * 1.1

    def test_far_below_slice_level_at_scale(self, profile, medium_stream):
        from repro.parallel import SliceLevelDecoder, SliceMode

        mb = MacroblockLevelDecoder(profile).run(cfg(14)).pictures_per_second
        sl = SliceLevelDecoder(profile).run(
            cfg(14), SliceMode.IMPROVED
        ).pictures_per_second
        assert sl > 1.5 * mb

    def test_memory_no_leak(self, profile):
        result = MacroblockLevelDecoder(profile).run(cfg(3))
        assert result.memory.final_usage().get("frames", 0) == 0
