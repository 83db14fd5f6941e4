"""Bounded-frame-pool GOP decoding: the fix for the Fig. 8/9 blow-up."""

from __future__ import annotations

import pytest

from repro.parallel import GopLevelDecoder, ParallelConfig, profile_stream
from repro.parallel.profile import tile_profile
from repro.smp import challenge


@pytest.fixture(scope="module")
def profile(medium_stream):
    p = profile_stream(medium_stream)
    return tile_profile(p, 8)  # 16 GOPs, 208 pictures


def cfg(workers, cap=None):
    return ParallelConfig(
        workers=workers, machine=challenge(16), max_frames_in_flight=cap
    )


class TestBoundedPool:
    def test_cap_validated(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=1, max_frames_in_flight=0)

    def test_memory_respects_cap(self, profile):
        cap = 20
        result = GopLevelDecoder(profile).run(cfg(6, cap))
        # The front-GOP exemption can exceed the cap by at most one
        # GOP's worth of frames.
        limit = (cap + profile.gop_size) * profile.frame_bytes
        assert result.memory.peak("frames") <= limit
        assert len(result.display_times) == profile.picture_count

    def test_bounded_uses_less_memory_than_unbounded(self, profile):
        unbounded = GopLevelDecoder(profile).run(cfg(6))
        bounded = GopLevelDecoder(profile).run(cfg(6, cap=16))
        assert bounded.memory.peak("frames") < unbounded.memory.peak("frames")

    def test_throughput_tradeoff_is_graceful(self, profile):
        """A cap of ~workers x GOP size costs little; a tight cap
        serialises toward single-worker speed but never deadlocks."""
        free = GopLevelDecoder(profile).run(cfg(6)).pictures_per_second
        roomy = GopLevelDecoder(profile).run(
            cfg(6, cap=6 * profile.gop_size)
        ).pictures_per_second
        tight = GopLevelDecoder(profile).run(cfg(6, cap=2)).pictures_per_second
        assert roomy > 0.9 * free
        assert 0 < tight < roomy

    @pytest.mark.parametrize("cap", [1, 2, 5, 13])
    def test_no_deadlock_at_any_cap(self, profile, cap):
        result = GopLevelDecoder(profile).run(cfg(8, cap))
        assert len(result.display_times) == profile.picture_count
        assert result.display_times == sorted(result.display_times)

    def test_no_leak(self, profile):
        result = GopLevelDecoder(profile).run(cfg(4, cap=8))
        assert result.memory.final_usage().get("frames", 0) == 0
