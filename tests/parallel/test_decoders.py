"""Simulated parallel decoders: display order, speedup shapes, memory, sync.

The simulated decoders replay work counters and decode nothing; that
each decomposition emits pictures bit-identical to the sequential
decoder is proven on real processes (``test_mp_parity.py``,
``test_mp_slice_parity.py``).
"""

from __future__ import annotations

import pytest

from repro.parallel import (
    GopLevelDecoder,
    ParallelConfig,
    SliceLevelDecoder,
    SliceMode,
    profile_stream,
)
from repro.parallel.random_access import seek_latency
from repro.parallel.stats import ideal_vs_actual, load_balance, sync_ratio
from repro.smp import challenge


@pytest.fixture(scope="module")
def profile(medium_stream):
    p = profile_stream(medium_stream)
    return p


def cfg(workers, **kw):
    return ParallelConfig(workers=workers, machine=challenge(workers + 2), **kw)


class TestGopLevelCorrectness:
    def test_display_times_monotone(self, profile):
        result = GopLevelDecoder(profile).run(cfg(2))
        assert result.display_times == sorted(result.display_times)
        assert len(result.display_times) == profile.picture_count


class TestSliceLevelCorrectness:
    @pytest.mark.parametrize("mode", list(SliceMode))
    def test_display_order(self, profile, mode):
        result = SliceLevelDecoder(profile).run(cfg(4), mode)
        assert result.display_times == sorted(result.display_times)
        assert len(result.display_times) == profile.picture_count


class TestSpeedupShapes:
    def test_gop_speedup_near_linear_up_to_gop_count(self, profile):
        """With 2 GOPs, 2 workers give ~2x and more workers add nothing
        (task-count limit — the same effect the paper notes for short
        streams in Fig. 6)."""
        dec = GopLevelDecoder(profile)
        r1 = dec.run(cfg(1)).pictures_per_second
        r2 = dec.run(cfg(2)).pictures_per_second
        r4 = dec.run(cfg(4)).pictures_per_second
        assert 1.8 < r2 / r1 <= 2.05
        assert r4 == pytest.approx(r2, rel=0.02)

    def test_simple_slice_saturates_at_slices_per_picture(self, profile):
        """Fig. 11: the simple version stops scaling at slices/picture
        (4 here)."""
        dec = SliceLevelDecoder(profile)
        r4 = dec.run(cfg(4), SliceMode.SIMPLE).pictures_per_second
        r8 = dec.run(cfg(8), SliceMode.SIMPLE).pictures_per_second
        assert r8 < r4 * 1.05

    def test_improved_beats_simple_beyond_the_knee(self, profile):
        dec = SliceLevelDecoder(profile)
        simple = dec.run(cfg(8), SliceMode.SIMPLE).pictures_per_second
        improved = dec.run(cfg(8), SliceMode.IMPROVED).pictures_per_second
        assert improved > simple * 1.3

    def test_gop_fastest_at_high_worker_counts(self, medium_stream):
        """Table 4 ordering: GOP >= improved slice >= simple slice,
        given enough GOPs to keep workers busy."""
        # Need more GOPs than workers: reuse the 2-GOP medium stream at
        # P=2 where all three decoders are fully loaded.
        profile = profile_stream(medium_stream)
        g = GopLevelDecoder(profile).run(cfg(2)).pictures_per_second
        im = SliceLevelDecoder(profile).run(cfg(2), SliceMode.IMPROVED).pictures_per_second
        si = SliceLevelDecoder(profile).run(cfg(2), SliceMode.SIMPLE).pictures_per_second
        assert g > im > si

    def test_deterministic(self, profile):
        dec = SliceLevelDecoder(profile)
        a = dec.run(cfg(5), SliceMode.IMPROVED)
        b = dec.run(cfg(5), SliceMode.IMPROVED)
        assert a.finish_cycles == b.finish_cycles
        assert a.display_times == b.display_times
        assert a.worker_busy == b.worker_busy


class TestMemoryBehaviour:
    def test_gop_memory_grows_with_workers(self, profile):
        """Fig. 8: GOP-version memory grows with the worker count."""
        dec = GopLevelDecoder(profile)
        m1 = dec.run(cfg(1)).memory.peak("frames")
        m2 = dec.run(cfg(2)).memory.peak("frames")
        assert m2 > m1

    def test_slice_memory_independent_of_workers(self, profile):
        """Section 5.2: slice-version memory does not grow with P."""
        dec = SliceLevelDecoder(profile)
        peaks = [
            dec.run(cfg(p), SliceMode.SIMPLE).memory.peak("frames")
            for p in (1, 4, 8)
        ]
        assert max(peaks) <= peaks[0] * 1.5
        assert max(peaks) <= 5 * profile.frame_bytes

    def test_slice_memory_far_below_gop_memory(self, profile):
        gop = GopLevelDecoder(profile).run(cfg(2)).memory.peak("frames")
        sl = SliceLevelDecoder(profile).run(
            cfg(2), SliceMode.IMPROVED
        ).memory.peak("frames")
        assert sl < gop / 2

    def test_no_leaks(self, profile):
        result = GopLevelDecoder(profile).run(cfg(2))
        final = result.memory.final_usage()
        assert final.get("frames", 0) == 0
        assert final.get("stream", 0) == 0
        result = SliceLevelDecoder(profile).run(cfg(3), SliceMode.IMPROVED)
        final = result.memory.final_usage()
        assert final.get("frames", 0) == 0
        assert final.get("stream", 0) == 0


class TestStatsHelpers:
    def test_load_balance_fields(self, profile):
        result = GopLevelDecoder(profile).run(cfg(2))
        lo, hi, mean = load_balance(result)
        assert lo <= mean <= hi

    def test_sync_ratio_grows_with_workers_simple_slice(self, profile):
        """Fig. 12: sync/exec ratio grows with P for the simple version."""
        dec = SliceLevelDecoder(profile)
        r2 = sync_ratio(dec.run(cfg(2), SliceMode.SIMPLE))
        r8 = sync_ratio(dec.run(cfg(8), SliceMode.SIMPLE))
        assert r8 > r2

    def test_improved_sync_below_simple(self, profile):
        dec = SliceLevelDecoder(profile)
        si = sync_ratio(dec.run(cfg(6), SliceMode.SIMPLE))
        im = sync_ratio(dec.run(cfg(6), SliceMode.IMPROVED))
        assert im < si

    def test_ideal_vs_actual_in_paper_band(self, profile):
        """Fig. 7: memory stalls are 10-30% of time."""
        result = GopLevelDecoder(profile).run(cfg(2))
        ideal, actual = ideal_vs_actual(result)
        assert 1.10 <= actual / ideal <= 1.30


class TestRandomAccess:
    def test_slice_seek_faster_than_gop_seek(self, profile):
        lat = seek_latency(profile, gop_index=1, workers=4)
        assert lat.slice_level < lat.gop_level
        assert lat.advantage > 1.5

    def test_one_worker_latencies_equal(self, profile):
        lat = seek_latency(profile, gop_index=0, workers=1)
        assert lat.slice_level == pytest.approx(lat.gop_level, rel=0.01)


class TestConfigValidation:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(workers=15, machine=challenge(16))  # 15+2 > 16
