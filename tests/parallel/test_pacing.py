"""Real-time paced display: deadlines, lateness, memory backpressure."""

from __future__ import annotations

import pytest

from repro.parallel import (
    GopLevelDecoder,
    ParallelConfig,
    SliceLevelDecoder,
    SliceMode,
    profile_stream,
)
from repro.parallel.pacing import Pacer
from repro.parallel.profile import tile_profile
from repro.parallel.simrun import SimRun
from repro.smp import CHALLENGE, challenge


@pytest.fixture(scope="module")
def profile(medium_stream):
    p = profile_stream(medium_stream)
    return tile_profile(p, 4)  # 8 GOPs, 104 pictures


def cfg(workers, rate=None):
    return ParallelConfig(
        workers=workers, machine=challenge(16), display_rate_hz=rate
    )


#: The simulator's clock: integer machine cycles.
PERIOD = CHALLENGE.cycles(1 / 30)


class TestDisplayPacer:
    def test_disabled_pacer_never_sleeps(self):
        pacer = Pacer(None)
        assert not pacer.enabled
        assert pacer.on_emit(0, 100) == 0
        assert pacer.on_emit(1, 5) == 0
        # Never anchored, so the display process never waits on it.
        assert pacer.t0 is None
        assert pacer.late_pictures == 0

    def test_first_picture_sets_epoch(self):
        pacer = Pacer(PERIOD)
        assert pacer.on_emit(0, 1000) == 0
        assert pacer.t0 == 1000

    def test_early_picture_sleeps_to_deadline(self):
        pacer = Pacer(PERIOD)
        pacer.on_emit(0, 0)
        assert pacer.on_emit(1, PERIOD // 2) == 0
        assert pacer.deadline(1) == PERIOD
        assert pacer.deadline(3) == 3 * PERIOD
        assert pacer.late_pictures == 0

    def test_late_picture_counted(self):
        pacer = Pacer(PERIOD)
        pacer.on_emit(0, 0)
        assert pacer.on_emit(1, PERIOD + 500) == 500
        assert pacer.late_pictures == 1
        assert pacer.max_lateness == 500

    def test_period_from_rate(self, profile):
        run = SimRun(profile, cfg(1, rate=30.0))
        assert run.pacer.period == CHALLENGE.cycles(1 / 30)
        assert isinstance(run.pacer.period, int)

    def test_period_requires_rate(self):
        with pytest.raises(ValueError):
            Pacer(None).deadline(0)


class TestPacedRuns:
    @pytest.mark.parametrize("decoder_kind", ["gop", "slice"])
    def test_fast_decode_meets_deadlines(self, profile, decoder_kind):
        """Tiny 96x64 pictures decode far above 30/s: no late pictures,
        and display times are spaced at (at least) the period."""
        config = cfg(4, rate=30.0)
        if decoder_kind == "gop":
            result = GopLevelDecoder(profile).run(config)
        else:
            result = SliceLevelDecoder(profile).run(config, SliceMode.IMPROVED)
        assert result.met_realtime
        assert result.late_pictures == 0
        period = CHALLENGE.cycles(1 / 30)
        gaps = [
            b - a for a, b in zip(result.display_times, result.display_times[1:])
        ]
        assert min(gaps) >= period * 0.99
        # Paced playback of 104 pictures at 30/s takes ~3.4 s.
        assert result.finish_seconds > 103 / 30

    def test_unpaced_run_is_faster_than_paced(self, profile):
        free = GopLevelDecoder(profile).run(cfg(4))
        paced = GopLevelDecoder(profile).run(cfg(4, rate=30.0))
        assert free.finish_cycles < paced.finish_cycles
        assert free.late_pictures == 0  # field unused without pacing

    def test_impossible_rate_reports_lateness(self, profile):
        """At an absurd display rate a single worker must miss
        deadlines, and the lateness is reported."""
        result = GopLevelDecoder(profile).run(cfg(1, rate=100_000.0))
        assert not result.met_realtime
        assert result.late_pictures > 0
        assert result.max_lateness_cycles > 0
        assert result.max_lateness_seconds > 0

    def test_paced_gop_memory_grows_against_display(self, profile):
        """When decode outruns a paced display, the GOP decoder's
        decoded-frame backlog grows — the real-time face of Fig. 8."""
        free = GopLevelDecoder(profile).run(cfg(6))
        paced = GopLevelDecoder(profile).run(cfg(6, rate=30.0))
        assert paced.memory.peak("frames") > free.memory.peak("frames")

    def test_startup_latency_reported(self, profile):
        result = SliceLevelDecoder(profile).run(
            cfg(4, rate=30.0), SliceMode.IMPROVED
        )
        assert result.startup_cycles > 0
        assert result.startup_seconds < 1.0
