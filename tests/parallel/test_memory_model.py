"""Analytical memory model (Fig. 9) vs the simulator's measured usage."""

from __future__ import annotations

import pytest

from repro.parallel import GopLevelDecoder, MemoryModel, ParallelConfig, profile_stream
from repro.smp import CHALLENGE, challenge
from repro.smp.machine import MachineConfig


@pytest.fixture(scope="module")
def profile(medium_stream):
    p = profile_stream(medium_stream)
    return p


class TestModelVsSimulation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_within_tolerance_of_measured(self, profile, workers):
        """The paper validates its model against measured behaviour;
        we require the predicted peak within 40% of the simulator's."""
        model = MemoryModel.from_profile(profile, workers)
        result = GopLevelDecoder(profile).run(
            ParallelConfig(workers=workers, machine=challenge(workers + 2))
        )
        measured = result.memory.peak()
        predicted = model.peak_bytes()
        assert predicted == pytest.approx(measured, rel=0.40)

    def test_finish_time_close_to_simulation(self, profile):
        model = MemoryModel.from_profile(profile, 2)
        result = GopLevelDecoder(profile).run(
            ParallelConfig(workers=2, machine=challenge(4))
        )
        assert model.finish_cycles() == pytest.approx(
            result.finish_cycles, rel=0.25
        )


class TestModelShape:
    def test_memory_is_scan_plus_frames(self, profile):
        model = MemoryModel.from_profile(profile, 2)
        for t in (0.0, model.finish_cycles() / 2, model.finish_cycles()):
            assert model.memory_bytes(t) == pytest.approx(
                model.scan_bytes(t) + model.frames_bytes(t)
            )

    def test_zero_at_start_and_end(self, profile):
        model = MemoryModel.from_profile(profile, 2)
        assert model.memory_bytes(0.0) == pytest.approx(0.0, abs=1e4)
        assert model.frames_bytes(model.finish_cycles() + 1) == pytest.approx(0.0)
        assert model.scan_bytes(model.finish_cycles() + 1) == pytest.approx(0.0)

    def test_peak_grows_with_workers(self, profile):
        """Fig. 8/9: memory grows (roughly linearly) with P."""
        peaks = [
            MemoryModel.from_profile(profile, p).peak_bytes() for p in (1, 2)
        ]
        assert peaks[1] > peaks[0]

    def test_curve_is_sampled_over_run(self, profile):
        model = MemoryModel.from_profile(profile, 2)
        curve = model.curve(points=50)
        assert len(curve) == 50
        assert curve[0][0] == 0.0
        assert curve[-1][0] == pytest.approx(model.finish_cycles())
        assert max(m for _, m in curve) <= model.peak_bytes() * 1.01


class TestFeasibility:
    def test_paper_infeasible_case(self):
        """Fig. 9's third case: 1408x960, 31 pictures/GOP, 11 workers
        exceeds the Challenge's 500 MB programme memory."""
        from repro.mpeg2.frame import frame_bytes

        model = MemoryModel(
            gop_count=36,          # 1120 pictures / 31
            gop_size=31,
            gop_bytes=45e6 / 36,   # Table 2: 45 MB file
            frame_bytes=frame_bytes(1408, 960),
            workers=11,
            scan_bytes_per_cycle=1 / 33.0,
            picture_cycles=287e6 * 1.2,  # Table 3 + stalls
        )
        assert not model.fits(CHALLENGE)
        # Back-of-envelope: ~P x GOP x frame ~ 690 MB.
        assert model.steady_state_frames() > 500 * 1024 * 1024

    def test_moderate_case_fits(self):
        from repro.mpeg2.frame import frame_bytes

        model = MemoryModel(
            gop_count=86,
            gop_size=13,
            gop_bytes=25e6 / 86,
            frame_bytes=frame_bytes(352, 240),
            workers=11,
            scan_bytes_per_cycle=1 / 33.0,
            picture_cycles=30e6 * 1.2,
        )
        assert model.fits(CHALLENGE)

    def test_memory_grows_with_resolution_and_gop_size(self):
        from repro.mpeg2.frame import frame_bytes

        def peak(w, h, gop_size):
            return MemoryModel(
                gop_count=12,
                gop_size=gop_size,
                gop_bytes=300_000,
                frame_bytes=frame_bytes(w, h),
                workers=6,
                scan_bytes_per_cycle=1 / 33.0,
                picture_cycles=30e6,
            ).peak_bytes()

        assert peak(704, 480, 13) > peak(352, 240, 13)
        assert peak(352, 240, 31) >= peak(352, 240, 13) * 0.9
