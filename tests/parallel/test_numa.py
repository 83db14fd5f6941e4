"""NUMA placement + task stealing (the Section 7.2 proposal)."""

from __future__ import annotations

import pytest

from repro.parallel import GopLevelDecoder, ParallelConfig, profile_stream
from repro.parallel.numa import PlacedGopDecoder, PlacementPolicy
from repro.parallel.profile import tile_profile
from repro.smp import challenge, dash


@pytest.fixture(scope="module")
def profile(medium_stream):
    p = profile_stream(medium_stream)
    return tile_profile(p, 24)  # 48 GOPs: >= 4 tasks per worker


def numa_cfg(workers, procs=None):
    return ParallelConfig(workers=workers, machine=dash((procs or workers) + 2))


class TestPlacedDecoder:
    def test_requires_numa_machine(self, profile):
        with pytest.raises(ValueError, match="NUMA"):
            PlacedGopDecoder(profile).run(
                ParallelConfig(workers=2, machine=challenge(4))
            )

    def test_all_pictures_displayed_in_order(self, profile):
        result = PlacedGopDecoder(profile).run(numa_cfg(8))
        assert len(result.display_times) == profile.picture_count
        assert result.display_times == sorted(result.display_times)

    def test_round_robin_placement(self, profile):
        result = PlacedGopDecoder(profile).run(numa_cfg(8))
        placement = result.placement
        clusters = dash(10).processors // dash(10).cluster_size
        for gop_index, cluster in placement.items():
            assert cluster == gop_index % clusters

    def test_no_memory_leak(self, profile):
        result = PlacedGopDecoder(profile).run(numa_cfg(8))
        final = result.memory.final_usage()
        assert final.get("frames", 0) == 0
        assert final.get("stream", 0) == 0

    def test_placement_beats_no_placement(self, profile):
        """The point of the proposal: placed decode outruns the naive
        no-placement decode on the same NUMA machine."""
        naive = GopLevelDecoder(profile).run(numa_cfg(12))
        placed = PlacedGopDecoder(profile).run(numa_cfg(12))
        assert placed.pictures_per_second > naive.pictures_per_second * 1.08

    def test_stealing_balances_uneven_clusters(self, profile):
        """With all workers in one cluster but GOPs spread round-robin,
        most tasks must be stolen — and all work still completes."""
        machine = dash(6, cluster_size=2)  # 3 clusters, workers 0..1 in c0
        result = PlacedGopDecoder(profile).run(
            ParallelConfig(workers=2, machine=machine)
        )
        assert len(result.display_times) == profile.picture_count
        # GOPs placed in clusters 1 and 2 (two thirds) had to be stolen.
        assert result.stolen_tasks >= len(profile.gops) // 2

    def test_stealing_cost_visible(self, profile):
        """A run forced to steal everything is slower than a local one."""
        expensive = PlacementPolicy(
            local_remote_fraction=0.1, stolen_remote_fraction=0.9
        )
        machine = dash(6, cluster_size=2)
        all_stolen = PlacedGopDecoder(profile, expensive).run(
            ParallelConfig(workers=2, machine=machine)
        )
        balanced = PlacedGopDecoder(profile, expensive).run(
            ParallelConfig(workers=2, machine=dash(4, cluster_size=2))
        )
        # Same worker count; the 2-cluster machine places half the GOPs
        # at home, the 3-cluster run steals two thirds.
        assert all_stolen.stolen_tasks > balanced.stolen_tasks

    def test_deterministic(self, profile):
        a = PlacedGopDecoder(profile).run(numa_cfg(8))
        b = PlacedGopDecoder(profile).run(numa_cfg(8))
        assert a.finish_cycles == b.finish_cycles
        assert a.stolen_tasks == b.stolen_tasks
