#!/usr/bin/env python3
"""Real-time planner: how many processors does 30 pictures/sec take?

The paper's motivating question — can commodity shared-memory
multiprocessors decode MPEG-2 in real time, and at what sizes?  This
example sweeps worker counts for each resolution and machine type and
reports the smallest configuration that sustains the 30 pics/s display
rate, using the GOP-level and improved slice-level decoders.

Run:  python examples/realtime_planner.py
"""

from __future__ import annotations

from repro.analysis import TextTable
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.parallel import (
    GopLevelDecoder,
    ParallelConfig,
    SliceLevelDecoder,
    SliceMode,
    profile_stream,
)
from repro.parallel.profile import tile_profile
from repro.smp import challenge, dash
from repro.video.synthetic import SyntheticVideo

TARGET_FPS = 30.0
MAX_WORKERS = 14


def build_profile(width: int, height: int, pictures: int = 156):
    video = SyntheticVideo(width=width, height=height, seed=11)
    stream = encode_sequence(
        video.frames(13), EncoderConfig(gop_size=13, qscale_code=3)
    )
    base = profile_stream(stream)
    return tile_profile(base, max(pictures // 13, 1))


def workers_needed(profile, runner) -> tuple[int | None, float]:
    """Smallest worker count reaching TARGET_FPS, and the best rate."""
    best = 0.0
    for workers in range(1, MAX_WORKERS + 1):
        rate = runner(profile, workers)
        best = max(best, rate)
        if rate >= TARGET_FPS:
            return workers, rate
    return None, best


def main() -> None:
    machine = challenge(16)

    def run_gop(profile, workers):
        return (
            GopLevelDecoder(profile)
            .run(ParallelConfig(workers=workers, machine=machine))
            .pictures_per_second
        )

    def run_slice(profile, workers):
        return (
            SliceLevelDecoder(profile)
            .run(
                ParallelConfig(workers=workers, machine=machine),
                SliceMode.IMPROVED,
            )
            .pictures_per_second
        )

    table = TextTable(
        ["resolution", "GOP workers", "@ rate", "slice workers", "@ rate"],
        title=f"Workers needed for {TARGET_FPS:.0f} pics/s on a 16-proc Challenge",
    )
    for width, height in ((88, 64), (176, 120), (352, 240)):
        profile = build_profile(width, height)
        gw, gr = workers_needed(profile, run_gop)
        sw, sr = workers_needed(profile, run_slice)
        table.add_row(
            f"{width}x{height}",
            gw if gw else f">{MAX_WORKERS}",
            round(gr, 1),
            sw if sw else f">{MAX_WORKERS}",
            round(sr, 1),
        )
    print(table.render())
    print()
    print(
        "The paper's conclusion at full scale: real-time for 352x240 and\n"
        "704x480 on small SMPs; 1408x960 needs next-generation processors.\n"
        "(This example runs scaled-down clips so it finishes in seconds —\n"
        "the benchmarks regenerate the full-size Tables 3-4.)"
    )

    # NUMA variant: the same question on a DASH-like machine.
    profile = build_profile(176, 120)
    numa = TextTable(
        ["machine", "workers for 30 fps", "best rate"],
        title="Same stream, UMA vs NUMA (no data placement)",
    )
    for label, m in (("Challenge (UMA)", challenge(16)), ("DASH (NUMA)", dash(16))):
        def run(profile, workers, m=m):
            return (
                GopLevelDecoder(profile)
                .run(ParallelConfig(workers=workers, machine=m))
                .pictures_per_second
            )

        w, r = workers_needed(profile, run)
        numa.add_row(label, w if w else f">{MAX_WORKERS}", round(r, 1))
    print()
    print(numa.render())


if __name__ == "__main__":
    main()
