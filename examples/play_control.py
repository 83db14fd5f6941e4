#!/usr/bin/env python3
"""Play control: random-access latency under the two decompositions.

The paper's Section 5.1.1 argues that the GOP-level decomposition is
"better suited to continuous play": after a fast-forward / reverse /
channel-hop, only ONE worker decodes the landing GOP, so the video
takes a whole single-threaded decode chain to reappear — while the
slice-level decomposition puts every worker on the first picture.

This example simulates a viewing session on a 16-processor Challenge:
continuous play at three resolutions, then a series of seeks, printing
the time-to-first-picture for both decoders.

Run:  python examples/play_control.py
"""

from __future__ import annotations

from repro.analysis import TextTable
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.parallel import profile_stream
from repro.parallel.profile import tile_profile
from repro.parallel.random_access import seek_latency
from repro.video.synthetic import SyntheticVideo


def build_profile(width: int, height: int):
    video = SyntheticVideo(width=width, height=height, seed=7)
    stream = encode_sequence(video.frames(13), EncoderConfig(gop_size=13, qscale_code=3))
    profile = profile_stream(stream)
    return tile_profile(profile, 8)  # an 8-GOP clip to seek around in


def main() -> None:
    workers = 14
    table = TextTable(
        ["resolution", "GOP-level ms", "slice-level ms", "slice advantage"],
        title=f"Seek-to-display latency, {workers} workers (simulated Challenge)",
    )
    for width, height in ((176, 120), (352, 240)):
        profile = build_profile(width, height)
        lat = seek_latency(profile, gop_index=4, workers=workers)
        table.add_row(
            f"{width}x{height}",
            round(lat.gop_level * 1e3, 1),
            round(lat.slice_level * 1e3, 1),
            f"{lat.advantage:.1f}x",
        )
    print(table.render())
    print()

    # The advantage grows with the worker count — the GOP version's
    # seek path is inherently single-threaded.
    profile = build_profile(176, 120)
    sweep = TextTable(
        ["workers", "GOP-level ms", "slice-level ms"],
        title="Latency vs worker count (176x120)",
    )
    for p in (1, 2, 4, 8, 14):
        lat = seek_latency(profile, gop_index=4, workers=p)
        sweep.add_row(p, round(lat.gop_level * 1e3, 1), round(lat.slice_level * 1e3, 1))
    print(sweep.render())
    print()
    print(
        "Note how the GOP column never improves with more workers: after a\n"
        "seek, one processor decodes the landing GOP alone (paper 5.1.1),\n"
        "while the slice decomposition parallelises the first picture itself."
    )


if __name__ == "__main__":
    main()
