#!/usr/bin/env python3
"""Quickstart: encode a clip, decode it three ways, compare.

Demonstrates the full public API in one run:

1. generate a synthetic panning clip (the paper's flower-garden stand-in);
2. encode it to an MPEG-2 bitstream with the from-scratch encoder;
3. decode sequentially (the uniprocessor baseline);
4. decode with the GOP-level and the simple and improved slice-level
   parallel decoders on real worker processes, verifying the parallel
   outputs are bit-identical to the sequential decode;
5. report quality (PSNR) and the decode rates the same three
   decompositions reach on a simulated 16-processor SGI Challenge.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import TextTable
from repro.mpeg2.decoder import decode_sequence
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.parallel import (
    GopLevelDecoder,
    MPGopDecoder,
    MPSliceDecoder,
    ParallelConfig,
    SliceLevelDecoder,
    SliceMode,
    profile_stream,
)
from repro.smp import challenge
from repro.video.metrics import sequence_psnr
from repro.video.synthetic import SyntheticVideo


def main() -> None:
    # 1. A 52-frame clip: four closed 13-picture GOPs (I B B P ...).
    video = SyntheticVideo(width=176, height=120, seed=42)
    frames = video.frames(52)
    print(f"generated {len(frames)} frames at 176x120")

    # 2. Encode.  The defaults match the paper's streams: GOP size 13,
    #    I/P distance 3, one slice per macroblock row.
    config = EncoderConfig(gop_size=13, qscale_code=3)
    stream = encode_sequence(frames, config)
    kbps = len(stream) * 8 * 30 / len(frames) / 1000
    print(f"encoded to {len(stream):,} bytes ({kbps:.0f} kbit/s at 30 pics/s)")

    # 3. Sequential reference decode.
    decoded = decode_sequence(stream)
    print(f"sequential decode: PSNR {sequence_psnr(frames, decoded):.1f} dB")

    # 4. Parallel decodes on two real worker processes.
    parallel = {
        "GOP level": MPGopDecoder(stream, workers=2),
        "slice level (simple)": MPSliceDecoder(stream, workers=2, mode="simple"),
        "slice level (improved)": MPSliceDecoder(stream, workers=2, mode="improved"),
    }
    for name, decoder in parallel.items():
        frames = decoder.decode_all()
        identical = len(frames) == len(decoded) and all(
            a.same_pixels(b) for a, b in zip(decoded, frames)
        )
        assert identical, f"{name} output differs from sequential decode!"
    print("parallel decoders verified bit-identical to the sequential decoder")

    # 5. Simulated decode rates (virtual time on 150 MHz R4400s): the
    #    simulated decoders replay the stream's per-slice work counters.
    profile = profile_stream(stream)
    machine = challenge(16)
    runs = {
        "GOP level": GopLevelDecoder(profile).run(
            ParallelConfig(workers=4, machine=machine)
        ),
        "slice level (simple)": SliceLevelDecoder(profile).run(
            ParallelConfig(workers=4, machine=machine), SliceMode.SIMPLE
        ),
        "slice level (improved)": SliceLevelDecoder(profile).run(
            ParallelConfig(workers=4, machine=machine), SliceMode.IMPROVED
        ),
    }
    table = TextTable(
        ["decoder", "pics/s (4 workers)", "peak memory KB", "sync/exec"],
        title="Simulated decode on a 16-processor Challenge",
    )
    for name, result in runs.items():
        table.add_row(
            name,
            round(result.pictures_per_second, 1),
            round(result.peak_memory / 1024, 1),
            round(result.mean_sync_ratio, 3),
        )
    print()
    print(table.render())


if __name__ == "__main__":
    main()
