"""Benchmark inputs: one encoded closed GOP per clip, tiled to length.

One 13-picture GOP is synthesised from ``--seed`` and encoded with the
disk cache off (so encode cost is part of set-up, every time), decoded
once by the scalar engine to get the oracle digests, and lengthened by
repeating the GOP's bytes: a closed GOP carries no coded state across
its boundary, so the digests of one period check every period.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

GOP_SIZE = 13


@dataclass(frozen=True)
class Clip:
    name: str
    width: int
    height: int
    bit_rate: int


#: The paper's smallest evaluated resolution at its Section 3 bit rate.
DECODE_CLIP = Clip("352x240", 352, 240, 5_000_000)
#: Small pictures so the network edge, not decode, dominates.
NET_CLIP = Clip("176x120", 176, 120, 2_000_000)


@dataclass
class BuiltStream:
    clip: Clip
    base: bytes            # sequence header + one GOP + end code
    prefix: bytes
    gop_body: bytes
    tail: bytes
    frames: list           # scalar-oracle frames of one GOP, display order
    digests: list[str]     # their SHA-256 digests
    encode_s: float
    oracle_s: float

    def tiled(self, gops: int) -> bytes:
        return self.prefix + self.gop_body * gops + self.tail

    def expected(self, pictures: int) -> list[str]:
        """Oracle digests for the first ``pictures`` display pictures."""
        return [self.digests[i % GOP_SIZE] for i in range(pictures)]


def build(clip: Clip, seed: int, lap=lambda: None) -> BuiltStream:
    """Encode and oracle-decode ``clip``; ``lap()`` marks each phase's end."""
    from repro.mpeg2.decoder import SequenceDecoder
    from repro.mpeg2.index import build_index, sequence_prefix
    from repro.video.streams import TestStreamSpec, build_stream

    spec = TestStreamSpec(
        name=f"bench/{clip.name}",
        width=clip.width,
        height=clip.height,
        gop_size=GOP_SIZE,
        pictures=GOP_SIZE,
        bit_rate=clip.bit_rate,
        seed=seed,
    )
    t0 = time.perf_counter()
    base = build_stream(spec, use_cache=False)
    encode_s = time.perf_counter() - t0
    lap()

    t0 = time.perf_counter()
    frames = SequenceDecoder(base, engine="scalar").decode_all()
    oracle_s = time.perf_counter() - t0
    lap()

    index = build_index(base)
    if len(index.gops) != 1 or not index.gops[0].closed_gop:
        raise RuntimeError("benchmark clip must encode to one closed GOP")
    gop = index.gops[0]
    return BuiltStream(
        clip=clip,
        base=base,
        prefix=sequence_prefix(base, index),
        gop_body=base[gop.start_offset : gop.end_offset],
        tail=base[gop.end_offset :],
        frames=frames,
        digests=[f.digest() for f in frames],
        encode_s=encode_s,
        oracle_s=oracle_s,
    )
