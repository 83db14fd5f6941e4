"""Work counters: the decoder's self-instrumentation.

The paper measures where decode time goes with ``pixie`` (ideal
instruction counts) and ``prof`` (actual time).  Our analogue: every
decode entry point fills a :class:`WorkCounters` with exact operation
counts — bits parsed, blocks transformed, pixels predicted/written —
and the cost model in :mod:`repro.smp.costs` converts those to
simulated R4400 cycles.  Keeping the counters separate from the cost
model lets benchmarks re-cost a single decode under different machine
models (SMP vs DASH) without re-decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class WorkCounters:
    """Operation counts accumulated while decoding some unit of stream."""

    #: Bits consumed from the bitstream (VLC + fixed fields).
    bits: int = 0
    #: VLC symbols decoded (table lookups).
    vlc_symbols: int = 0
    #: Headers parsed (sequence + GOP + picture + slice).
    headers: int = 0
    #: Macroblocks processed (decoded or skipped).
    macroblocks: int = 0
    #: Macroblocks reconstructed via motion compensation.
    mc_macroblocks: int = 0
    #: Macroblocks using bidirectional prediction (two fetches).
    bidir_macroblocks: int = 0
    #: 8x8 blocks run through inverse quantization + IDCT.
    idct_blocks: int = 0
    #: Nonzero coefficients decoded (run/level pairs).
    coefficients: int = 0
    #: Pixels fetched by motion compensation (all planes).
    mc_pixels: int = 0
    #: Pixels written to the output frame (all planes).
    pixels: int = 0
    #: Slices dropped and concealed by the resilient decoder.
    concealed_slices: int = 0

    def add(self, other: "WorkCounters") -> "WorkCounters":
        """Accumulate ``other`` into self (returns self for chaining)."""
        mine, theirs = vars(self), vars(other)
        for name in _NAMES:
            mine[name] += theirs[name]
        return self

    def copy(self) -> "WorkCounters":
        return WorkCounters(**self.as_dict())

    def as_dict(self) -> dict[str, int]:
        mine = vars(self)
        return {name: mine[name] for name in _NAMES}

    def __bool__(self) -> bool:
        mine = vars(self)
        return any(mine[name] for name in _NAMES)


#: The counter names, in declaration order: taken once, because the
#: kernel adds a slice's counters per slice and ``fields()`` walks the
#: dataclass machinery on every call.
_NAMES: tuple[str, ...] = tuple(f.name for f in fields(WorkCounters))
