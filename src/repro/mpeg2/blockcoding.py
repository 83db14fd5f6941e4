"""Block layer: DC prediction + run/level coding of DCT coefficients.

A coded block is serialised as (intra blocks) a DC size/differential
pair followed by run/level AC codes, or (non-intra blocks) run/level
codes from coefficient 0 — terminated by EOB.  Rare (run, level) pairs
use the escape mechanism: 6-bit run + 12-bit signed level, exactly the
MPEG-2 single-escape format.

All functions work on *scan-ordered* 64-vectors; zig-zag (un)scanning
happens in the macroblock layer.
"""

from __future__ import annotations

import numpy as np

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2.constants import LEVEL_MAX, LEVEL_MIN
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.tables import (
    AC_CODED_PAIRS,
    AC_RUN_LEVEL,
    EOB,
    ESCAPE,
    ESCAPE_LEVEL_BITS,
    ESCAPE_RUN_BITS,
    MAX_DC_SIZE,
    VLCTable,
)


class BlockSyntaxError(Exception):
    """Raised on impossible coefficient positions or level values."""


# ----------------------------------------------------------------------
# DC differential (intra blocks)
# ----------------------------------------------------------------------
def encode_dc_differential(
    w: BitWriter, dc: int, predictor: int, table: VLCTable
) -> int:
    """Code ``dc - predictor``; returns the new predictor (== dc).

    The magnitude bits follow the standard's convention: positive
    differentials are coded as-is; negative ones as the one's
    complement of the magnitude (so the MSB doubles as a sign flag).
    """
    diff = dc - predictor
    size = abs(diff).bit_length()
    if size > MAX_DC_SIZE:
        raise BlockSyntaxError(f"DC differential {diff} too large")
    table.encode(w, size)
    if size:
        if diff > 0:
            w.write_bits(diff, size)
        else:
            w.write_bits((-diff) ^ ((1 << size) - 1), size)
    return dc


def decode_dc_differential(
    r: BitReader, predictor: int, table: VLCTable, counters: WorkCounters
) -> int:
    """Decode one DC differential and return the reconstructed DC."""
    size = table.decode(r)
    counters.vlc_symbols += 1
    if size == 0:
        return predictor
    raw = r.read_bits(size)
    if raw & (1 << (size - 1)):
        diff = raw
    else:
        diff = -(raw ^ ((1 << size) - 1))
    return predictor + diff


# ----------------------------------------------------------------------
# AC run/level coding
# ----------------------------------------------------------------------
def encode_run_level(w: BitWriter, run: int, level: int) -> None:
    """Emit one (run, level) pair, using the escape when needed."""
    if level == 0:
        raise BlockSyntaxError("level 0 cannot be coded as a run/level pair")
    if not LEVEL_MIN <= level <= LEVEL_MAX:
        raise BlockSyntaxError(f"level {level} outside escape-codable range")
    pair = (run, abs(level))
    if pair in AC_CODED_PAIRS:
        AC_RUN_LEVEL.encode(w, pair)
        w.write_bit(1 if level < 0 else 0)
    else:
        AC_RUN_LEVEL.encode(w, ESCAPE)
        w.write_bits(run, ESCAPE_RUN_BITS)
        w.write_bits(level & ((1 << ESCAPE_LEVEL_BITS) - 1), ESCAPE_LEVEL_BITS)


def encode_block(
    w: BitWriter,
    scanned: np.ndarray,
    *,
    intra: bool,
    dc_table: VLCTable | None = None,
    dc_predictor: int = 0,
) -> int:
    """Serialise one scan-ordered 64-vector of quantized levels.

    Intra blocks code coefficient 0 as a DC differential against
    ``dc_predictor`` (returns the new predictor); non-intra blocks
    code all 64 coefficients as run/levels.  Returns the new DC
    predictor for intra blocks, 0 otherwise.
    """
    start = 0
    new_pred = 0
    if intra:
        if dc_table is None:
            raise ValueError("intra blocks need a DC size table")
        new_pred = encode_dc_differential(w, int(scanned[0]), dc_predictor, dc_table)
        start = 1
    run = 0
    for k in range(start, 64):
        level = int(scanned[k])
        if level == 0:
            run += 1
        else:
            encode_run_level(w, run, level)
            run = 0
    AC_RUN_LEVEL.encode(w, EOB)
    return new_pred


def decode_block(
    r: BitReader,
    *,
    intra: bool,
    dc_table: VLCTable | None = None,
    dc_predictor: int = 0,
    counters: WorkCounters,
) -> tuple[np.ndarray, int]:
    """Decode one block into a scan-ordered 64-vector of levels.

    Returns ``(levels, new_dc_predictor)``; the predictor is only
    meaningful for intra blocks.
    """
    levels = np.zeros(64, dtype=np.int64)
    k = 0
    new_pred = 0
    if intra:
        if dc_table is None:
            raise ValueError("intra blocks need a DC size table")
        new_pred = decode_dc_differential(r, dc_predictor, dc_table, counters)
        levels[0] = new_pred
        k = 1
    while True:
        sym = AC_RUN_LEVEL.decode(r)
        counters.vlc_symbols += 1
        if sym == EOB:
            return levels, new_pred
        if sym == ESCAPE:
            run = r.read_bits(ESCAPE_RUN_BITS)
            raw = r.read_bits(ESCAPE_LEVEL_BITS)
            level = raw - (1 << ESCAPE_LEVEL_BITS) if raw & (1 << (ESCAPE_LEVEL_BITS - 1)) else raw
            if level == 0:
                raise BlockSyntaxError("escape-coded level of 0")
        else:
            run, mag = sym
            level = -mag if r.read_bit() else mag
        k += run
        if k >= 64:
            raise BlockSyntaxError(
                f"coefficient index {k} past end of block (run {run})"
            )
        levels[k] = level
        k += 1
        counters.coefficients += 1
