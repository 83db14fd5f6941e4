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
#: Largest |level| with a non-escape codeword at any run.
_MAX_CODED_LEVEL = max(mag for _, mag in AC_CODED_PAIRS)
#: ``_PAIR_LEN[run, |level|]`` is the codeword length of a coded pair
#: (0: escape-coded) and ``_PAIR_CODE`` its value, for array lookups.
_PAIR_CODE = np.zeros((64, _MAX_CODED_LEVEL + 1), dtype=np.int64)
_PAIR_LEN = np.zeros((64, _MAX_CODED_LEVEL + 1), dtype=np.int64)
for _pair in AC_CODED_PAIRS:
    _PAIR_CODE[_pair] = int(AC_RUN_LEVEL.codeword(_pair), 2)
    _PAIR_LEN[_pair] = AC_RUN_LEVEL.code_length(_pair)
_ESC_CODE = int(AC_RUN_LEVEL.codeword(ESCAPE), 2)
_ESC_LEN = AC_RUN_LEVEL.code_length(ESCAPE) + ESCAPE_RUN_BITS + ESCAPE_LEVEL_BITS
_EOB_CODE = int(AC_RUN_LEVEL.codeword(EOB), 2)
_EOB_LEN = AC_RUN_LEVEL.code_length(EOB)


def run_level_codes(
    runs: np.ndarray, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Codewords of (run, level) pairs as ``(values, lengths)`` arrays.

    A pair with a table entry codes as its codeword plus a sign bit;
    any other pair as the escape codeword, a 6-bit run and a 12-bit
    two's-complement level (the MPEG-2 single-escape format).
    """
    if not np.all(levels):
        raise BlockSyntaxError("level 0 cannot be coded as a run/level pair")
    if np.any((levels < LEVEL_MIN) | (levels > LEVEL_MAX)):
        raise BlockSyntaxError("level outside escape-codable range")
    if np.any((runs < 0) | (runs >= 1 << ESCAPE_RUN_BITS)):
        raise BlockSyntaxError("run outside a block")
    mag = np.abs(levels)
    table_mag = np.where(mag <= _MAX_CODED_LEVEL, mag, 0)
    length = _PAIR_LEN[runs, table_mag]
    coded = length > 0
    values = np.where(
        coded,
        (_PAIR_CODE[runs, table_mag] << 1) | (levels < 0),
        (((_ESC_CODE << ESCAPE_RUN_BITS) | runs) << ESCAPE_LEVEL_BITS)
        | (levels & ((1 << ESCAPE_LEVEL_BITS) - 1)),
    )
    return values, np.where(coded, length + 1, _ESC_LEN)


def block_codes(
    blocks: np.ndarray, intra: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run/level coding of a stack of scan-ordered blocks at once.

    ``blocks`` is ``(n, 64)`` levels; intra blocks (``intra[k]``) skip
    coefficient 0, which is coded as a DC differential.  Returns the
    codeword ``(values, lengths)`` of every block in order, each
    block's pairs closed by EOB, and the number of codes per block.
    """
    first = np.asarray(intra, dtype=np.int64)
    nonzero = blocks != 0
    nonzero[:, 0] &= first == 0
    blk, pos = np.nonzero(nonzero)
    # Runs count zeros since the previous coefficient of the block, or
    # since its first coded position (0, or 1 after an intra DC).
    prev = np.empty_like(pos)
    prev[1:] = pos[:-1]
    starts = np.ones(len(blk), dtype=bool)
    starts[1:] = blk[1:] != blk[:-1]
    prev[starts] = first[blk[starts]] - 1
    pair_values, pair_lengths = run_level_codes(
        pos - prev - 1, blocks[blk, pos]
    )
    # Block k's pairs move up by the k EOBs before them; EOBs fill the rest.
    counts = np.bincount(blk, minlength=len(blocks)) + 1
    at = np.arange(len(blk)) + blk
    values = np.full(len(blk) + len(blocks), _EOB_CODE, dtype=np.int64)
    lengths = np.full(len(values), _EOB_LEN, dtype=np.int64)
    values[at] = pair_values
    lengths[at] = pair_lengths
    return values, lengths, counts


def write_codes(w: BitWriter, values: np.ndarray, lengths: np.ndarray) -> None:
    """Append codewords to ``w`` in one write (MSB first, in order)."""
    # One entry per output bit: its code's value, shifted down by the
    # bits of that code still to follow (worked in place, 13 bytes a bit).
    ends = np.cumsum(lengths, dtype=np.int32)
    total = int(ends[-1]) if len(ends) else 0
    shift = np.repeat(ends, lengths)
    shift -= np.arange(1, total + 1, dtype=np.int32)
    bits = np.repeat(values, lengths)
    bits >>= shift
    bits &= 1
    packed = int.from_bytes(np.packbits(bits.astype(np.uint8)).tobytes(), "big")
    w.write_bits(packed >> (-total % 8), total)


def encode_run_level(w: BitWriter, run: int, level: int) -> None:
    """Emit one (run, level) pair, using the escape when needed."""
    write_codes(w, *run_level_codes(np.array([run]), np.array([level])))


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
    new_pred = 0
    if intra:
        if dc_table is None:
            raise ValueError("intra blocks need a DC size table")
        new_pred = encode_dc_differential(w, int(scanned[0]), dc_predictor, dc_table)
    values, lengths, _ = block_codes(
        np.asarray(scanned).reshape(1, 64), np.array([intra])
    )
    write_codes(w, values, lengths)
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
