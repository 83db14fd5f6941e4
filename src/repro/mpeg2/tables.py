"""MPEG-2 coding tables: quantization matrices and VLC codebooks.

Quantization matrices are the standard defaults (ISO 13818-2 6.3.11).

VLC codebooks: the macroblock-type tables use the standard's explicit
codewords (they are tiny and well known); the larger tables (DC size,
AC run/level, macroblock address increment, coded block pattern,
motion code) are built with our canonical Huffman constructor over
declared frequency orders, giving structurally equivalent prefix codes
with the same symbol alphabets and the same escape mechanisms as the
standard (see DESIGN.md for the substitution note).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpeg2.constants import PictureType
from repro.mpeg2.huffman import build_codebook, geometric_weights
from repro.mpeg2.vlc import VLCTable

# ----------------------------------------------------------------------
# Quantization matrices (raster order, ISO 13818-2 defaults)
# ----------------------------------------------------------------------
DEFAULT_INTRA_QUANT_MATRIX = np.array(
    [
        [8, 16, 19, 22, 26, 27, 29, 34],
        [16, 16, 22, 24, 27, 29, 34, 37],
        [19, 22, 26, 27, 29, 34, 34, 38],
        [22, 22, 26, 27, 29, 34, 37, 40],
        [22, 26, 27, 29, 32, 35, 40, 48],
        [26, 27, 29, 32, 35, 40, 48, 58],
        [26, 27, 29, 34, 38, 46, 56, 69],
        [27, 29, 35, 38, 46, 56, 69, 83],
    ],
    dtype=np.int64,
)

DEFAULT_NON_INTRA_QUANT_MATRIX = np.full((8, 8), 16, dtype=np.int64)


# ----------------------------------------------------------------------
# DC size tables (alphabet 0..11 as in ISO 13818-2 Table B-12/B-13)
# ----------------------------------------------------------------------
_DC_SIZE_LUMA_ORDER = [1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11]
_DC_SIZE_CHROMA_ORDER = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]

DC_SIZE_LUMA = VLCTable(
    build_codebook(geometric_weights(_DC_SIZE_LUMA_ORDER, ratio=0.55)),
    name="dct_dc_size_luminance",
)
DC_SIZE_CHROMA = VLCTable(
    build_codebook(geometric_weights(_DC_SIZE_CHROMA_ORDER, ratio=0.55)),
    name="dct_dc_size_chrominance",
)

#: Maximum representable DC size (bits of the DC differential magnitude).
MAX_DC_SIZE = 11


# ----------------------------------------------------------------------
# AC run/level table (structure of ISO 13818-2 Table B-14)
# ----------------------------------------------------------------------
#: End-of-block marker symbol.
EOB = "EOB"
#: Escape marker symbol: followed by 6-bit run and 12-bit signed level.
ESCAPE = "ESC"
ESCAPE_RUN_BITS = 6
ESCAPE_LEVEL_BITS = 12

# Symbols in decreasing expected frequency.  EOB terminates every coded
# block so it is the most frequent symbol; short zero-runs with +/-1
# levels dominate after that (this is exactly the shape of Table B-14).
_AC_ORDER: list[object] = [EOB, (0, 1), (1, 1), (0, 2), (2, 1), (0, 3)]
_AC_ORDER += [(3, 1), (4, 1), (1, 2), (5, 1), (6, 1), (7, 1)]
_AC_ORDER += [ESCAPE]
_AC_ORDER += [(0, 4), (2, 2), (8, 1), (9, 1), (0, 5), (0, 6), (1, 3)]
_AC_ORDER += [(3, 2), (10, 1), (11, 1), (12, 1), (13, 1), (0, 7), (1, 4)]
_AC_ORDER += [(2, 3), (4, 2), (5, 2), (14, 1), (15, 1), (16, 1), (0, 8)]
_AC_ORDER += [(0, 9), (0, 10), (0, 11), (1, 5), (2, 4), (3, 3), (6, 2)]
_AC_ORDER += [(17, 1), (18, 1), (19, 1), (20, 1), (21, 1), (0, 12), (0, 13)]
_AC_ORDER += [(0, 14), (0, 15), (1, 6), (1, 7), (2, 5), (4, 3), (7, 2)]
_AC_ORDER += [(8, 2), (22, 1), (23, 1), (24, 1), (25, 1), (26, 1), (0, 16)]
_AC_ORDER += [(0, 17), (0, 18), (0, 19), (0, 20), (1, 8), (3, 4), (5, 3)]
_AC_ORDER += [(9, 2), (10, 2), (27, 1), (28, 1), (29, 1), (30, 1), (31, 1)]

AC_RUN_LEVEL = VLCTable(
    build_codebook(geometric_weights(_AC_ORDER, ratio=0.82)),
    name="dct_coefficients",
)

#: Fast lookup of (run, |level|) pairs that have a non-escape codeword.
AC_CODED_PAIRS = frozenset(s for s in _AC_ORDER if isinstance(s, tuple))


# ----------------------------------------------------------------------
# Macroblock address increment (ISO 13818-2 Table B-1 structure)
# ----------------------------------------------------------------------
#: Escape symbol: adds 33 to the following decoded increment.
MBA_ESCAPE = "MBA_ESC"
MBA_ESCAPE_VALUE = 33

_MBA_ORDER: list[object] = list(range(1, 34))
_MBA_ORDER.insert(8, MBA_ESCAPE)  # moderate-length code, as in B-1

MB_ADDRESS_INCREMENT = VLCTable(
    build_codebook(geometric_weights(_MBA_ORDER, ratio=0.60)),
    name="macroblock_address_increment",
)


# ----------------------------------------------------------------------
# Macroblock type tables (ISO 11172-2 Tables B.2a-c codewords, verbatim)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MbMode:
    """Decoded macroblock_type flags.

    Attributes mirror the standard's derived flags: ``quant`` signals a
    new quantiser_scale_code in the macroblock header, ``mc_fwd`` /
    ``mc_bwd`` signal motion vectors, ``coded`` signals a coded block
    pattern, ``intra`` signals an intra-coded macroblock.
    """

    quant: bool = False
    mc_fwd: bool = False
    mc_bwd: bool = False
    coded: bool = False
    intra: bool = False

    def __post_init__(self) -> None:
        if self.intra and (self.mc_fwd or self.mc_bwd or self.coded):
            raise ValueError("intra macroblocks carry no MC flags or CBP")


# I-pictures: intra / intra+quant (Table B.2a).
MB_TYPE_I = VLCTable(
    {
        MbMode(intra=True): "1",
        MbMode(intra=True, quant=True): "01",
    },
    name="macroblock_type_I",
)

# P-pictures (Table B.2b).
MB_TYPE_P = VLCTable(
    {
        MbMode(mc_fwd=True, coded=True): "1",
        MbMode(coded=True): "01",
        MbMode(mc_fwd=True): "001",
        MbMode(intra=True): "00011",
        MbMode(mc_fwd=True, coded=True, quant=True): "00010",
        MbMode(coded=True, quant=True): "00001",
        MbMode(intra=True, quant=True): "000001",
    },
    name="macroblock_type_P",
)

# B-pictures (Table B.2c).
MB_TYPE_B = VLCTable(
    {
        MbMode(mc_fwd=True, mc_bwd=True): "10",
        MbMode(mc_fwd=True, mc_bwd=True, coded=True): "11",
        MbMode(mc_bwd=True): "010",
        MbMode(mc_bwd=True, coded=True): "011",
        MbMode(mc_fwd=True): "0010",
        MbMode(mc_fwd=True, coded=True): "0011",
        MbMode(intra=True): "00011",
        MbMode(mc_fwd=True, mc_bwd=True, coded=True, quant=True): "00010",
        MbMode(mc_fwd=True, coded=True, quant=True): "000011",
        MbMode(mc_bwd=True, coded=True, quant=True): "000010",
        MbMode(intra=True, quant=True): "000001",
    },
    name="macroblock_type_B",
)

MB_TYPE_TABLES: dict[PictureType, VLCTable] = {
    PictureType.I: MB_TYPE_I,
    PictureType.P: MB_TYPE_P,
    PictureType.B: MB_TYPE_B,
}


# ----------------------------------------------------------------------
# Coded block pattern (alphabet 1..63; structure of Table B-9)
# ----------------------------------------------------------------------
# Common patterns first: whole-luma, single-block, luma pairs, then the
# rest in ascending order.
_CBP_COMMON = [60, 4, 8, 16, 32, 62, 61, 12, 48, 20, 40, 28, 44, 52, 56, 1, 2, 36, 24, 63]
_CBP_ORDER = _CBP_COMMON + [c for c in range(1, 64) if c not in _CBP_COMMON]

CODED_BLOCK_PATTERN = VLCTable(
    build_codebook(geometric_weights(_CBP_ORDER, ratio=0.88)),
    name="coded_block_pattern",
)


# ----------------------------------------------------------------------
# Motion code (alphabet -16..16; structure of Table B-10)
# ----------------------------------------------------------------------
_MOTION_ORDER: list[int] = [0]
for _m in range(1, 17):
    _MOTION_ORDER += [_m, -_m]

MOTION_CODE = VLCTable(
    build_codebook(geometric_weights(_MOTION_ORDER, ratio=0.68)),
    name="motion_code",
)

#: Motion codes span -16..16; with f_code f the decoded differential is
#: ``code * (1 << (f-1)) +/- residual`` and the representable range is
#: ``[-16 << (f-1), (16 << (f-1)) - 1]`` around the predictor (modulo
#: wrap), exactly as in ISO 11172-2 2.4.4.2.
MOTION_CODE_MAX = 16
