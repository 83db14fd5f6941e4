"""Two-phase decode fast path: batch parse -> NumPy reconstruction.

The paper's Section 4 observes that MPEG-2 decoding splits into a
*serial* part — walking the variable-length-coded bitstream — and a
*parallelizable* part — inverse quantization, IDCT, motion
compensation and pixel writes.  :mod:`repro.parallel.macroblock_level`
models that split for the cycle simulation; this module exploits it
for the decoder's own wall-clock speed:

Phase 1 (:func:`parse_slice`) performs **only bit work**: VLC decode,
run/level expansion, DC and motion-vector prediction.  The whole
slice — header, macroblock addressing, macroblock type, quantiser
updates, motion vectors, coded block patterns and every coefficient —
is decoded by one function whose only cursor is the bit position
``p``: every read is a lookup in a table of 16-bit windows
(:func:`bit_windows`, one NumPy pass over up to 16 KB of a picture's
or slice batch's payloads, each slice read from its own base), and
every VLC one lookup in a flattened table (plain ``int`` length/symbol
lists) bounded by one ``0 < length <= end - p`` test.  The run/level table
additionally folds the sign bit into one extra window bit and fuses
every complete symbol of a 14-bit window into one row, so a probe
yields ~2.3 coefficients.  There are no per-symbol method calls and no
per-macroblock allocations; the output is a :class:`SliceParse` of two
flat buffers: one fixed-width packed record per macroblock, and the
coefficients as a self-delimiting stream of int32 entries in bitstream
order — ``(run + 1) << 24 | (level + bias)`` each, and an EOB entry
carrying its block's padding ``64 - k``.  A fused row carries its
entries pre-packed as ``bytes``, so the hot loop creates no int per
coefficient, and because steps stay **relative** the parser adds up no
positions either: one cumsum per picture gives ``64 * block + scan
position + 1`` at every coefficient, and phase 2 permutes the whole
stream into raster order, so no block is ever un-scanned by itself.

Phase 2 (:func:`reconstruct_slices`) reconstructs one picture with a
handful of vectorized operations: its slices' buffers are read as one
:class:`PictureAssembly` of views (:func:`assemble_picture`), and
:func:`gop_dequant_idct` dequantises the **sparse** coefficient stream
as it stands — only the coded coefficients are scaled (one gather from
a per-sequence multiplier table), clipped and summed for mismatch
control — then makes one dense scatter and **one**
:func:`~repro.mpeg2.dct.idct_rounded` call over the coded blocks alone.
:func:`mc_scatter` finishes it in plane layout: each macroblock is
one int16 ``(24, 16)`` tile (luma over Cb | Cr), motion compensation
(:func:`repro.mpeg2.motion.predict_macroblocks`, shared with the
encoder) grouped by (reference, half-pel phase) fetches straight into
it and averages bidirectional macroblocks in place, the residual
blocks land through a block view of a second tile stack, and one add,
one clip and one fancy-indexed scatter per plane write the frame.
int16 is wide enough: the orthonormal IDCT keeps the L2 norm, so a
residual sample is at most ``8 * 2048`` (a saturated block) and a
0..255 prediction on top still fits.  The picture is the grain on
purpose.  MC must run per picture in coding order, because P and B
pictures fetch from previously reconstructed references; and a
picture's transform arrays (≈ 1.6k blocks of 512 B float64 at
352x240) sit near the size of L2, where a whole GOP's (≈ 10 MB each)
did not — measured, the GOP-wide transform was ≈ 1.6x slower per
block (DESIGN §2.6).

Bit-exactness
-------------
The fast path is bit-identical to the scalar path by construction:

* phase 1 performs the same syntax walk and predictor-state
  transitions as ``decode_slice``, raising the same exception classes
  at the same stream positions on corrupt input (pinned by the
  cross-engine parity and negative-vector suites);
* ``scipy.fft``'s IDCT is batch-size invariant (tested), so one call
  per picture equals one call per macroblock;
* half-pel averaging uses the same ``(a+b+1)>>1`` integer arithmetic
  as :func:`repro.mpeg2.motion.predict_block`, applied per phase
  group;
* motion vectors are bounds-checked **at parse time** against the
  reference-plane geometry (``predict_block``'s predicate, as an
  interval per slice), so a corrupt slice raises the same exception
  class at the same slice, and resilient concealment proceeds
  identically.

Work counters are derived during parse (each macroblock's
reconstruction cost is a deterministic function of its mode), so the
per-slice counters feeding the paper's cycle-cost model are exactly
those of the scalar decoder — all paper experiments are unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from struct import Struct
from typing import Iterator, Sequence

import numpy as np

from repro.bitstream.reader import BitstreamError
from repro.mpeg2.blockcoding import BlockSyntaxError
from repro.mpeg2.constants import (
    COEFF_MAX,
    COEFF_MIN,
    PictureType,
)
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.dct import idct_rounded
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader
from repro.mpeg2.macroblock import SliceDecodeError
from repro.mpeg2.motion import predict_macroblocks
from repro.mpeg2.quant import INTRA_DC_STEP
from repro.mpeg2.scan import step_sums_to_raster
from repro.mpeg2.tables import (
    AC_RUN_LEVEL,
    CODED_BLOCK_PATTERN,
    DC_SIZE_CHROMA,
    DC_SIZE_LUMA,
    EOB,
    ESCAPE,
    ESCAPE_LEVEL_BITS,
    ESCAPE_RUN_BITS,
    MB_ADDRESS_INCREMENT,
    MB_TYPE_TABLES,
    MBA_ESCAPE,
    MBA_ESCAPE_VALUE,
    MOTION_CODE,
)
from repro.mpeg2.vlc import VLCError
from repro.obs.trace import trace_span

#: Pixels of one 4:2:0 macroblock (256 luma + 2 * 64 chroma).
_MB_PIXELS = 256 + 64 + 64


# ----------------------------------------------------------------------
# Flattened VLC tables for the inlined phase-1 parser.  Each table
# becomes parallel flat arrays over every max_len-bit window: a
# ``bytes`` length table (0 = invalid prefix) and a plain-int symbol
# list — two indexed loads per symbol against local variables, no
# attribute walks, no tuple unpacking, no ``np.int64`` boxing — and one
# ``0 < length <= n - p`` test rejects an invalid prefix and a codeword
# cut off by the end of the slice alike.
# ----------------------------------------------------------------------
def _raise_vlc(name: str, length: int, p: int, window: int, width: int):
    """Raise the scalar decoder's error for a codeword at bit ``p``
    that failed the ``0 < length <= n - p`` test."""
    if length == 0:
        raise VLCError(
            f"{name}: invalid codeword at bit {p} (window {window:0{width}b})"
        )
    raise VLCError(f"{name}: truncated codeword at end of stream")


def _raise_short(want: int, p: int, n: int):
    """``BitReader.read_bits``'s error for ``want`` bits at bit ``p``."""
    raise BitstreamError(
        f"read past end of stream (want {want} bits at {p}, have {n - p})"
    )


#: MBA windows: increment 1..33, with the escape mapped to 0 (valid
#: increments are never 0, so the sentinel is free).
_MBA_LENS = MB_ADDRESS_INCREMENT._dec_lens
_MBA_MAXLEN = MB_ADDRESS_INCREMENT.max_len
_MBA_INC: list[int] = [
    0 if s is None or s == MBA_ESCAPE else s
    for s in MB_ADDRESS_INCREMENT._dec_syms
]

#: Macroblock-type windows, one table per picture type.  Mode flags
#: are packed into one int: quant|mc_fwd<<1|mc_bwd<<2|coded<<3|intra<<4.
_MT_QUANT, _MT_FWD, _MT_BWD, _MT_CODED, _MT_INTRA = 1, 2, 4, 8, 16


def _pack_mode_flags(table) -> list[int]:
    flags = [0] * (1 << table.max_len)
    for w, sym in enumerate(table._dec_syms):
        if sym is None:
            continue
        flags[w] = (
            (_MT_QUANT if sym.quant else 0)
            | (_MT_FWD if sym.mc_fwd else 0)
            | (_MT_BWD if sym.mc_bwd else 0)
            | (_MT_CODED if sym.coded else 0)
            | (_MT_INTRA if sym.intra else 0)
        )
    return flags


_MT_TABLES: dict[PictureType, tuple[bytes, list[int], int, str]] = {
    ptype: (t._dec_lens, _pack_mode_flags(t), t.max_len, t.name)
    for ptype, t in MB_TYPE_TABLES.items()
}

_MC_LENS = MOTION_CODE._dec_lens
_MC_MAXLEN = MOTION_CODE.max_len
_MC_SYMS: list[int] = [
    0 if s is None else s for s in MOTION_CODE._dec_syms
]

_CBP_LENS = CODED_BLOCK_PATTERN._dec_lens
_CBP_MAXLEN = CODED_BLOCK_PATTERN.max_len
_CBP_SYMS: list[int] = [
    0 if s is None else s for s in CODED_BLOCK_PATTERN._dec_syms
]

#: ``(lens, sizes, max_len, name)`` of the DC size table of block 0..5.
_DC_LUMA = (
    DC_SIZE_LUMA._dec_lens, DC_SIZE_LUMA._dec_syms,
    DC_SIZE_LUMA.max_len, DC_SIZE_LUMA.name,
)
_DC_CHROMA = (
    DC_SIZE_CHROMA._dec_lens, DC_SIZE_CHROMA._dec_syms,
    DC_SIZE_CHROMA.max_len, DC_SIZE_CHROMA.name,
)

_ESC_BITS = ESCAPE_RUN_BITS + ESCAPE_LEVEL_BITS
_ESC_LEVEL_SIGN = 1 << (ESCAPE_LEVEL_BITS - 1)
_ESC_LEVEL_SPAN = 1 << ESCAPE_LEVEL_BITS

# Every VLC fits one 16-bit window, and the two wider reads (the
# sign-folded run/level window, the escape) fit two joined.
assert max(
    _MBA_MAXLEN, _MC_MAXLEN, _CBP_MAXLEN, DC_SIZE_LUMA.max_len,
    DC_SIZE_CHROMA.max_len, *(t.max_len for t in MB_TYPE_TABLES.values()),
) <= 16 and AC_RUN_LEVEL.max_len + 1 <= 24 and _ESC_BITS <= 24


#: The coefficient stream is a ``bytearray`` of little-endian int32
#: *entries*, ``(step << _COEF_SHIFT) | value``, and it delimits itself:
#: a coefficient's step is its codeword's ``run + 1`` (**relative** —
#: the parser never adds up a scan position) and its value ``level +
#: _COEF_BIAS``, an intra DC term being a run-0 entry; one EOB entry,
#: value 0, closes every coded block with its padding ``64 - k`` as the
#: step (``_EOB_PAD[k]``).  So a block's steps sum to 64, and their
#: running sum is ``64 * block ordinal + scan position + 1`` at every
#: coefficient.  The 24-bit value field is never 0 on a coefficient:
#: levels are bounded by the 12-bit escape range and DC predictor drift
#: (at most ``128 + 2047 * 4 * mb_width`` on a corrupt-but-parseable
#: slice — under 2**22 for the 12-bit widths a sequence header admits).
_COEF_SHIFT = 24
_COEF_BIAS = 1 << 23
_COEF_VMASK = (1 << 24) - 1
_ENTRY = Struct("<i")
_EOB_PAD: list[bytes] = [
    _ENTRY.pack((64 - k) << _COEF_SHIFT) for k in range(65)
]

#: Negative run sentinels of the two control symbols.
_AC_EOB_RUN = -1
_AC_ESCAPE_RUN = -2


def _build_signed_ac() -> tuple[bytes, list[int], list[int]]:
    """Fold the sign bit of every run/level codeword into the table.

    The decoder's hottest symbol is the AC run/level pair, whose
    codeword is followed by one sign bit.  Widening the decode window
    by that bit lets a single lookup yield length (codeword + sign),
    run and the symbol's stream *entry* (step and signed level already
    packed) — the per-coefficient sign-bit read, with its own bounds
    check, disappears from the hot loop.  EOB and the escape prefix
    carry no sign bit and keep their true length (their runs are the
    sentinels above); invalid prefixes stay length 0.
    """
    maxlen = AC_RUN_LEVEL.max_len
    lens = bytearray(1 << (maxlen + 1))
    runs = [0] * (1 << (maxlen + 1))
    entries = [0] * (1 << (maxlen + 1))
    base_lens = AC_RUN_LEVEL._dec_lens
    for w, sym in enumerate(AC_RUN_LEVEL._dec_syms):
        if sym is None:
            continue
        length = base_lens[w]
        w0 = w << 1
        if sym == EOB or sym == ESCAPE:  # no sign bit follows
            lens[w0] = lens[w0 | 1] = length
            runs[w0] = runs[w0 | 1] = (
                _AC_EOB_RUN if sym == EOB else _AC_ESCAPE_RUN
            )
            continue
        run, mag = sym
        for w1 in (w0, w0 | 1):
            sign = (w1 >> (maxlen - length)) & 1
            lens[w1] = length + 1
            runs[w1] = run
            entries[w1] = ((run + 1) << _COEF_SHIFT) | (
                (-mag if sign else mag) + _COEF_BIAS
            )
    return bytes(lens), runs, entries


_AC2_LENS, _AC2_RUNS, _AC2_ENTRIES = _build_signed_ac()
_AC2_MAXLEN = AC_RUN_LEVEL.max_len + 1


def _raise_ac(length: int, p: int, n: int, window: int):
    """:func:`_raise_vlc` for the sign-folded run/level table."""
    if length and _AC2_RUNS[window] >= 0 and length - 1 <= n - p:
        # The run/level codeword itself fits; only its folded sign bit
        # is past the end — the scalar path consumes the codeword, then
        # fails the one-bit sign read.
        _raise_short(1, n, n)
    _raise_vlc(AC_RUN_LEVEL.name, length, p, window, _AC2_MAXLEN)


#: Fused multi-symbol AC decode: one ``_FUSE_BITS``-bit window maps to
#: every *complete* run/level symbol it contains (average AC symbols
#: run ~5 bits including the folded sign, so a window usually carries
#: two).  ``_AC_FUSED[w] == (consumed_bits, advance, entry_bytes)``:
#: the run/level symbols travel **pre-packed** — ``entry_bytes`` is
#: appended to the stream verbatim — and ``advance`` is their total
#: ``run + 1``, plus ``_FUSE_EOB`` when an EOB ends the window (its
#: entry depends on the block's scan index, so the parser appends
#: ``_EOB_PAD[k]`` itself), or ``_FUSE_NONE`` for a window with no
#: complete symbol.  So the hot loop adds ``advance`` to the scan
#: index, and one ``k <= 64`` test passes exactly the windows that stay
#: in the block and leave it open; the rest — an EOB, an overflow,
#: nothing to decode — take the rare branch.  The walk stops — leaving
#: ``consumed_bits`` at the last clean symbol boundary — before escape
#: codes, invalid prefixes and codewords that straddle the window, all
#: of which the single-symbol path then handles at the exact same bit
#: position the scalar decoder would report.  Entry ``_FUSE_TAIL`` is
#: the window of every position with fewer than ``_FUSE_BITS`` bits
#: left in the slice: nothing, so the stream tail is the single-symbol
#: path's too.  A window's entry depends only on the bits it consumes,
#: so the 16K windows share ≈ 4.1K distinct entries (≈ 0.5 MB, not
#: ≈ 1.8 MB).  Built at import (≈ 30 ms): built later, amid a caller's
#: freed temporaries (an encode's, say), the entries scatter over the
#: heap and every parse runs a few per cent slower.
_FUSE_BITS = 14
_FUSE_MASK = (1 << _FUSE_BITS) - 1
_FUSE_TAIL = 1 << _FUSE_BITS
_FUSE_EOB = 256
_FUSE_NONE = 4096


def _build_fused_ac() -> list[tuple[int, int, bytes]]:
    lens = _AC2_LENS
    runs = _AC2_RUNS
    entries = _AC2_ENTRIES
    maxlen = _AC2_MAXLEN
    fb = _FUSE_BITS
    table: list[tuple[int, int, bytes]] = []
    distinct: dict[tuple[int, int, bytes], tuple[int, int, bytes]] = {}
    for w in range(1 << fb):
        pos = 0
        adv = 0
        eob = 0
        packed = b""
        while True:
            rem = fb - pos
            if rem <= 0:
                break
            sub = w & ((1 << rem) - 1)
            # The next symbol's decode window, left-aligned; zero
            # padding is safe because a decode is only accepted when
            # the codeword fits entirely in the ``rem`` real bits.
            if rem < maxlen:
                wnd = sub << (maxlen - rem)
            else:
                wnd = sub >> (rem - maxlen)
            length = lens[wnd]
            if length == 0 or length > rem:
                break
            run = runs[wnd]
            if run >= 0:
                packed += _ENTRY.pack(entries[wnd])
                adv += run + 1
                pos += length
                continue
            if run == _AC_EOB_RUN:
                pos += length
                eob = _FUSE_EOB
            break
        assert adv < _FUSE_EOB  # so ``advance & 255`` is the symbols' own
        entry = (pos, adv + eob if pos else _FUSE_NONE, packed)
        table.append(distinct.setdefault(entry, entry))
    nothing = (0, _FUSE_NONE, b"")
    table.append(distinct.setdefault(nothing, nothing))  # _FUSE_TAIL
    return table


_AC_FUSED = _build_fused_ac()


def _raise_past_block(k: int, entry_bytes: bytes) -> None:
    """Raise for the first symbol of a fused window to leave the block.

    The hot loop only knows the window's *total* advance overshot; this
    re-walks its entries from ``k``, the index before the window, to
    name the symbol, index and run the scalar decoder's per-coefficient
    check reports.
    """
    for (entry,) in _ENTRY.iter_unpack(entry_bytes):
        run = (entry >> _COEF_SHIFT) - 1
        k += run
        if k >= 64:
            raise BlockSyntaxError(
                f"coefficient index {k} past end of block (run {run})"
            )
        k += 1


#: ``_CODED_BLOCKS[cbp]`` = the blocks (0..5) a coded block pattern codes.
_CODED_BLOCKS: list[tuple[int, ...]] = [
    tuple(i for i in range(6) if cbp & (32 >> i)) for cbp in range(64)
]

#: Initial/reset value of the intra DC predictors (level space).
_DC_RESET = 128

#: Zero bytes after every payload of a window table: a slice reads at
#: most 32 bits past its end (a 24-bit read at its last bit), and its
#: windows up to bit ``8 * len(payload) + 32`` read none of the next.
_GAP = bytes(6)

#: ``_WINDOW_SHIFTS[s]`` cuts the window at bit ``8 j + s`` out of the
#: 32 bits from byte ``j``.
_WINDOW_SHIFTS = (16 - np.arange(8, dtype=np.uint32))[:, None]

#: Payload bytes one window table covers: at 32 table bytes per payload
#: byte, ≈ 0.5 MB, which stays in L2 while its slices are parsed (the
#: ≈ 14 MB of a whole 1408x960 I picture's tables did not).
_TABLE_BYTES = 16 << 10


def bit_windows(
    payloads: Sequence[bytes],
) -> Iterator[tuple[memoryview, memoryview, int]]:
    """``(win, fused, base)`` per payload, ``base`` its first bit in a
    window table over a run of consecutive payloads, each followed by
    ``_GAP``.

    ``win[base + p]`` is the 16 bits of the payload from its bit ``p``,
    big-endian and zero past its end, for every ``p`` up to
    ``8 * len(payload) + 32`` (so a 24-bit read is ``win[q] << 8 |
    win[q + 16] >> 8``); ``fused[base + p]`` is its ``_AC_FUSED`` index
    — the top ``_FUSE_BITS`` bits, or ``_FUSE_TAIL`` where fewer than
    that many bits of the payload are left.  Read from its own base, a
    slice sees exactly its own windows: no read crosses into the next
    payload.  A table covers at most ``_TABLE_BYTES`` of payload (or one
    longer payload) and is built when its first payload's entry is
    taken, so it is still in cache while its slices are parsed.
    """
    first = 0
    while first < len(payloads):
        stop, size = first + 1, len(payloads[first])
        while stop < len(payloads) and size + len(payloads[stop]) <= _TABLE_BYTES:
            size += len(payloads[stop])
            stop += 1
        run, first = payloads[first:stop], stop
        starts = list(accumulate((len(p) + len(_GAP) for p in run), initial=0))
        m = starts.pop()
        by32 = np.ndarray(
            (m,), ">u4", _GAP.join(run) + _GAP + bytes(3), strides=(1,)
        ).astype(np.uint32)
        # One shift into the transposed view, iterated along the bytes: a
        # flat ``repeat(8) >> tile(shifts)`` costs ≈ 5x as much on a
        # picture (four temporaries of 32 bytes per payload byte).
        win = np.empty((m, 8), dtype=np.uint16)
        np.right_shift(
            by32, _WINDOW_SHIFTS, out=win.T, casting="unsafe", order="C"
        )
        win = win.reshape(-1)
        fused = win >> (16 - _FUSE_BITS)
        for start, payload in zip(starts, run):
            tail = max(8 * len(payload) - _FUSE_BITS + 1, 0)
            end = 8 * (start + len(payload) + len(_GAP))
            fused[8 * start + tail : end] = _FUSE_TAIL
        win, fused = memoryview(win), memoryview(fused)
        for start in starts:
            yield win, fused, 8 * start


#: One macroblock record: ``(name, struct code)`` per field.  The
#: address of a 4095x4095 picture's last macroblock is 65535; qscale is
#: at most 62 and cbp 63; a luma half-pel vector component lies in
#: ``[-1024, 1023]`` (``f_code`` is 3 bits, so ``16 << 6`` at most).
_REC_FIELDS = (
    ("addr", "i"), ("intra", "?"), ("f_on", "?"), ("b_on", "?"),
    ("qscale", "B"), ("cbp", "B"),
    ("f_dy", "h"), ("f_dx", "h"), ("b_dy", "h"), ("b_dx", "h"),
)
_REC = Struct("<" + "".join(code for _name, code in _REC_FIELDS))
_REC_DTYPE = np.dtype([(name, "<" + code) for name, code in _REC_FIELDS])
assert _REC_DTYPE.itemsize == _REC.size


class SliceParse:
    """Phase-1 output for one slice: two flat buffers + exact work counters.

    ``records`` holds one fixed-width ``_REC`` record per reconstructed
    macroblock (coded *and* skipped, in address order): address, the
    intra / forward / backward flags, qscale, cbp, and the absolute
    luma half-pel vectors ``(f_dy, f_dx, b_dy, b_dx)``.  ``coef_packed``
    is the self-delimiting coefficient stream (``_COEF_SHIFT``): the
    n-th EOB-delimited group belongs to the n-th set ``cbp`` bit of the
    slice, and ``len(coef_packed) == 4 * (coefficients + intra DC terms
    + idct_blocks)``.  ``alternate_scan`` records which permutation
    phase 2 applies once it has summed the steps into positions.
    """

    __slots__ = (
        "vertical_position",
        "alternate_scan",
        "counters",
        "records",
        "coef_packed",
    )

    def __init__(self, vertical_position: int, counters: WorkCounters) -> None:
        self.vertical_position = vertical_position
        self.alternate_scan = False
        self.counters = counters
        self.records = bytearray()
        self.coef_packed = bytearray()


def _validate_mv(
    dy: int, dx: int, mb_row: int, mb_col: int, luma_h: int, luma_w: int
) -> None:
    """Parse-time replica of ``predict_block``'s bounds predicate.

    Checks the luma 16x16 fetch, including the +1 sample required by
    half-pel phases.  Planes are whole macroblocks, so the chroma fetch
    (the vector halved toward zero) never leaves a plane the luma fetch
    stayed in.  Raising :class:`ValueError` here is what keeps
    corrupt-stream behaviour identical to the scalar path, which raises
    the same class from ``predict_block`` during reconstruction.
    :func:`parse_slice` tests the same predicate as an interval and
    calls this only to raise.
    """
    top = mb_row * 16 + (dy >> 1)
    left = mb_col * 16 + (dx >> 1)
    if (
        top < 0
        or left < 0
        or top + 16 + (dy & 1) > luma_h
        or left + 16 + (dx & 1) > luma_w
    ):
        raise ValueError(
            f"motion vector (dy={dy}, dx={dx}) displaces macroblock "
            f"({mb_row},{mb_col}) outside reference plane ({luma_h}, {luma_w})"
        )


def parse_slice(
    payload: bytes,
    vertical_position: int,
    pic: PictureHeader,
    mb_width: int,
    mb_height: int,
    has_fwd: bool,
    at: tuple[memoryview, memoryview, int] | None = None,
) -> SliceParse:
    """Phase 1: parse one slice payload into a :class:`SliceParse`.

    Performs exactly the bit work of
    :func:`repro.mpeg2.macroblock.decode_slice` — same syntax walk,
    same predictor-state transitions, same exception classes on
    corrupt input — but touches no pixels and makes no per-symbol
    method calls.  The cursor is one int, the bit position ``p``: every
    read is a lookup in a table of 16-bit windows (:func:`bit_windows`)
    shifted down to the symbol's width, and every VLC is bounds-checked
    by one ``0 < length <= end - p`` test against the flattened
    module-level tables.  ``at`` is ``(win, fused, base)``, the payload's
    entry in a table shared by a batch of slices; by default the payload
    gets a table of its own.  The cursor starts at ``base``, and every
    error message and ``counters.bits`` count bits of the slice alone.
    ``has_fwd`` tells the P-picture skipped-macroblock check whether a
    forward reference exists (mirrors the scalar error).
    """
    local = WorkCounters()
    n = len(payload) * 8
    local.bits = n
    local.headers = 1

    row = vertical_position - 1
    if not 0 <= row < mb_height:
        raise SliceDecodeError(
            f"slice vertical position {vertical_position} out of range"
        )
    row_start = row * mb_width
    row_last = row_start + mb_width - 1
    prev_addr = row_start - 1
    luma_h = mb_height * 16
    luma_w = mb_width * 16
    # ``_validate_mv`` as an interval on half-pel vectors: macroblock
    # ``col`` of this row may fetch with (dy, dx) iff
    # ``mv_top <= dy <= mv_bottom`` and ``-32 col <= dx <= mv_right - 32 col``.
    mv_top = -32 * row
    mv_bottom = 2 * (luma_h - 16 - 16 * row)
    mv_right = 2 * (luma_w - 16)

    ptype = pic.picture_type
    is_p = ptype is PictureType.P
    is_b = ptype is PictureType.B
    mt_lens, mt_flags, mt_maxlen, mt_name = _MT_TABLES[ptype]
    mt_shift = 16 - mt_maxlen

    # Per-direction motion parameters (constant over the slice).
    ff = 1 << (pic.forward_f_code - 1)
    f_rbits = pic.forward_f_code - 1
    f_low = -16 * ff
    f_high = 16 * ff - 1
    f_span = 32 * ff
    bf = 1 << (pic.backward_f_code - 1)
    b_rbits = pic.backward_f_code - 1
    b_low = -16 * bf
    b_high = 16 * bf - 1
    b_span = 32 * bf

    # ---- slice header: 5-bit quantiser_scale_code + extra bit ------
    if n < 6:
        # Payloads are whole bytes, so this is the empty slice; same
        # class/message family as BitReader.read_bits.
        _raise_short(5, 0, n)
    win, fused, base = next(bit_windows((payload,))) if at is None else at
    end = base + n
    qscale_code = win[base] >> 11
    if qscale_code == 0:
        raise ValueError("quantiser_scale_code must be nonzero")
    if (win[base] >> 10) & 1:
        raise ValueError("unexpected extra_information_slice")
    p = base + 6
    qscale = qscale_code << 1

    # ---- predictor state, all locals -------------------------------
    dc0 = dc1 = dc2 = _DC_RESET
    pf_dy = pf_dx = pb_dy = pb_dx = 0  # motion-vector predictors
    prev_valid = False  # B skipped-MB rule: previous MB's mode known?
    prev_f_on = prev_b_on = False
    pv_f_dy = pv_f_dx = pv_b_dy = pv_b_dx = 0

    # ---- counters, accumulated in locals ---------------------------
    vlc_symbols = 0
    macroblocks = 0
    mc_macroblocks = 0
    bidir_macroblocks = 0
    idct_blocks = 0
    dc_emits = 0
    mc_pixels = 0
    pixels = 0

    sp = SliceParse(vertical_position=vertical_position, counters=local)
    sp.alternate_scan = pic.alternate_scan
    rec = sp.records
    pack_rec = _REC.pack
    buf = sp.coef_packed
    pack = _ENTRY.pack
    eob_pad = _EOB_PAD

    mba_lens = _MBA_LENS
    mba_inc = _MBA_INC
    mba_shift = 16 - _MBA_MAXLEN
    mc_lens = _MC_LENS
    mc_syms = _MC_SYMS
    mc_shift = 16 - _MC_MAXLEN
    ac_lens = _AC2_LENS
    ac_shift = 24 - _AC2_MAXLEN
    ac_runs = _AC2_RUNS
    ac_entries = _AC2_ENTRIES
    ac_fused = _AC_FUSED
    coded_blocks = _CODED_BLOCKS

    while prev_addr < row_last:
        # ---- macroblock address increment (with escape) ------------
        increment = 0
        while True:
            w = win[p] >> mba_shift
            length = mba_lens[w]
            if not 0 < length <= end - p:
                _raise_vlc(
                    MB_ADDRESS_INCREMENT.name, length, p - base, w, _MBA_MAXLEN
                )
            p += length
            vlc_symbols += 1
            inc = mba_inc[w]
            if inc:
                increment += inc
                break
            increment += MBA_ESCAPE_VALUE
        address = prev_addr + increment
        if address > row_last:
            raise SliceDecodeError(
                f"macroblock address {address} beyond end of row {row}"
            )

        # ---- skipped macroblocks -----------------------------------
        for skipped in range(prev_addr + 1, address):
            macroblocks += 1
            if is_p:
                if not has_fwd:
                    raise SliceDecodeError(
                        "P skipped macroblock without forward reference"
                    )
                # Co-located copy == zero-MV forward prediction of a
                # zero residual; the record shares the MC path.
                pixels += _MB_PIXELS
                mc_pixels += _MB_PIXELS
                rec += pack_rec(
                    skipped, False, True, False, qscale, 0, 0, 0, 0, 0
                )
                pf_dy = pf_dx = pb_dy = pb_dx = 0  # reset_pmv
            elif is_b:
                if not prev_valid:
                    raise SliceDecodeError(
                        "B skipped macroblock with no previous mode"
                    )
                if not prev_f_on and not prev_b_on:
                    raise ValueError(
                        "prediction requested with no motion vectors"
                    )
                c32 = (skipped - row_start) << 5
                for on, dy, dx in (
                    (prev_f_on, pv_f_dy, pv_f_dx),
                    (prev_b_on, pv_b_dy, pv_b_dx),
                ):
                    if on and not (
                        mv_top <= dy <= mv_bottom and -c32 <= dx <= mv_right - c32
                    ):
                        _validate_mv(
                            dy, dx, row, skipped - row_start, luma_h, luma_w
                        )
                nrefs = (1 if prev_f_on else 0) + (1 if prev_b_on else 0)
                mc_pixels += nrefs * _MB_PIXELS
                mc_macroblocks += 1
                if prev_f_on and prev_b_on:
                    bidir_macroblocks += 1
                pixels += _MB_PIXELS
                rec += pack_rec(
                    skipped, False, prev_f_on, prev_b_on, qscale, 0,
                    pv_f_dy, pv_f_dx, pv_b_dy, pv_b_dx,
                )
            else:
                raise SliceDecodeError(
                    "skipped macroblocks are illegal in I-pictures"
                )
            dc0 = dc1 = dc2 = _DC_RESET  # reset_dc

        # ---- coded macroblock: macroblock_type ---------------------
        w = win[p] >> mt_shift
        length = mt_lens[w]
        if not 0 < length <= end - p:
            _raise_vlc(mt_name, length, p - base, w, mt_maxlen)
        p += length
        flags = mt_flags[w]
        vlc_symbols += 1
        macroblocks += 1

        if flags & _MT_QUANT:
            if end - p < 5:
                _raise_short(5, p - base, n)
            code = win[p] >> 11
            p += 5
            if code == 0:
                raise SliceDecodeError("macroblock quantiser_scale_code of 0")
            qscale = code << 1

        # ---- motion vectors (dx then dy per direction) -------------
        f_on = False
        fdy = fdx = 0
        if flags & _MT_FWD:
            for comp in (0, 1):
                w = win[p] >> mc_shift
                length = mc_lens[w]
                if not 0 < length <= end - p:
                    _raise_vlc(
                        MOTION_CODE.name, length, p - base, w, _MC_MAXLEN
                    )
                p += length
                code = mc_syms[w]
                if ff == 1 or code == 0:
                    delta = code
                else:
                    if end - p < f_rbits:
                        _raise_short(f_rbits, p - base, n)
                    residual = win[p] >> (16 - f_rbits)
                    p += f_rbits
                    delta = (
                        1 + ff * ((code if code >= 0 else -code) - 1)
                        + residual
                    )
                    if code < 0:
                        delta = -delta
                if comp == 0:
                    value = pf_dx + delta
                else:
                    value = pf_dy + delta
                while value < f_low:
                    value += f_span
                while value > f_high:
                    value -= f_span
                if comp == 0:
                    pf_dx = value
                else:
                    pf_dy = value
            fdy = pf_dy
            fdx = pf_dx
            f_on = True
            vlc_symbols += 2
        b_on = False
        bdy = bdx = 0
        if flags & _MT_BWD:
            for comp in (0, 1):
                w = win[p] >> mc_shift
                length = mc_lens[w]
                if not 0 < length <= end - p:
                    _raise_vlc(
                        MOTION_CODE.name, length, p - base, w, _MC_MAXLEN
                    )
                p += length
                code = mc_syms[w]
                if bf == 1 or code == 0:
                    delta = code
                else:
                    if end - p < b_rbits:
                        _raise_short(b_rbits, p - base, n)
                    residual = win[p] >> (16 - b_rbits)
                    p += b_rbits
                    delta = (
                        1 + bf * ((code if code >= 0 else -code) - 1)
                        + residual
                    )
                    if code < 0:
                        delta = -delta
                if comp == 0:
                    value = pb_dx + delta
                else:
                    value = pb_dy + delta
                while value < b_low:
                    value += b_span
                while value > b_high:
                    value -= b_span
                if comp == 0:
                    pb_dx = value
                else:
                    pb_dy = value
            bdy = pb_dy
            bdx = pb_dx
            b_on = True
            vlc_symbols += 2

        if is_p and not (flags & _MT_INTRA) and not (flags & _MT_FWD):
            # The P no-MC case: zero forward vector, PMV reset (below).
            f_on = True
            fdy = fdx = 0

        # ---- coded block pattern -----------------------------------
        if flags & _MT_CODED:
            w = win[p] >> (16 - _CBP_MAXLEN)
            length = _CBP_LENS[w]
            if not 0 < length <= end - p:
                _raise_vlc(
                    CODED_BLOCK_PATTERN.name, length, p - base, w, _CBP_MAXLEN
                )
            p += length
            cbp = _CBP_SYMS[w]
            vlc_symbols += 1
        elif flags & _MT_INTRA:
            cbp = 63
        else:
            cbp = 0

        # ---- coefficient blocks ------------------------------------
        intra_mb = flags & _MT_INTRA
        blocks = coded_blocks[cbp]
        for i in blocks:
            k = 0  # scan index of the next coefficient
            if intra_mb:
                dc_lens, dc_sizes, dc_maxlen, dc_name = (
                    _DC_LUMA if i < 4 else _DC_CHROMA
                )
                pred = dc0 if i < 4 else dc1 if i == 4 else dc2
                w = win[p] >> (16 - dc_maxlen)
                length = dc_lens[w]
                if not 0 < length <= end - p:
                    _raise_vlc(dc_name, length, p - base, w, dc_maxlen)
                p += length
                size = dc_sizes[w]
                vlc_symbols += 1
                if size:
                    if end - p < size:
                        _raise_short(size, p - base, n)
                    raw = win[p] >> (16 - size)
                    p += size
                    if raw & (1 << (size - 1)):
                        pred += raw
                    else:
                        pred -= raw ^ ((1 << size) - 1)
                if i < 4:
                    dc0 = pred
                elif i == 4:
                    dc1 = pred
                else:
                    dc2 = pred
                buf += pack(pred + 0x1800000)  # DC: step 1, level + 2**23
                dc_emits += 1
                k = 1

            while True:
                # Fused fast path: one lookup appends the pre-packed
                # entries of every complete run/level symbol in the
                # window.  ``k`` only grows, so one bound check per
                # window fails on exactly the windows the per-symbol
                # check would — and on every window an EOB ends or
                # that decodes nothing, by their advance's offsets.
                consumed, adv, entry_bytes = ac_fused[fused[p]]
                k += adv
                if k <= 64:
                    p += consumed
                    buf += entry_bytes
                    continue
                k -= adv
                if adv < _FUSE_NONE:
                    # The window leaves the block or an EOB closes it,
                    # padding the block from the index its symbols reach.
                    reached = k + (adv & 255)
                    if reached > 64:
                        _raise_past_block(k, entry_bytes)
                    p += consumed
                    buf += entry_bytes
                    buf += eob_pad[reached]
                    break
                # Single-symbol path: exact error positions for
                # corrupt input, plus the rare legal cases the fused
                # table cannot finish (escapes, window-straddling
                # codewords, the stream tail).
                w = ((win[p] << 8) | (win[p + 16] >> 8)) >> ac_shift
                length = ac_lens[w]
                if not 0 < length <= end - p:
                    _raise_ac(length, p - base, n, w)
                p += length
                run = ac_runs[w]
                if run >= 0:
                    k += run
                    if k >= 64:
                        raise BlockSyntaxError(
                            f"coefficient index {k} past end of block "
                            f"(run {run})"
                        )
                    buf += pack(ac_entries[w])
                    k += 1
                    continue
                if run == _AC_EOB_RUN:
                    buf += eob_pad[k]
                    break
                # Escape: 6-bit run + 12-bit signed level, read (and
                # bounds-checked) as the scalar decoder's two fields.
                if end - p < _ESC_BITS:
                    if end - p < ESCAPE_RUN_BITS:
                        _raise_short(ESCAPE_RUN_BITS, p - base, n)
                    _raise_short(
                        ESCAPE_LEVEL_BITS, p - base + ESCAPE_RUN_BITS, n
                    )
                v = ((win[p] << 8) | (win[p + 16] >> 8)) >> (24 - _ESC_BITS)
                p += _ESC_BITS
                run = v >> ESCAPE_LEVEL_BITS
                raw = v & (_ESC_LEVEL_SPAN - 1)
                level = raw - _ESC_LEVEL_SPAN if raw & _ESC_LEVEL_SIGN else raw
                if level == 0:
                    raise BlockSyntaxError("escape-coded level of 0")
                k += run
                if k >= 64:
                    raise BlockSyntaxError(
                        f"coefficient index {k} past end of block "
                        f"(run {run})"
                    )
                buf += pack(((run + 1) << 24) | (level + 0x800000))
                k += 1
        idct_blocks += len(blocks)

        # ---- record + post-macroblock predictor updates ------------
        if intra_mb:
            pixels += _MB_PIXELS
            rec += pack_rec(
                address, True, False, False, qscale, cbp, 0, 0, 0, 0
            )
            pf_dy = pf_dx = pb_dy = pb_dx = 0  # reset_pmv
            prev_valid = False
        else:
            if not f_on and not b_on:
                raise ValueError("prediction requested with no motion vectors")
            c32 = (address - row_start) << 5
            if f_on and not (
                mv_top <= fdy <= mv_bottom and -c32 <= fdx <= mv_right - c32
            ):
                _validate_mv(fdy, fdx, row, address - row_start, luma_h, luma_w)
            if b_on and not (
                mv_top <= bdy <= mv_bottom and -c32 <= bdx <= mv_right - c32
            ):
                _validate_mv(bdy, bdx, row, address - row_start, luma_h, luma_w)
            nrefs = (1 if f_on else 0) + (1 if b_on else 0)
            mc_pixels += nrefs * _MB_PIXELS
            mc_macroblocks += 1
            if nrefs == 2:
                bidir_macroblocks += 1
            pixels += _MB_PIXELS
            rec += pack_rec(
                address, False, f_on, b_on, qscale, cbp, fdy, fdx, bdy, bdx
            )
            dc0 = dc1 = dc2 = _DC_RESET  # reset_dc
            if is_p and not (flags & _MT_FWD):
                pf_dy = pf_dx = 0  # no-MC P macroblock: PMV reset
            prev_valid = True
            prev_f_on = bool(flags & _MT_FWD) or is_p
            prev_b_on = bool(flags & _MT_BWD)
            if f_on:
                pv_f_dy = fdy
                pv_f_dx = fdx
            else:
                pv_f_dy = pv_f_dx = 0
            if b_on:
                pv_b_dy = bdy
                pv_b_dx = bdx
            else:
                pv_b_dy = pv_b_dx = 0
        prev_addr = address

    ncp = len(buf) >> 2
    # The AC loop keeps no per-symbol counter: every entry is one AC
    # symbol — a run/level pair or a block's closing EOB (one per
    # coded block, ``idct_blocks`` in total) — except the intra DC
    # terms, so AC symbols = ncp - dc_emits and coefficients are what
    # is left once the EOBs go too.
    local.vlc_symbols = vlc_symbols + ncp - dc_emits
    local.macroblocks = macroblocks
    local.mc_macroblocks = mc_macroblocks
    local.bidir_macroblocks = bidir_macroblocks
    local.idct_blocks = idct_blocks
    local.coefficients = ncp - dc_emits - idct_blocks
    local.mc_pixels = mc_pixels
    local.pixels = pixels
    return sp


# ======================================================================
# phase 2: reconstruct
# ======================================================================
class PictureAssembly:
    """One picture's slice parses concatenated into NumPy arrays.

    ``rec_idx``/``blk_idx`` enumerate the coded blocks of the picture
    (the IDCT batch members) in record order — the order their
    EOB-delimited groups appear in the coefficient stream, so a
    group's ordinal *is* its IDCT batch row.  ``coef_idx``/``coef_val``
    are the picture-wide sparse coefficients, indices
    ``batch_row * 64 + raster_pos``.
    """

    __slots__ = (
        "n",
        "addr",
        "intra",
        "qscale",
        "cbp",
        "f_on",
        "f_dy",
        "f_dx",
        "b_on",
        "b_dy",
        "b_dx",
        "coef_idx",
        "coef_val",
        "rec_idx",
        "blk_idx",
    )


_BLOCK_BITS = np.int64(32) >> np.arange(6)


def assemble_picture(slices: list[SliceParse]) -> PictureAssembly:
    """Read a picture's slice parses as one flat assembly.

    Slices must cover distinct macroblock rows (the decoder drops
    superseded duplicates before calling) — record order therefore
    never affects pixels, because every record scatters to a distinct
    macroblock address.

    The joined records are one structured ``np.frombuffer``, whose
    fields the assembly holds as views; the joined coefficient stream
    is another, and one cumsum of its steps gives ``64 * block ordinal
    + scan position + 1`` at every coefficient (an EOB is an entry of
    value 0).  Which ``(record, block)`` an ordinal means is never
    stored — it is the ordinal-th set ``cbp`` bit — so a stream whose
    EOB count disagrees with ``cbp`` raises instead of scattering
    coefficients into the wrong blocks.
    """
    asm = PictureAssembly()
    rec = np.frombuffer(b"".join([s.records for s in slices]), _REC_DTYPE)
    asm.n = rec.size
    asm.addr = rec["addr"].astype(np.intp)
    for name in ("intra", "qscale", "cbp", "f_on", "f_dy", "f_dx",
                 "b_on", "b_dy", "b_dx"):
        setattr(asm, name, rec[name])
    coded = (asm.cbp[:, None] & _BLOCK_BITS) != 0  # (n, 6)
    asm.rec_idx, asm.blk_idx = np.nonzero(coded)

    arr = np.frombuffer(b"".join([s.coef_packed for s in slices]), "<i4")
    value = arr & _COEF_VMASK
    coef = value != 0
    sums = np.cumsum(arr >> _COEF_SHIFT, dtype=np.intp)[coef]
    n_eob = arr.size - sums.size
    if n_eob != asm.rec_idx.size:
        raise RuntimeError(
            f"coefficient stream closes {n_eob} blocks but the coded "
            f"block patterns announce {asm.rec_idx.size}"
        )
    asm.coef_idx = step_sums_to_raster(
        sums, bool(slices) and slices[0].alternate_scan
    )
    asm.coef_val = value[coef] - _COEF_BIAS
    return asm


@lru_cache(maxsize=8)
def _multipliers(intra_w: bytes, non_intra_w: bytes) -> np.ndarray:
    """Read-only flat ``(intra, quantiser_scale_code, raster)`` table of
    float64 multipliers for a pair of quant matrices (int64 bytes):
    ``W / 32 * q`` non-intra, ``W / 16 * q`` intra, 8 at intra DC."""
    q = np.arange(0, 64, 2)[:, None]  # quantiser_scale of each code
    table = np.stack((
        np.frombuffer(non_intra_w, np.int64) * 0.03125 * q,
        np.frombuffer(intra_w, np.int64) * 0.0625 * q,
    ))
    table[1, :, 0] = INTRA_DC_STEP  # intra DC: fixed step, no qscale
    table = table.reshape(-1)
    table.flags.writeable = False
    return table


def _dequantise(asm: PictureAssembly, seq: SequenceHeader) -> np.ndarray:
    """Dense ``(m, 8, 8)`` float64 coefficients of the coded blocks.

    Dequantises the sparse stream as it stands — a zero level stays
    zero, so only coded coefficients are scaled, clipped and summed.
    Each is multiplied by one gather from :func:`_multipliers` at its
    block's intra flag and quantiser_scale_code and its raster
    position: ``W * q / 16`` on an intra level, 8 on the intra DC
    level, ``W * q / 32`` on a non-intra ``2 * level + sign(level)``.
    Every intermediate is an integer below ``2**27`` plus power-of-two
    fraction bits, exact in float64, so this equals the int64
    :func:`~repro.mpeg2.quant.dequantize_non_intra` bit for bit — and
    so do the dense rows' sums, from which mismatch control toggles
    (7,7) of the even blocks.
    """
    m = asm.rec_idx.size
    idx = asm.coef_idx
    # Table row of each block (intra * 32 + quantiser_scale_code) as an
    # offset from the block's own base in ``coef_idx``.
    row = ((asm.intra.astype(np.intp) << 5) | (asm.qscale >> 1))[asm.rec_idx]
    key = idx + ((row - np.arange(m)) << 6)[idx >> 6]
    mult = _multipliers(
        np.asarray(seq.intra_quant_matrix, np.int64).tobytes(),
        np.asarray(seq.non_intra_quant_matrix, np.int64).tobytes(),
    )[key]
    lv = asm.coef_val
    # ``2 * level + sign(level)`` where non-intra, ``level`` where intra.
    f = (lv + (key < 2048) * (lv + np.sign(lv))) * mult
    np.trunc(f, out=f)
    np.clip(f, COEFF_MIN, COEFF_MAX, out=f)
    dense = np.zeros((m, 64), dtype=np.float64)
    dense.reshape(-1)[idx] = f
    # Exact row sums (integers far below 2**53, in any order); einsum's
    # plain loop is ≈ 2.5x ``sum(axis=1)``'s, and needs no BLAS threads.
    even = np.einsum("ij->i", dense) % 2 == 0
    last = dense[:, 63]
    last += even * (1.0 - 2.0 * (last % 2))
    return dense.reshape(m, 8, 8)


def gop_dequant_idct(
    assemblies: list[PictureAssembly], seq: SequenceHeader
) -> list[np.ndarray]:
    """Inverse quantization + IDCT of each assembly's coded blocks.

    Dequant and IDCT depend only on levels, quantiser scales and the
    sequence quant matrices — never on reference frames.  Each assembly
    gets one :func:`_dequantise` and **one**
    :func:`~repro.mpeg2.dct.idct_rounded` call over its coded blocks
    (``scipy.fft``'s IDCT is batch-size invariant, so this is
    bit-identical to per-macroblock calls).  The decoders call it once
    per picture, from :func:`reconstruct_slices`; it accepts many.
    Returns one ``(m, 8, 8)`` int32 residual per assembly, row ``j``
    block ``(rec_idx[j], blk_idx[j])``; uncoded blocks have no row.
    """
    total = sum(a.rec_idx.size for a in assemblies)
    if total == 0:
        return [np.zeros((0, 8, 8), dtype=np.int32) for _ in assemblies]
    with trace_span(
        "kernel.dequant_idct",
        cat="kernel",
        blocks=int(total),
        pictures=len(assemblies),
    ):
        return [idct_rounded(_dequantise(a, seq)) for a in assemblies]


def mc_scatter(
    asm: PictureAssembly,
    residual: np.ndarray,
    out: Frame,
    fwd: Frame | None,
    bwd: Frame | None,
) -> None:
    """Motion-compensate one picture and scatter its pixels into ``out``.

    ``residual`` is the picture's ``(m, 8, 8)`` coded-block residual
    (from :func:`gop_dequant_idct`).  This stage is the only part of
    phase 2 that must run per picture in coding order — it reads the
    previously reconstructed reference frames.

    A macroblock is an int16 ``(24, 16)`` tile, luma over Cb | Cr, so
    block ``b`` of the standard six is tile block ``(b >> 1, b & 1)``.
    Predictions land in one tile stack (zero for intra macroblocks),
    the residual in a zeroed second one through its block view; one
    add, one clip, one scatter per plane.  The module docstring says
    why int16 cannot overflow.
    """
    n = asm.n
    if n == 0:
        return
    mbw = out.mb_width
    rows = asm.addr // mbw
    cols = asm.addr % mbw
    tile = np.zeros((n, 24, 16), dtype=np.int16)

    f_on = asm.f_on
    b_on = asm.b_on
    if f_on.any() or b_on.any():
        with trace_span(
            "kernel.mc", cat="kernel", macroblocks=int((f_on | b_on).sum())
        ):
            predict_macroblocks(tile, rows, cols, (
                (fwd, f_on, asm.f_dy, asm.f_dx),
                (bwd, b_on, asm.b_dy, asm.b_dx),
            ))

    # ---- residual add, clip, one scatter per plane -------------------
    with trace_span("kernel.scatter", cat="kernel", macroblocks=n):
        if residual.size:
            # Copying each block into a zeroed canvas and adding it
            # whole beats a fancy ``+=`` on the tile, which gathers,
            # adds and scatters back every block (~0.2 vs ~0.4 ms a
            # 352x240 picture).
            canvas = np.zeros_like(tile)
            blk = asm.blk_idx
            canvas.reshape(n, 3, 8, 2, 8).transpose(0, 1, 3, 2, 4)[
                asm.rec_idx, blk >> 1, blk & 1
            ] = residual
            tile += canvas
        np.clip(tile, 0, 255, out=tile)
        mbh = out.mb_height
        out.y.reshape(mbh, 16, mbw, 16)[rows, :, cols, :] = tile[:, :16]
        out.cb.reshape(mbh, 8, mbw, 8)[rows, :, cols, :] = tile[:, 16:, :8]
        out.cr.reshape(mbh, 8, mbw, 8)[rows, :, cols, :] = tile[:, 16:, 8:]


def reconstruct_slices(
    slices: list[SliceParse],
    seq: SequenceHeader,
    pic: PictureHeader,
    out: Frame,
    fwd: Frame | None,
    bwd: Frame | None,
) -> None:
    """Phase 2: reconstruct one picture from its slice parses.

    Assembly, one dequant + IDCT over the picture's coded blocks, then
    motion compensation and the pixel scatter into ``out``.  Every
    batched decode runs phase 2 here, through the picture kernel's
    :func:`repro.mpeg2.kernel.reconstruct` (a whole picture, or one
    slice-parallel batch of it).
    """
    del pic  # scan order was applied at parse time
    asm = assemble_picture(slices)
    if asm.n == 0:
        return
    residual = gop_dequant_idct([asm], seq)[0]
    mc_scatter(asm, residual, out, fwd, bwd)
