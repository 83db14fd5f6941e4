"""Macroblock and slice layer: syntax, predictors, reconstruction.

This module implements both directions of the slice payload syntax:

* :func:`encode_slice` serialises a row of macroblock *plans* (the
  encoder's mode decisions) into slice payload bits;
* :func:`decode_slice` parses a slice payload and reconstructs its
  macroblocks into the output frame.

Both share :class:`SliceState` — the DC predictors, motion-vector
predictors (PMVs) and quantiser scale that MPEG threads through a
slice.  All predictors reset at slice boundaries, which is the
property that makes slices independently decodable and thus usable as
parallel tasks (paper Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2 import mv_coding
from repro.mpeg2.blockcoding import (
    block_codes,
    decode_block,
    encode_dc_differential,
    write_codes,
)
from repro.mpeg2.constants import PictureType, quantiser_scale
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.dct import idct_rounded
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader, SliceHeader
from repro.mpeg2.motion import MotionVector
from repro.mpeg2.quant import dequantize_intra, dequantize_non_intra
from repro.mpeg2.reconstruct import (
    copy_macroblock,
    form_prediction,
    write_macroblock,
)
from repro.mpeg2.scan import ALTERNATE, ZIGZAG, unscan_block
from repro.mpeg2.tables import (
    CODED_BLOCK_PATTERN,
    DC_SIZE_CHROMA,
    DC_SIZE_LUMA,
    MB_ADDRESS_INCREMENT,
    MB_TYPE_TABLES,
    MBA_ESCAPE,
    MBA_ESCAPE_VALUE,
    MbMode,
)

#: Initial/reset value of the intra DC predictors (level space).
DC_PREDICTOR_RESET = 128

#: ``_CBP_BLOCK_INDEX[cbp]`` is the array of coded block indices (0..5)
#: for a coded block pattern — precomputed so the hot loop never builds
#: per-macroblock boolean masks.
_CBP_BLOCK_INDEX: tuple[np.ndarray, ...] = tuple(
    np.array([i for i in range(6) if cbp & (32 >> i)], dtype=np.intp)
    for cbp in range(64)
)


#: ``_CBP_BITS[i]`` is block i's bit in a coded block pattern.
_CBP_BITS = 32 >> np.arange(6)


class SliceDecodeError(Exception):
    """Raised on syntactically impossible slice payloads."""


@dataclass
class SliceState:
    """Predictor state threaded through one slice (both directions)."""

    qscale_code: int
    dc_pred: list[int] = field(
        default_factory=lambda: [DC_PREDICTOR_RESET] * 3
    )
    pmv_fwd: MotionVector = MotionVector.ZERO
    pmv_bwd: MotionVector = MotionVector.ZERO
    #: (mc_fwd, mc_bwd) of the previous macroblock — B skipped-MB rule.
    prev_motion: tuple[bool, bool] | None = None
    #: Absolute vectors of the previous macroblock (B skipped-MB rule).
    prev_mv_fwd: MotionVector = MotionVector.ZERO
    prev_mv_bwd: MotionVector = MotionVector.ZERO

    @property
    def qscale(self) -> int:
        return quantiser_scale(self.qscale_code)

    def reset_dc(self) -> None:
        self.dc_pred = [DC_PREDICTOR_RESET] * 3

    def reset_pmv(self) -> None:
        self.pmv_fwd = MotionVector.ZERO
        self.pmv_bwd = MotionVector.ZERO


@dataclass(frozen=True)
class MacroblockPlan:
    """One coded macroblock as decided by the encoder.

    ``levels`` is the (6, 64) scan-ordered quantized coefficient
    array; all-zero rows become uncoded blocks via the CBP.  Motion
    vectors are absolute, in half-pel luma units.
    """

    address: int
    intra: bool
    levels: np.ndarray
    mv_fwd: MotionVector | None = None
    mv_bwd: MotionVector | None = None

    def __post_init__(self) -> None:
        if self.levels.shape != (6, 64):
            raise ValueError(f"levels must be (6, 64), got {self.levels.shape}")
        if self.intra and (self.mv_fwd or self.mv_bwd):
            raise ValueError("intra macroblock with motion vectors")

    @property
    def cbp(self) -> int:
        """Coded block pattern: bit (32 >> i) set if block i has data."""
        return int(self.levels.any(axis=1) @ _CBP_BITS)


def _dc_index(block: int) -> int:
    """DC predictor index for block 0..5: luma, Cb, Cr."""
    return 0 if block < 4 else block - 3


# ======================================================================
# encoding
# ======================================================================
def encode_slice(
    w: BitWriter,
    plans: list[MacroblockPlan],
    row: int,
    mb_width: int,
    qscale_code: int,
    pic: PictureHeader,
) -> None:
    """Serialise the coded macroblocks of one slice (one MB row).

    ``plans`` must be sorted by address, start with the row's first
    macroblock and end with its last (MPEG forbids skipping either).
    Gaps between consecutive plans become skipped macroblocks.
    """
    row_start = row * mb_width
    row_last = row_start + mb_width - 1
    if not plans:
        raise ValueError("a slice must contain at least one macroblock")
    if plans[0].address != row_start or plans[-1].address != row_last:
        raise ValueError(
            "first and last macroblock of a slice cannot be skipped "
            f"(got {plans[0].address}..{plans[-1].address} for row {row})"
        )

    SliceHeader(quantiser_scale_code=qscale_code).write(w)
    state = SliceState(qscale_code=qscale_code)
    # Macroblock syntax is recorded as codewords; the coded blocks are
    # collected and run/level coded in one pass, then merged back in
    # at the positions where each block's syntax belongs.
    header = _CodeList()
    blocks: list[np.ndarray] = []
    block_intra: list[bool] = []
    block_at: list[int] = []
    prev_addr = row_start - 1
    for plan in plans:
        increment = plan.address - prev_addr
        if increment < 1:
            raise ValueError("macroblock addresses must be strictly increasing")
        # Skipped macroblocks update predictor state exactly as the
        # decoder will (see _apply_skip_state).
        for _ in range(increment - 1):
            _apply_skip_state(state, pic.picture_type)
        while increment > 33:
            MB_ADDRESS_INCREMENT.encode(header, MBA_ESCAPE)
            increment -= MBA_ESCAPE_VALUE
        MB_ADDRESS_INCREMENT.encode(header, increment)
        cbp = _encode_macroblock_header(header, plan, state, pic)
        for i in range(6):
            if plan.intra:
                di = _dc_index(i)
                state.dc_pred[di] = encode_dc_differential(
                    header, int(plan.levels[i, 0]), state.dc_pred[di],
                    DC_SIZE_LUMA if i < 4 else DC_SIZE_CHROMA,
                )
            elif not cbp & (32 >> i):
                continue
            blocks.append(plan.levels[i])
            block_intra.append(plan.intra)
            block_at.append(len(header.values))
        prev_addr = plan.address

    values, lengths, per_block = block_codes(
        np.array(blocks, dtype=np.int64).reshape(-1, 64), np.array(block_intra)
    )
    # Header code i sorts at 2i + 1, a block's codes at twice the number
    # of header codes recorded before it: the order they were made in.
    keys = np.concatenate([
        2 * np.arange(len(header.values)) + 1,
        2 * np.repeat(np.array(block_at, dtype=np.int64), per_block),
    ])
    order = np.argsort(keys, kind="stable")
    write_codes(
        w,
        np.concatenate([np.array(header.values, dtype=np.int64), values])[order],
        np.concatenate([np.array(header.lengths, dtype=np.int64), lengths])[order],
    )


class _CodeList:
    """A :class:`BitWriter` stand-in that records ``(value, length)`` codes."""

    def __init__(self) -> None:
        self.values: list[int] = []
        self.lengths: list[int] = []

    def write_bits(self, value: int, nbits: int) -> None:
        if value < 0 or nbits < value.bit_length():
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self.values.append(value)
        self.lengths.append(nbits)

    def write_bit(self, bit: int) -> None:
        self.write_bits(bit & 1, 1)


def _encode_macroblock_header(
    w: _CodeList, plan: MacroblockPlan, state: SliceState, pic: PictureHeader
) -> int:
    """Macroblock type, vectors and CBP of a plan; returns the CBP.

    Leaves the slice state as after the whole macroblock, except for
    the intra DC predictors, which the caller advances block by block.
    """
    ptype = pic.picture_type
    cbp = plan.cbp
    mode = _plan_mode(plan, cbp, ptype)
    MB_TYPE_TABLES[ptype].encode(w, mode)

    if mode.quant:
        w.write_bits(state.qscale_code, 5)

    if mode.mc_fwd:
        assert plan.mv_fwd is not None
        mv_coding.encode_component(
            w, plan.mv_fwd.dx, state.pmv_fwd.dx, pic.forward_f_code
        )
        mv_coding.encode_component(
            w, plan.mv_fwd.dy, state.pmv_fwd.dy, pic.forward_f_code
        )
        state.pmv_fwd = plan.mv_fwd
    if mode.mc_bwd:
        assert plan.mv_bwd is not None
        mv_coding.encode_component(
            w, plan.mv_bwd.dx, state.pmv_bwd.dx, pic.backward_f_code
        )
        mv_coding.encode_component(
            w, plan.mv_bwd.dy, state.pmv_bwd.dy, pic.backward_f_code
        )
        state.pmv_bwd = plan.mv_bwd

    if mode.coded:
        CODED_BLOCK_PATTERN.encode(w, cbp)

    _apply_coded_state(state, mode, plan.mv_fwd, plan.mv_bwd, ptype)
    return cbp


def _plan_mode(plan: MacroblockPlan, cbp: int, ptype: PictureType) -> MbMode:
    """Derive the macroblock_type flags for a plan (encoder side)."""
    if plan.intra:
        return MbMode(intra=True)
    if ptype is PictureType.P:
        if plan.mv_fwd is None:
            raise ValueError("P inter macroblock needs a forward vector")
        if cbp == 0:
            # No coefficients: must signal MC (there is no "nothing" MB).
            return MbMode(mc_fwd=True)
        if plan.mv_fwd == MotionVector.ZERO:
            # The no-MC shortcut: zero vector implied, PMV reset.
            return MbMode(coded=True)
        return MbMode(mc_fwd=True, coded=True)
    if ptype is PictureType.B:
        fwd = plan.mv_fwd is not None
        bwd = plan.mv_bwd is not None
        if not (fwd or bwd):
            raise ValueError("B inter macroblock needs at least one vector")
        return MbMode(mc_fwd=fwd, mc_bwd=bwd, coded=cbp != 0)
    raise ValueError("I-pictures contain only intra macroblocks")


# ======================================================================
# decoding
# ======================================================================
@dataclass
class PictureCodingContext:
    """Everything a slice needs to decode: headers, references, output.

    ``trace``, when set, is an access recorder (see
    :class:`repro.cache.trace.AccessRecorder`) that receives logical
    memory-access events as the slice decodes — the substrate of the
    paper's TangoLite locality study.  It is duck-typed here so the
    codec has no dependency on the cache package.
    """

    seq: SequenceHeader
    pic: PictureHeader
    out: Frame
    fwd: Frame | None = None
    bwd: Frame | None = None
    trace: object | None = None

    @property
    def mb_width(self) -> int:
        return self.out.mb_width


def decode_slice(
    payload: bytes,
    vertical_position: int,
    ctx: PictureCodingContext,
    counters: WorkCounters | None = None,
) -> WorkCounters:
    """Decode one slice payload into ``ctx.out``.

    ``vertical_position`` is the slice start-code value (1-based MB
    row).  Returns the work counters for this slice (also accumulated
    into ``counters`` when given).
    """
    local = WorkCounters()
    local.bits += len(payload) * 8
    local.headers += 1
    if ctx.trace is not None:
        ctx.trace.stream_read(len(payload))
    # Validate the start-code row before touching the header bits: the
    # batched engine rejects an out-of-range slice up front, and the
    # differential fuzz suite pins all engines to the same verdict when
    # a mutant corrupts both the position and the header.
    row = vertical_position - 1
    if not 0 <= row < ctx.out.mb_height:
        raise SliceDecodeError(f"slice vertical position {vertical_position} out of range")
    r = BitReader(payload)
    sh = SliceHeader.read(r)
    state = SliceState(qscale_code=sh.quantiser_scale_code)

    mbw = ctx.mb_width
    row_start = row * mbw
    row_last = row_start + mbw - 1
    prev_addr = row_start - 1
    # Trace emission is opt-in: resolved once per slice so the
    # per-macroblock hot loop carries no callback checks when no cache
    # simulation is attached.
    traced = ctx.trace is not None

    while prev_addr < row_last:
        increment = 0
        while True:
            sym = MB_ADDRESS_INCREMENT.decode(r)
            local.vlc_symbols += 1
            if sym == MBA_ESCAPE:
                increment += MBA_ESCAPE_VALUE
            else:
                increment += sym
                break
        address = prev_addr + increment
        if address > row_last:
            raise SliceDecodeError(
                f"macroblock address {address} beyond end of row {row}"
            )
        for skipped in range(prev_addr + 1, address):
            _decode_skipped(skipped, state, ctx, local, traced)
        _decode_macroblock(r, address, state, ctx, local, traced)
        prev_addr = address

    if counters is not None:
        counters.add(local)
    return local


def _decode_skipped(
    address: int,
    state: SliceState,
    ctx: PictureCodingContext,
    counters: WorkCounters,
    traced: bool = False,
) -> None:
    """Reconstruct a skipped macroblock (never first/last of a slice)."""
    mb_row, mb_col = divmod(address, ctx.mb_width)
    ptype = ctx.pic.picture_type
    counters.macroblocks += 1
    if traced:
        if ptype is PictureType.P:
            _trace_macroblock(ctx, mb_row, mb_col, MotionVector.ZERO, None, 0)
        elif state.prev_motion is not None:
            fwd_on, bwd_on = state.prev_motion
            _trace_macroblock(
                ctx,
                mb_row,
                mb_col,
                state.prev_mv_fwd if fwd_on else None,
                state.prev_mv_bwd if bwd_on else None,
                0,
            )
    if ptype is PictureType.P:
        if ctx.fwd is None:
            raise SliceDecodeError("P skipped macroblock without forward reference")
        copy_macroblock(ctx.out, ctx.fwd, mb_row, mb_col, counters)
        state.reset_pmv()
    elif ptype is PictureType.B:
        if state.prev_motion is None:
            raise SliceDecodeError("B skipped macroblock with no previous mode")
        fwd_on, bwd_on = state.prev_motion
        pred = form_prediction(
            mb_row,
            mb_col,
            state.prev_mv_fwd if fwd_on else None,
            state.prev_mv_bwd if bwd_on else None,
            ctx.fwd,
            ctx.bwd,
            counters,
        )
        counters.mc_macroblocks += 1
        if fwd_on and bwd_on:
            counters.bidir_macroblocks += 1
        zero = np.zeros((6, 8, 8), dtype=np.int32)
        write_macroblock(ctx.out, mb_row, mb_col, zero, pred, counters)
    else:
        raise SliceDecodeError("skipped macroblocks are illegal in I-pictures")
    state.reset_dc()


def parse_macroblock(
    r: BitReader,
    state: SliceState,
    pic: PictureHeader,
    counters: WorkCounters,
) -> tuple[MbMode, MotionVector | None, MotionVector | None, np.ndarray, int]:
    """Phase-1 bit work of one coded macroblock (no pixel operations).

    Decodes macroblock_type, quantiser update, motion vectors, the
    coded block pattern and all coefficient run/levels, updating the
    slice predictor state exactly as the sequential decoder does.
    Returns ``(mode, mv_fwd, mv_bwd, levels, cbp)`` where ``levels`` is
    the (6, 64) scan-ordered level array.  This is the scalar oracle's
    parse; the batched engine's inlined phase 1
    (:func:`repro.mpeg2.batched.parse_slice`) replicates it and is
    pinned to it by the cross-engine parity suite.

    The caller is responsible for :func:`_apply_coded_state` after any
    reconstruction bookkeeping that needs the pre-update state.
    """
    ptype = pic.picture_type
    mode: MbMode = MB_TYPE_TABLES[ptype].decode(r)
    counters.vlc_symbols += 1
    counters.macroblocks += 1

    if mode.quant:
        code = r.read_bits(5)
        if code == 0:
            raise SliceDecodeError("macroblock quantiser_scale_code of 0")
        state.qscale_code = code

    mv_fwd: MotionVector | None = None
    mv_bwd: MotionVector | None = None
    if mode.mc_fwd:
        dx = mv_coding.decode_component(r, state.pmv_fwd.dx, pic.forward_f_code)
        dy = mv_coding.decode_component(r, state.pmv_fwd.dy, pic.forward_f_code)
        mv_fwd = MotionVector(dy=dy, dx=dx)
        state.pmv_fwd = mv_fwd
        counters.vlc_symbols += 2
    if mode.mc_bwd:
        dx = mv_coding.decode_component(r, state.pmv_bwd.dx, pic.backward_f_code)
        dy = mv_coding.decode_component(r, state.pmv_bwd.dy, pic.backward_f_code)
        mv_bwd = MotionVector(dy=dy, dx=dx)
        state.pmv_bwd = mv_bwd
        counters.vlc_symbols += 2

    if ptype is PictureType.P and not mode.intra and not mode.mc_fwd:
        # The P no-MC case: zero forward vector, PMV reset.
        mv_fwd = MotionVector.ZERO

    if mode.coded:
        cbp = CODED_BLOCK_PATTERN.decode(r)
        counters.vlc_symbols += 1
    elif mode.intra:
        cbp = 63
    else:
        cbp = 0

    levels = np.zeros((6, 64), dtype=np.int64)
    for i in range(6):
        if cbp & (32 >> i):
            table = DC_SIZE_LUMA if i < 4 else DC_SIZE_CHROMA
            di = _dc_index(i)
            levels[i], new_pred = decode_block(
                r,
                intra=mode.intra,
                dc_table=table if mode.intra else None,
                dc_predictor=state.dc_pred[di],
                counters=counters,
            )
            if mode.intra:
                state.dc_pred[di] = new_pred

    return mode, mv_fwd, mv_bwd, levels, cbp


def _decode_macroblock(
    r: BitReader,
    address: int,
    state: SliceState,
    ctx: PictureCodingContext,
    counters: WorkCounters,
    traced: bool = False,
) -> None:
    symbols_before = counters.vlc_symbols
    mode, mv_fwd, mv_bwd, levels, cbp = parse_macroblock(
        r, state, ctx.pic, counters
    )
    if traced:
        ctx.trace.table_lookups(counters.vlc_symbols - symbols_before)
    _reconstruct(
        address, mode, mv_fwd, mv_bwd, levels, cbp, state, ctx, counters, traced
    )
    _apply_coded_state(state, mode, mv_fwd, mv_bwd, ctx.pic.picture_type)


def _reconstruct(
    address: int,
    mode: MbMode,
    mv_fwd: MotionVector | None,
    mv_bwd: MotionVector | None,
    levels: np.ndarray,
    cbp: int,
    state: SliceState,
    ctx: PictureCodingContext,
    counters: WorkCounters,
    traced: bool = False,
) -> None:
    mb_row, mb_col = divmod(address, ctx.mb_width)
    coded_index = _CBP_BLOCK_INDEX[cbp]
    if traced:
        _trace_macroblock(ctx, mb_row, mb_col, mv_fwd, mv_bwd, len(coded_index))
    blocks = np.zeros((6, 8, 8), dtype=np.int32)
    if len(coded_index):
        order = ALTERNATE if ctx.pic.alternate_scan else ZIGZAG
        raster = unscan_block(levels[coded_index], order)
        if mode.intra:
            coeffs = dequantize_intra(
                raster, ctx.seq.intra_quant_matrix, state.qscale
            )
        else:
            coeffs = dequantize_non_intra(
                raster, ctx.seq.non_intra_quant_matrix, state.qscale
            )
        blocks[coded_index] = idct_rounded(coeffs)
        counters.idct_blocks += len(coded_index)

    if mode.intra:
        write_macroblock(ctx.out, mb_row, mb_col, blocks, None, counters)
        return

    pred = form_prediction(
        mb_row, mb_col, mv_fwd, mv_bwd, ctx.fwd, ctx.bwd, counters
    )
    counters.mc_macroblocks += 1
    if mv_fwd is not None and mv_bwd is not None:
        counters.bidir_macroblocks += 1
    write_macroblock(ctx.out, mb_row, mb_col, blocks, pred, counters)


# ======================================================================
# shared predictor-state transitions
# ======================================================================
def _apply_coded_state(
    state: SliceState,
    mode: MbMode,
    mv_fwd: MotionVector | None,
    mv_bwd: MotionVector | None,
    ptype: PictureType,
) -> None:
    """Post-macroblock predictor updates (identical both directions)."""
    if mode.intra:
        state.reset_pmv()
        state.prev_motion = None
        return
    state.reset_dc()
    if ptype is PictureType.P and not mode.mc_fwd:
        # No-MC P macroblock: PMV resets along with the implied zero MV.
        state.pmv_fwd = MotionVector.ZERO
    state.prev_motion = (mode.mc_fwd or ptype is PictureType.P, mode.mc_bwd)
    state.prev_mv_fwd = mv_fwd if mv_fwd is not None else MotionVector.ZERO
    state.prev_mv_bwd = mv_bwd if mv_bwd is not None else MotionVector.ZERO


def _apply_skip_state(state: SliceState, ptype: PictureType) -> None:
    """Predictor updates for a skipped macroblock (encoder mirror)."""
    if ptype is PictureType.P:
        state.reset_pmv()
    state.reset_dc()


# ======================================================================
# memory-access tracing (locality study substrate)
# ======================================================================
def _trace_macroblock(
    ctx: PictureCodingContext,
    mb_row: int,
    mb_col: int,
    mv_fwd: MotionVector | None,
    mv_bwd: MotionVector | None,
    coded_blocks: int,
) -> None:
    """Emit the logical memory accesses of one macroblock reconstruction.

    Per plane: the half-pel-expanded reference rectangles read by
    motion compensation, the output rectangles written, and the
    coefficient-buffer traffic of the coded blocks.
    """
    trace = ctx.trace
    if coded_blocks:
        trace.coeff_blocks(coded_blocks)
    y0, x0 = mb_row * 16, mb_col * 16
    for which, mv in (("fwd", mv_fwd), ("bwd", mv_bwd)):
        if mv is None:
            continue
        iy, fy = divmod(mv.dy, 2)
        ix, fx = divmod(mv.dx, 2)
        trace.ref_read(which, "y", y0 + iy, x0 + ix, 16 + (1 if fy else 0),
                       16 + (1 if fx else 0))
        cmv = mv.chroma()
        ciy, cfy = divmod(cmv.dy, 2)
        cix, cfx = divmod(cmv.dx, 2)
        ch = 8 + (1 if cfy else 0)
        cw = 8 + (1 if cfx else 0)
        trace.ref_read(which, "cb", y0 // 2 + ciy, x0 // 2 + cix, ch, cw)
        trace.ref_read(which, "cr", y0 // 2 + ciy, x0 // 2 + cix, ch, cw)
    trace.out_write("y", y0, x0, 16, 16)
    trace.out_write("cb", y0 // 2, x0 // 2, 8, 8)
    trace.out_write("cr", y0 // 2, x0 // 2, 8, 8)
