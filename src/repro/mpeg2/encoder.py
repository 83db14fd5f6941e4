"""MPEG-2 encoder: produces the test streams the decoders consume.

The paper generated its streams with the MPEG Software Simulation
Group encoder; this module plays that role.  The structure matches the
classic reference encoder:

* GOP structure ``I (B B P)*`` with configurable size and I/P distance
  (the paper fixes the distance at 3);
* full-search motion estimation with half-pel refinement and SAD-based
  inter/intra decisions, each run over a whole picture at once;
* one slice per macroblock row (the paper notes its streams, like most
  public ones, have exactly this slice structure);
* optional per-picture proportional rate control for the bit-rate
  robustness experiment (paper Section 3).

The encoder's reconstruction loop *is* the decoder: every reference
picture is decoded back from its own coded bits by the batched engine,
making encoder references and decoder output bit-exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitstream import (
    GROUP_START_CODE,
    PICTURE_START_CODE,
    SEQUENCE_HEADER_CODE,
    BitWriter,
)
from repro.mpeg2.constants import PictureType, quantiser_scale
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.dct import fdct
from repro.mpeg2.frame import Frame
from repro.mpeg2.gop import GopStructure
from repro.mpeg2.headers import GopHeader, PictureHeader, SequenceHeader
from repro.mpeg2.kernel import (
    parse_slices,
    reconstruct,
    reference_frames,
    reference_table,
)
from repro.mpeg2.macroblock import MacroblockPlan, encode_slice
from repro.mpeg2.motion import (
    MotionVector,
    intra_activity,
    macroblock_view,
    predict_macroblocks,
    search_picture,
)
from repro.mpeg2.mv_coding import required_f_code
from repro.mpeg2.quant import quantize_intra, quantize_non_intra
from repro.mpeg2.scan import ALTERNATE, ZIGZAG, scan_block


@dataclass
class EncoderConfig:
    """Knobs of the encoder.

    ``qscale_code`` sets the base quantiser (1..31, quantiser scale is
    twice that).  When ``target_bits_per_picture`` is set, a simple
    proportional controller adapts the quantiser toward that budget —
    enough to produce the "widely varying bit rates" of the paper's
    Section 3 robustness check.
    """

    gop_size: int = 13
    ip_distance: int = 3
    qscale_code: int = 8
    search_range: int = 7
    frame_rate_code: int = 5
    bit_rate: int = 5_000_000
    target_bits_per_picture: int | None = None
    #: Use the MPEG-2 alternate coefficient scan (interlace-oriented).
    alternate_scan: bool = False
    #: Inter mode wins when its SAD <= intra activity + this bias.
    inter_bias: int = 64
    #: Bidirectional mode gets this SAD head start over fwd/bwd-only.
    bi_bias: int = 128

    def __post_init__(self) -> None:
        if not 1 <= self.qscale_code <= 31:
            raise ValueError(f"qscale_code out of range: {self.qscale_code}")
        if self.search_range < 1:
            raise ValueError("search_range must be >= 1")

    def check_frame_count(self, count: int) -> None:
        """Raise ``ValueError`` unless ``count`` pictures are whole GOPs."""
        if count < 1:
            raise ValueError("cannot encode an empty sequence")
        if count % self.gop_size != 0:
            raise ValueError(
                f"frame count {count} is not a whole number of "
                f"{self.gop_size}-picture GOPs"
            )


@dataclass
class _PicturePlan:
    """Mode decisions for one picture: plans per slice row + MV stats."""

    rows: list[list[MacroblockPlan]]
    max_fwd_component: int
    max_bwd_component: int


class _RateController:
    """Proportional quantiser adaptation toward a per-picture bit budget."""

    def __init__(self, base_code: int, target_bits: int | None) -> None:
        self._q = float(base_code)
        self._target = target_bits

    @property
    def qscale_code(self) -> int:
        return int(round(min(max(self._q, 1.0), 31.0)))

    def update(self, actual_bits: int) -> None:
        if self._target is None or actual_bits <= 0:
            return
        ratio = actual_bits / self._target
        # Square-root damping keeps the loop stable across scene cuts.
        self._q = min(max(self._q * ratio**0.5, 1.0), 31.0)


def encode_sequence(frames: list[Frame], config: EncoderConfig | None = None) -> bytes:
    """Encode ``frames`` (display order) into a framed MPEG-2 stream."""
    # Imported here: assembly imports bitstream only, no cycle, but keep
    # the module namespace minimal at import time.
    from repro.mpeg2.assembly import StreamAssembler

    config = config or EncoderConfig()
    config.check_frame_count(len(frames))
    width = frames[0].display_width
    height = frames[0].display_height
    for f in frames:
        if (f.display_width, f.display_height) != (width, height):
            raise ValueError("all frames must share one display size")

    seq = SequenceHeader(
        width=width,
        height=height,
        frame_rate_code=config.frame_rate_code,
        bit_rate=config.bit_rate,
    )
    structure = GopStructure(config.gop_size, config.ip_distance)

    assembler = StreamAssembler()
    w = BitWriter()
    seq.write(w)
    assembler.add_segment(SEQUENCE_HEADER_CODE, w.getvalue())

    rate = _RateController(config.qscale_code, config.target_bits_per_picture)
    for gop_start in range(0, len(frames), config.gop_size):
        gop_frames = frames[gop_start : gop_start + config.gop_size]
        _encode_gop(
            gop_frames, gop_start, seq, structure, config, assembler, rate
        )
    assembler.add_sequence_end()
    return assembler.getvalue()


def _encode_gop(
    gop_frames: list[Frame],
    gop_start: int,
    seq: SequenceHeader,
    structure: GopStructure,
    config: EncoderConfig,
    assembler,
    rate: _RateController,
) -> None:
    w = BitWriter()
    GopHeader(
        time_code_pictures=gop_start,
        closed_gop=True,
        broken_link=False,
        frame_rate=seq.frame_rate,
    ).write(w)
    assembler.add_segment(GROUP_START_CODE, w.getvalue())

    order = structure.coding_order()
    types = [structure.type_of(display_idx) for display_idx in order]
    recons: list[Frame | None] = []
    for display_idx, ptype, refs in zip(order, types, reference_table(types)):
        fwd, bwd = reference_frames(refs, recons)
        recons.append(
            _encode_picture(
                gop_frames[display_idx], display_idx, ptype, fwd, bwd,
                seq, config, assembler, rate,
            )
        )


def _encode_picture(
    source: Frame,
    temporal_reference: int,
    ptype: PictureType,
    fwd: Frame | None,
    bwd: Frame | None,
    seq: SequenceHeader,
    config: EncoderConfig,
    assembler,
    rate: _RateController,
) -> Frame | None:
    """Encode one picture; returns its reconstruction if it is a reference."""
    qscale_code = rate.qscale_code
    plan = _decide_modes(source, ptype, fwd, bwd, config, seq, qscale_code)

    header = PictureHeader(
        temporal_reference=temporal_reference,
        picture_type=ptype,
        forward_f_code=required_f_code(plan.max_fwd_component),
        backward_f_code=required_f_code(plan.max_bwd_component),
        alternate_scan=config.alternate_scan,
    )
    w = BitWriter()
    header.write(w)
    picture_bits = 8 * assembler.add_segment(PICTURE_START_CODE, w.getvalue())

    slice_payloads: list[bytes] = []
    mbw = source.mb_width
    for row, row_plans in enumerate(plan.rows):
        w = BitWriter()
        encode_slice(w, row_plans, row, mbw, qscale_code, header)
        w.align()
        payload = w.getvalue()
        slice_payloads.append(payload)
        picture_bits += 8 * assembler.add_segment(row + 1, payload)
    rate.update(picture_bits)

    if not ptype.is_reference:
        return None
    # Decode-back reconstruction: references are rebuilt from the coded
    # bits by the decoder's picture kernel, so encoder refs == decoder
    # output bit-for-bit.
    out = Frame.blank(source.display_width, source.display_height)
    out.temporal_reference = temporal_reference
    coded = [(row + 1, payload, True) for row, payload in enumerate(slice_payloads)]
    parses, _ = parse_slices(
        coded, header, mbw, source.mb_height, fwd is not None,
        resilient=False, counters=WorkCounters(),
    )
    reconstruct(out, parses, seq, header, fwd, bwd)
    return out


# ======================================================================
# mode decision
# ======================================================================
def _decide_modes(
    source: Frame,
    ptype: PictureType,
    fwd: Frame | None,
    bwd: Frame | None,
    config: EncoderConfig,
    seq: SequenceHeader,
    qscale_code: int,
) -> _PicturePlan:
    """Choose every macroblock's mode and levels, a picture at a time.

    One motion search per reference covers all macroblocks, the
    inter/intra (and fwd/bwd/bi) decisions are array comparisons, and
    the forward DCT and quantiser run once over the intra and once over
    the inter block stack.  Only the skip rule, which looks at the
    previous coded macroblock of the row, walks the macroblocks.
    """
    qscale = quantiser_scale(qscale_code)
    order = ALTERNATE if config.alternate_scan else ZIGZAG
    mbw, mbh = source.mb_width, source.mb_height
    n = mbw * mbh
    luma = macroblock_view(source.y)
    cur = _block_stack(luma, macroblock_view(source.cb, 8), macroblock_view(source.cr, 8))
    intra = np.ones(n, dtype=bool)
    mv_fwd = mv_bwd = np.zeros((n, 2), dtype=np.int64)
    use_fwd = use_bwd = np.zeros(n, dtype=bool)

    if ptype is not PictureType.I:
        assert fwd is not None
        mv_fwd, best_sad, pred_f = search_picture(source.y, fwd.y, config.search_range)
        use_fwd = np.ones(n, dtype=bool)
        if ptype is PictureType.B:
            assert bwd is not None
            mv_bwd, sad_b, pred_b = search_picture(source.y, bwd.y, config.search_range)
            pred_bi = (pred_f + pred_b + 1) >> 1
            sad_bi = np.abs(pred_bi - luma).sum(axis=(1, 2))
            options = np.stack([best_sad, sad_b, sad_bi - config.bi_bias])
            choice = np.argmin(options, axis=0)  # the first minimum, as min()
            best_sad = options.min(axis=0)
            use_fwd, use_bwd = choice != 1, choice != 0
        intra = best_sad > intra_activity(luma) + config.inter_bias

    levels = np.empty((n, 6, 64), dtype=np.int64)
    inter = ~intra
    use_fwd, use_bwd = use_fwd & inter, use_bwd & inter
    if intra.any():
        coeffs = fdct(cur[intra])
        levels[intra] = scan_block(
            quantize_intra(coeffs, seq.intra_quant_matrix, qscale), order
        )
    if inter.any():
        # The decoder's motion compensation, so the residual is taken
        # against exactly the prediction the decoder will form.
        mbs = np.flatnonzero(inter)
        pred = np.zeros((len(mbs), 24, 16), dtype=np.int16)
        predict_macroblocks(pred, mbs // mbw, mbs % mbw, (
            (fwd, use_fwd[inter], mv_fwd[inter, 0], mv_fwd[inter, 1]),
            (bwd, use_bwd[inter], mv_bwd[inter, 0], mv_bwd[inter, 1]),
        ))
        pred = _block_stack(pred[:, :16], pred[:, 16:, :8], pred[:, 16:, 8:])
        coeffs = fdct(cur[inter] - pred)
        levels[inter] = scan_block(
            quantize_non_intra(coeffs, seq.non_intra_quant_matrix, qscale), order
        )
    cbp = levels.any(axis=2) @ (32 >> np.arange(6))
    vf = [MotionVector(*v) if u else None for v, u in zip(mv_fwd.tolist(), use_fwd)]
    vb = [MotionVector(*v) if u else None for v, u in zip(mv_bwd.tolist(), use_bwd)]

    rows: list[list[MacroblockPlan]] = []
    for row in range(mbh):
        plans: list[MacroblockPlan] = []
        for address in range(row * mbw, (row + 1) * mbw):
            plan = MacroblockPlan(
                address=address, intra=bool(intra[address]),
                levels=levels[address], mv_fwd=vf[address], mv_bwd=vb[address],
            )
            first_or_last = address % mbw in (0, mbw - 1)
            if not _can_skip(plan, int(cbp[address]), plans, ptype, first_or_last):
                plans.append(plan)
        rows.append(plans)
    return _PicturePlan(
        rows=rows,
        max_fwd_component=int(np.abs(mv_fwd[use_fwd]).max(initial=0)),
        max_bwd_component=int(np.abs(mv_bwd[use_bwd]).max(initial=0)),
    )


def _block_stack(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """(n, 6, 8, 8) int32 blocks from (n, 16, 16) luma + (n, 8, 8) chroma."""
    out = np.empty((len(y), 6, 8, 8), dtype=np.int32)
    out[:, :4] = y.reshape(-1, 2, 8, 2, 8).swapaxes(2, 3).reshape(-1, 4, 8, 8)
    out[:, 4] = cb
    out[:, 5] = cr
    return out


def _can_skip(
    plan: MacroblockPlan,
    cbp: int,
    previous: list[MacroblockPlan],
    ptype: PictureType,
    first_or_last: bool,
) -> bool:
    """MPEG skipped-macroblock legality + profitability check."""
    if first_or_last or plan.intra or cbp != 0:
        return False
    if ptype is PictureType.P:
        # P skip reconstructs a co-located copy: requires the zero vector.
        return plan.mv_fwd == MotionVector.ZERO
    if ptype is PictureType.B:
        # B skip repeats the mode and vectors of the last *coded*
        # macroblock (skipped ones don't change that state, so chains
        # of skips against the same coded MB are fine).
        if not previous:
            return False
        prev = previous[-1]
        if prev.intra:
            return False
        return prev.mv_fwd == plan.mv_fwd and prev.mv_bwd == plan.mv_bwd
    return False
