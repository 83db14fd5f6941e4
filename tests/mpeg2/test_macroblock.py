"""Slice/macroblock layer: encode->decode identity at slice granularity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2.constants import PictureType
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.dct import fdct, idct_rounded
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader, SliceHeader
from repro.mpeg2.macroblock import (
    MacroblockPlan,
    PictureCodingContext,
    SliceDecodeError,
    decode_slice,
    encode_slice,
)
from repro.mpeg2.motion import MotionVector
from repro.mpeg2.quant import dequantize_intra, quantize_intra
from repro.mpeg2.scan import scan_block

W, H = 64, 32  # 4 x 2 macroblocks
MBW = 4


def _seq():
    return SequenceHeader(width=W, height=H)


def _pic(ptype, f=1):
    return PictureHeader(
        temporal_reference=0, picture_type=ptype,
        forward_f_code=f, backward_f_code=f,
    )


def _intra_plan(address, pixels=None, seed=0, qscale=4):
    """A valid intra plan for an arbitrary 16x16x(6 blocks) content."""
    if pixels is None:
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(6, 8, 8))
    seq = _seq()
    levels = quantize_intra(fdct(pixels), seq.intra_quant_matrix, qscale)
    return MacroblockPlan(address=address, intra=True, levels=scan_block(levels))


def _decode(payload, row, ctx):
    counters = WorkCounters()
    decode_slice(payload, row + 1, ctx, counters)
    return counters


def _encode_row(plans, ptype=PictureType.I, qscale_code=2, f=1):
    w = BitWriter()
    encode_slice(w, plans, 0, MBW, qscale_code, _pic(ptype, f))
    w.align()
    return w.getvalue()


class TestIntraSlice:
    def test_roundtrip_reconstruction(self):
        plans = [_intra_plan(a, seed=a) for a in range(MBW)]
        payload = _encode_row(plans, PictureType.I)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(seq=_seq(), pic=_pic(PictureType.I), out=out)
        counters = _decode(payload, 0, ctx)
        assert counters.macroblocks == MBW
        assert counters.idct_blocks == MBW * 6

        # Expected reconstruction: dequant + IDCT of each plan.
        seq = _seq()
        from repro.mpeg2.scan import unscan_block

        for a, plan in enumerate(plans):
            raster = unscan_block(plan.levels)
            recon = np.clip(
                idct_rounded(dequantize_intra(raster, seq.intra_quant_matrix, 4)),
                0, 255,
            )
            y = out.y[:16, 16 * a : 16 * a + 16]
            got = np.stack([
                y[:8, :8], y[:8, 8:], y[8:, :8], y[8:, 8:],
                out.cb[:8, 8 * a : 8 * a + 8], out.cr[:8, 8 * a : 8 * a + 8],
            ])
            assert np.array_equal(got, recon), f"macroblock {a}"

    def test_skipped_mb_illegal_in_I(self):
        # Plans for MBs 0, 2, 3 (gap at 1) — decoder must reject in I.
        plans = [_intra_plan(a, seed=a) for a in (0, 2, 3)]
        payload = _encode_row(plans, PictureType.I)
        ctx = PictureCodingContext(
            seq=_seq(), pic=_pic(PictureType.I), out=Frame.blank(W, H)
        )
        with pytest.raises(SliceDecodeError):
            _decode(payload, 0, ctx)

    def test_slice_must_cover_first_and_last(self):
        with pytest.raises(ValueError):
            _encode_row([_intra_plan(1), _intra_plan(3)])
        with pytest.raises(ValueError):
            _encode_row([_intra_plan(0), _intra_plan(2)])


class TestPSlice:
    def _ref(self, seed=1):
        rng = np.random.default_rng(seed)
        ref = Frame.blank(W, H)
        ref.y[:] = rng.integers(0, 256, size=ref.y.shape)
        ref.cb[:] = rng.integers(0, 256, size=ref.cb.shape)
        ref.cr[:] = rng.integers(0, 256, size=ref.cr.shape)
        return ref

    def test_skipped_mb_copies_colocated(self):
        ref = self._ref()
        zero = np.zeros((6, 64), dtype=np.int64)
        plans = [
            MacroblockPlan(address=0, intra=False, levels=zero,
                           mv_fwd=MotionVector.ZERO),
            MacroblockPlan(address=3, intra=False, levels=zero,
                           mv_fwd=MotionVector.ZERO),
        ]
        payload = _encode_row(plans, PictureType.P)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(
            seq=_seq(), pic=_pic(PictureType.P), out=out, fwd=ref
        )
        counters = _decode(payload, 0, ctx)
        assert counters.macroblocks == MBW
        # Entire row must equal the reference (zero MV, zero residual
        # everywhere, skipped or coded).
        assert np.array_equal(out.y[:16], ref.y[:16])
        assert np.array_equal(out.cb[:8], ref.cb[:8])

    def test_motion_vector_applies(self):
        ref = self._ref(seed=2)
        zero = np.zeros((6, 64), dtype=np.int64)
        mv = MotionVector(dy=4, dx=6)  # 2 down, 3 right in full pels
        plans = [
            MacroblockPlan(address=a, intra=False, levels=zero, mv_fwd=mv)
            for a in range(MBW - 1)
        ] + [MacroblockPlan(address=MBW - 1, intra=False, levels=zero,
                            mv_fwd=MotionVector.ZERO)]
        payload = _encode_row(plans, PictureType.P)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(
            seq=_seq(), pic=_pic(PictureType.P), out=out, fwd=ref
        )
        _decode(payload, 0, ctx)
        # Luma of MB 1 must equal ref shifted by (+2, +3).
        assert np.array_equal(
            out.y[0:16, 16:32], ref.y[2:18, 19:35]
        )

    def test_p_no_mc_mode_resets_pmv(self):
        """A coded-only MB (zero MV) between two moving MBs must not
        inherit the earlier motion vector."""
        ref = self._ref(seed=3)
        zero = np.zeros((6, 64), dtype=np.int64)
        mv = MotionVector(dy=2, dx=2)
        # residual for the middle MB: make one coefficient nonzero so
        # the "coded, no MC" type is selected.
        coded = np.zeros((6, 64), dtype=np.int64)
        coded[0, 1] = 3
        plans = [
            MacroblockPlan(address=0, intra=False, levels=zero, mv_fwd=mv),
            MacroblockPlan(address=1, intra=False, levels=coded,
                           mv_fwd=MotionVector.ZERO),
            MacroblockPlan(address=2, intra=False, levels=zero, mv_fwd=mv),
            MacroblockPlan(address=3, intra=False, levels=zero,
                           mv_fwd=MotionVector.ZERO),
        ]
        payload = _encode_row(plans, PictureType.P)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(
            seq=_seq(), pic=_pic(PictureType.P), out=out, fwd=ref
        )
        _decode(payload, 0, ctx)
        assert np.array_equal(out.y[0:16, 0:16], ref.y[1:17, 1:17])
        assert np.array_equal(out.y[0:16, 32:48], ref.y[1:17, 33:49])


class TestBSlice:
    def test_bidirectional_average(self):
        fwd = Frame.blank(W, H)
        bwd = Frame.blank(W, H)
        fwd.y[:] = 100
        bwd.y[:] = 103
        fwd.cb[:] = fwd.cr[:] = 50
        bwd.cb[:] = bwd.cr[:] = 53
        zero = np.zeros((6, 64), dtype=np.int64)
        plans = [
            MacroblockPlan(
                address=a, intra=False, levels=zero,
                mv_fwd=MotionVector.ZERO, mv_bwd=MotionVector.ZERO,
            )
            for a in range(MBW)
        ]
        payload = _encode_row(plans, PictureType.B)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(
            seq=_seq(), pic=_pic(PictureType.B), out=out, fwd=fwd, bwd=bwd
        )
        counters = _decode(payload, 0, ctx)
        assert counters.bidir_macroblocks == MBW
        assert np.all(out.y[:16] == 102)  # (100+103+1)>>1
        assert np.all(out.cb[:8] == 52)

    def test_b_skip_repeats_previous_mode(self):
        fwd = Frame.blank(W, H)
        bwd = Frame.blank(W, H)
        rng = np.random.default_rng(9)
        fwd.y[:] = rng.integers(0, 256, size=fwd.y.shape)
        bwd.y[:] = rng.integers(0, 256, size=bwd.y.shape)
        zero = np.zeros((6, 64), dtype=np.int64)
        mv = MotionVector(dy=2, dx=0)
        # Coded at 0 and 3 (backward-only, mv); 1 and 2 skipped ->
        # decoder must repeat backward-only prediction with mv.
        plans = [
            MacroblockPlan(address=0, intra=False, levels=zero, mv_bwd=mv),
            MacroblockPlan(address=3, intra=False, levels=zero, mv_bwd=mv),
        ]
        payload = _encode_row(plans, PictureType.B)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(
            seq=_seq(), pic=_pic(PictureType.B), out=out, fwd=fwd, bwd=bwd
        )
        _decode(payload, 0, ctx)
        assert np.array_equal(out.y[0:16, 16:32], bwd.y[1:17, 16:32])
        assert np.array_equal(out.y[0:16, 32:48], bwd.y[1:17, 32:48])


class TestSliceIndependence:
    def test_dc_and_pmv_reset_between_slices(self):
        """Decoding the same slice payload twice (as two different rows)
        must give identical pixels — no state leaks across slices."""
        plans = [_intra_plan(a, seed=a + 40) for a in range(MBW)]
        payload0 = _encode_row(plans, PictureType.I)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(seq=_seq(), pic=_pic(PictureType.I), out=out)
        _decode(payload0, 0, ctx)

        # Same macroblock content, planned for row 1.
        plans_row1 = [
            MacroblockPlan(address=MBW + i, intra=True, levels=p.levels)
            for i, p in enumerate(plans)
        ]
        w = BitWriter()
        encode_slice(w, plans_row1, 1, MBW, 2, _pic(PictureType.I))
        w.align()
        decode_slice(w.getvalue(), 2, ctx, WorkCounters())
        assert np.array_equal(out.y[0:16], out.y[16:32])

    def test_address_overflow_detected(self):
        plans = [_intra_plan(a) for a in range(MBW)]
        payload = _encode_row(plans)
        out = Frame.blank(W, H)
        ctx = PictureCodingContext(seq=_seq(), pic=_pic(PictureType.I), out=out)
        # Feed a row-0 payload claiming to be the last row: fine.
        decode_slice(payload, 2, ctx, WorkCounters())
        # But an out-of-range vertical position must fail.
        with pytest.raises(SliceDecodeError):
            decode_slice(payload, 3, ctx, WorkCounters())
