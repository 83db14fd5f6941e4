"""Property-based slice syntax test: arbitrary macroblock plans.

For random (but legal) sequences of intra/inter macroblock plans, the
encode->decode slice path must reproduce *exactly* the reconstruction
computed directly from the plans with the shared numeric primitives —
this exercises the predictor threading (DC, PMV), skip handling, CBP
logic and VLC coding as one system.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bitstream import BitWriter
from repro.mpeg2.constants import PictureType
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.dct import idct_rounded
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader
from repro.mpeg2.macroblock import (
    MacroblockPlan,
    PictureCodingContext,
    decode_slice,
    encode_slice,
)
from repro.mpeg2.motion import MotionVector
from repro.mpeg2.quant import dequantize_intra, dequantize_non_intra
from repro.mpeg2.reconstruct import (
    form_prediction,
    write_macroblock,
)
from repro.mpeg2.scan import unscan_block

W, H = 80, 32  # 5 x 2 macroblocks
MBW = 5
QSCALE_CODE = 4  # quantiser scale 8


def _seq():
    return SequenceHeader(width=W, height=H)


def _ref(seed):
    rng = np.random.default_rng(seed)
    ref = Frame.blank(W, H)
    ref.y[:] = rng.integers(0, 256, size=ref.y.shape)
    ref.cb[:] = rng.integers(0, 256, size=ref.cb.shape)
    ref.cr[:] = rng.integers(0, 256, size=ref.cr.shape)
    return ref


# Strategy: a few sparse nonzero levels per macroblock.
levels_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),     # block index
        st.integers(1, 63),    # scan position (AC only, keeps DC simple)
        st.integers(-30, 30),  # level
    ),
    max_size=10,
)

# Motion vectors within +/-3 full pels (safe for interior MBs; border
# MBs are forced to stay inside by clamping below).
mv_strategy = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def plan_row(draw):
    """A full row of macroblock decisions for a P-picture slice."""
    plans = []
    for col in range(MBW):
        kind = draw(st.sampled_from(["intra", "inter", "zero"]))
        levels = np.zeros((6, 64), dtype=np.int64)
        for b, k, v in draw(levels_strategy):
            levels[b, k] = v
        if kind == "intra":
            levels[:, 0] = draw(st.integers(1, 254))  # DC per block
            plans.append(
                MacroblockPlan(address=col, intra=True, levels=levels)
            )
        else:
            if kind == "zero":
                mv = MotionVector.ZERO
            else:
                # Horizontal motion only: the test frame is 2 MB rows
                # tall, so vertical displacement would leave the plane
                # for either row the slice is placed on.  Clamp dx so
                # the half-pel window stays inside.
                _, dx = draw(mv_strategy)
                max_dx = 2 * (W - 16 - col * 16) - 2
                min_dx = -2 * (col * 16)
                dx = max(min(dx, max_dx), min_dx)
                mv = MotionVector(dy=0, dx=dx)
            plans.append(
                MacroblockPlan(
                    address=col, intra=False, levels=levels, mv_fwd=mv
                )
            )
    return plans


def expected_reconstruction(plans, seq, ref):
    """Reconstruction computed directly from the plans (no syntax)."""
    out = Frame.blank(W, H)
    qscale = 2 * QSCALE_CODE
    for plan in plans:
        raster = unscan_block(plan.levels)
        if plan.intra:
            coeffs = dequantize_intra(raster, seq.intra_quant_matrix, qscale)
            blocks = idct_rounded(coeffs)
            write_macroblock(out, 0, plan.address, blocks, None)
        else:
            coeffs = dequantize_non_intra(
                raster, seq.non_intra_quant_matrix, qscale
            )
            blocks = idct_rounded(coeffs)
            pred = form_prediction(
                0, plan.address, plan.mv_fwd, None, ref, None
            )
            write_macroblock(out, 0, plan.address, blocks, pred)
    return out


@given(plan_row())
@settings(max_examples=60, deadline=None)
def test_slice_syntax_reproduces_direct_reconstruction(plans):
    seq = _seq()
    ref = _ref(seed=99)
    pic = PictureHeader(
        temporal_reference=0, picture_type=PictureType.P, forward_f_code=1
    )
    w = BitWriter()
    encode_slice(w, plans, 0, MBW, QSCALE_CODE, pic)
    w.align()
    out = Frame.blank(W, H)
    ctx = PictureCodingContext(seq=seq, pic=pic, out=out, fwd=ref)
    counters = WorkCounters()
    decode_slice(w.getvalue(), 1, ctx, counters)

    expected = expected_reconstruction(plans, seq, ref)
    assert counters.macroblocks == MBW
    assert np.array_equal(out.y[0:16], expected.y[0:16])
    assert np.array_equal(out.cb[0:8], expected.cb[0:8])
    assert np.array_equal(out.cr[0:8], expected.cr[0:8])


@given(plan_row(), plan_row())
@settings(max_examples=20, deadline=None)
def test_slices_are_independent(plans_a, plans_b):
    """Decoding slice B after slice A gives the same pixels as decoding
    B alone: no predictor state crosses a slice boundary."""
    seq = _seq()
    ref = _ref(seed=7)
    pic = PictureHeader(
        temporal_reference=0, picture_type=PictureType.P, forward_f_code=1
    )

    def encode(plans, row):
        shifted = [
            MacroblockPlan(
                address=row * MBW + p.address,
                intra=p.intra,
                levels=p.levels,
                mv_fwd=p.mv_fwd,
            )
            for p in plans
        ]
        w = BitWriter()
        encode_slice(w, shifted, row, MBW, QSCALE_CODE, pic)
        w.align()
        return w.getvalue()

    # Decode B alone (as row 0 content placed at row 1).
    alone = Frame.blank(W, H)
    ctx = PictureCodingContext(seq=seq, pic=pic, out=alone, fwd=ref)
    decode_slice(encode(plans_b, 1), 2, ctx, WorkCounters())

    # Decode A (row 0) then B (row 1) into one frame.
    both = Frame.blank(W, H)
    ctx2 = PictureCodingContext(seq=seq, pic=pic, out=both, fwd=ref)
    decode_slice(encode(plans_a, 0), 1, ctx2, WorkCounters())
    decode_slice(encode(plans_b, 1), 2, ctx2, WorkCounters())

    assert np.array_equal(alone.y[16:32], both.y[16:32])
