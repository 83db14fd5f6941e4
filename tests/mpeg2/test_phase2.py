"""Phase 2 of the batched engine, pinned against independent references.

Below the whole-stream parity suites, three things are checked here:

* sparse dequantisation (``batched._dequantise``) equals the int64
  reference chain ``quant.dequantize_intra`` / ``dequantize_non_intra``
  (saturation and mismatch control included) exactly, and the phase-2
  residual equals ``idct_rounded`` on those reference coefficients;
* ``dct.idct_rounded`` meets the IEEE 1180-1990 accuracy limits against
  a float64 matrix-formula IDCT, batched and block by block;
* ``mc_scatter``'s branches — intra, no-MC, forward-only,
  backward-only and bidirectional macroblocks, a picture whose records
  carry no coded block, and residuals near the int16 bound over
  predictions of 0 and 255 — reproduce the scalar decoder pixel for
  pixel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitstream import BitWriter
from repro.mpeg2.batched import (
    PictureAssembly,
    _dequantise,
    assemble_picture,
    gop_dequant_idct,
    parse_slice,
    reconstruct_slices,
)
from repro.mpeg2.constants import (
    QSCALE_CODE_MAX,
    QSCALE_CODE_MIN,
    PictureType,
    quantiser_scale,
)
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
from repro.mpeg2.scan import ZIGZAG, scan_block

# ----------------------------------------------------------------------
# (a) sparse dequantisation against the int64 reference
# ----------------------------------------------------------------------
_QSCALES = [
    quantiser_scale(c) for c in range(QSCALE_CODE_MIN, QSCALE_CODE_MAX + 1)
]
_levels = st.integers(1, 2047).flatmap(lambda m: st.sampled_from((m, -m)))
_matrix = st.lists(st.integers(1, 255), min_size=64, max_size=64).map(
    lambda w: np.array(w, dtype=np.int64).reshape(8, 8)
)

#: One coded block's AC (or, non-intra, all) levels as ``{raster: level}``.
_ac = st.one_of(
    st.just({}),
    st.dictionaries(st.integers(1, 63), _levels, max_size=4),
    st.dictionaries(st.integers(1, 63), st.sampled_from((1, -1, 2, -2)),
                    max_size=12),
    # A coded (7,7): the mismatch toggle then lands on a coded term.
    st.builds(lambda d, v: {**d, 63: v},
              st.dictionaries(st.integers(1, 62), _levels, max_size=3),
              _levels),
)


@st.composite
def _pictures(draw):
    """(sequence header, [(intra, qscale, [(block, {raster: level})])])."""
    seq = SequenceHeader(
        width=16, height=16,
        intra_quant_matrix=draw(_matrix),
        non_intra_quant_matrix=draw(_matrix),
    )
    records = []
    for _ in range(draw(st.integers(1, 5))):
        intra = draw(st.booleans())
        qscale = draw(st.sampled_from(_QSCALES))
        cbp = 63 if intra else draw(st.integers(0, 63))
        blocks = []
        for b in range(6):
            if not cbp & (32 >> b):
                continue
            coefs = draw(_ac)
            if intra:
                # The DC level: predictor drift reaches past +-2047 / 8.
                coefs = {**coefs, 0: draw(st.integers(-3000, 3000))}
            elif draw(st.booleans()):
                coefs = {**coefs, 0: draw(_levels)}
            blocks.append((b, coefs))
        records.append((intra, qscale, blocks))
    return seq, records


def _assembly(records) -> PictureAssembly:
    """A picture assembly built directly from per-block coefficients."""
    asm = PictureAssembly()
    asm.n = len(records)
    asm.intra = np.array([r[0] for r in records], dtype=bool)
    asm.qscale = np.array([r[1] for r in records], dtype=np.int64)
    rec_idx, blk_idx, coef_idx, coef_val = [], [], [], []
    for rec, (_intra, _q, blocks) in enumerate(records):
        for b, coefs in blocks:
            for pos, level in coefs.items():
                coef_idx.append(len(rec_idx) * 64 + pos)
                coef_val.append(level)
            rec_idx.append(rec)
            blk_idx.append(b)
    asm.rec_idx = np.array(rec_idx, dtype=np.intp)
    asm.blk_idx = np.array(blk_idx, dtype=np.intp)
    asm.coef_idx = np.array(coef_idx, dtype=np.intp)
    asm.coef_val = np.array(coef_val, dtype=np.int32)
    return asm


def _reference(seq: SequenceHeader, records) -> np.ndarray:
    """The int64 reference coefficients, one ``(8, 8)`` per coded block."""
    out = []
    for intra, q, blocks in records:
        for _b, coefs in blocks:
            levels = np.zeros(64, dtype=np.int64)
            for pos, level in coefs.items():
                levels[pos] = level
            levels = levels.reshape(8, 8)
            if intra:
                out.append(dequantize_intra(levels, seq.intra_quant_matrix, q))
            else:
                out.append(dequantize_non_intra(
                    levels, seq.non_intra_quant_matrix, q
                ))
    return np.array(out, dtype=np.int64).reshape(-1, 8, 8)


def _assert_dequant_exact(seq, records):
    asm = _assembly(records)
    expected = _reference(seq, records)
    got = _dequantise(asm, seq)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    (residual,) = gop_dequant_idct([asm], seq)
    assert np.array_equal(residual, idct_rounded(expected))
    return expected


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_pictures())
def test_sparse_dequant_equals_the_int64_reference(picture):
    _assert_dequant_exact(*picture)


def test_mismatch_control_cases_are_exact():
    """The parity cases, one block each, whatever Hypothesis draws."""
    seq = SequenceHeader(width=16, height=16)
    cases = [
        (False, {}),                      # coded, no coefficient: sum 0
        (False, {5: 1, 9: -3}),           # even sum, (7,7) not coded
        (False, {5: 1, 63: 1}),           # even sum, (7,7) coded
        (False, {63: 2047}),              # saturated (7,7)
        (False, {63: -2047}),
        (False, {3: 1}),                  # odd sum: left alone
        (True, {0: 200, 63: 5}),          # intra DC + coded (7,7)
        (True, {0: 3000}),                # DC saturates high
        (True, {0: -3000}),               # ... and low
        (True, {0: 0}),                   # all-zero intra block
    ]
    records = [(intra, 62, [(0, coefs)]) for intra, coefs in cases]
    coeffs = _assert_dequant_exact(seq, records)
    sums = coeffs.sum(axis=(1, 2))
    assert np.all(sums % 2 == 1)
    assert coeffs[0, 7, 7] == 1  # the toggle lands on an uncoded (7,7)
    assert coeffs[3, 7, 7] == 2047 and coeffs[4, 7, 7] == -2047


def test_no_coded_block_gives_an_empty_residual():
    seq = SequenceHeader(width=16, height=16)
    asm = _assembly([(False, 8, [])])
    assert _dequantise(asm, seq).shape == (0, 8, 8)
    assert [r.shape for r in gop_dequant_idct([asm, asm], seq)] == [
        (0, 8, 8), (0, 8, 8)
    ]


# ----------------------------------------------------------------------
# (b) IEEE 1180-style IDCT accuracy
# ----------------------------------------------------------------------
def _dct_matrix() -> np.ndarray:
    """``C[u, x] = c(u) / 2 * cos((2x + 1) u pi / 16)``, by the formula."""
    u = np.arange(8)[:, None]
    x = np.arange(8)[None, :]
    c = np.where(u == 0, np.sqrt(0.5), 1.0) / 2
    return c * np.cos((2 * x + 1) * u * np.pi / 16)


_C = _dct_matrix()

#: (low, high) of the random pixel blocks, per the standard.
_RANGES = [(-256, 255), (-5, 5), (-300, 300)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("low,high", _RANGES)
def test_idct_rounded_meets_ieee_1180_limits(low, high, sign):
    rng = np.random.default_rng(1180 + 7 * (high - low) + sign)
    pixels = sign * rng.integers(low, high, size=(10_000, 8, 8), endpoint=True)
    # Reference forward transform, rounded and clipped to the
    # coefficient range: the test input.
    coeffs = np.clip(np.rint(_C @ pixels @ _C.T), -2048, 2047)
    reference = np.clip(np.rint(_C.T @ coeffs @ _C), -256, 255)

    batched = idct_rounded(coeffs)
    assert batched.dtype == np.int32
    for k in range(0, 10_000, 997):  # one block at a time agrees
        assert np.array_equal(idct_rounded(coeffs[k]), batched[k])

    err = np.clip(batched, -256, 255) - reference
    assert np.abs(err).max() <= 1
    assert np.abs(err.mean(axis=0)).max() <= 0.015
    assert (err**2).mean(axis=0).max() <= 0.06
    assert abs(err.mean()) <= 0.0015
    assert (err**2).mean() <= 0.02


def test_idct_rounded_zero_in_zero_out():
    assert not idct_rounded(np.zeros((3, 8, 8))).any()


# ----------------------------------------------------------------------
# (c) mc_scatter against the scalar decoder
# ----------------------------------------------------------------------
MBW, MBH = 6, 3


def _decode_both(ptype, rows, fwd=None, bwd=None, qscale_code=4):
    """Decode one picture's slices on both engines and compare them.

    ``rows`` holds one list of :class:`MacroblockPlan` per macroblock
    row (gaps are skipped macroblocks).  Asserts bit-equal output and
    returns the batched frame, its assembly and its residual.
    """
    seq = SequenceHeader(width=16 * MBW, height=16 * MBH)
    pic = PictureHeader(temporal_reference=0, picture_type=ptype)
    payloads = []
    for r, plans in enumerate(rows):
        w = BitWriter()
        encode_slice(w, plans, r, MBW, qscale_code, pic)
        w.align()
        payloads.append(w.getvalue())

    scalar = Frame.blank(seq.width, seq.height)
    ctx = PictureCodingContext(seq=seq, pic=pic, out=scalar, fwd=fwd, bwd=bwd)
    for r, payload in enumerate(payloads):
        decode_slice(payload, r + 1, ctx)

    parses = [
        parse_slice(p, r + 1, pic, MBW, MBH, fwd is not None)
        for r, p in enumerate(payloads)
    ]
    batched = Frame.blank(seq.width, seq.height)
    reconstruct_slices(parses, seq, pic, batched, fwd, bwd)
    for plane in ("y", "cb", "cr"):
        assert np.array_equal(getattr(scalar, plane), getattr(batched, plane))
    asm = assemble_picture(parses)
    return batched, asm, gop_dequant_idct([asm], seq)[0]


def _random_frame(seed: int) -> Frame:
    frame = Frame.blank(16 * MBW, 16 * MBH)
    rng = np.random.default_rng(seed)
    for plane in (frame.y, frame.cb, frame.cr):
        plane[...] = rng.integers(0, 256, plane.shape)
    return frame


def _fits(mv: MotionVector, addr: int) -> bool:
    """Whether the macroblock's luma and chroma fetches stay in-plane."""
    r, c = divmod(addr, MBW)
    cmv = mv.chroma()
    for dy, dx, size in ((mv.dy, mv.dx, 16), (cmv.dy, cmv.dx, 8)):
        top, left = r * size + (dy >> 1), c * size + (dx >> 1)
        if (
            top < 0
            or left < 0
            or top + size + (dy & 1) > MBH * size
            or left + size + (dx & 1) > MBW * size
        ):
            return False
    return True


def _vector(rng, addr: int) -> MotionVector:
    while True:
        mv = MotionVector(*(int(v) for v in rng.integers(-5, 6, 2)))
        if _fits(mv, addr):
            return mv


def _levels_for(rng, coded: bool, intra: bool) -> np.ndarray:
    levels = np.zeros((6, 64), dtype=np.int64)
    if intra:
        levels[:, 0] = rng.integers(60, 200, 6)
    if coded or intra:
        for b in rng.choice(6, size=int(rng.integers(1, 7)), replace=False):
            pos = rng.integers(1, 64, 3)
            levels[b, pos] = rng.integers(-40, 41, 3) | 1
    return levels


def test_p_picture_mixing_intra_no_mc_and_forward():
    rng = np.random.default_rng(7)
    rows = []
    for r in range(MBH):
        plans = []
        for c in range(MBW):
            addr = r * MBW + c
            kind = (addr + r) % 5
            if kind == 4 and 0 < c < MBW - 1:
                continue  # skipped: co-located copy
            if kind == 0:
                plans.append(MacroblockPlan(
                    addr, True, _levels_for(rng, True, True)))
            elif kind == 1:  # no-MC: zero vector implied, coded
                levels = _levels_for(rng, True, False)
                plans.append(MacroblockPlan(
                    addr, False, levels, mv_fwd=MotionVector.ZERO))
            else:  # forward MC, coded or not
                plans.append(MacroblockPlan(
                    addr, False, _levels_for(rng, kind == 2, False),
                    mv_fwd=_vector(rng, addr)))
        rows.append(plans)
    _, asm, residual = _decode_both(PictureType.P, rows, _random_frame(1))
    assert asm.intra.any() and (asm.f_on & ~asm.intra).any()
    assert asm.rec_idx.size
    assert residual.shape == (asm.rec_idx.size, 8, 8)


def test_b_picture_mixing_all_prediction_modes():
    rng = np.random.default_rng(11)
    rows = []
    for r in range(MBH):
        plans = []
        for c in range(MBW):
            addr = r * MBW + c
            kind = (addr * 3 + r) % 5
            if kind == 4:
                if 0 < c < MBW - 1:
                    continue  # skipped: repeats the previous mode
                kind = 3  # a row's first and last are never skipped
            if kind == 0:
                plans.append(MacroblockPlan(
                    addr, True, _levels_for(rng, True, True)))
                continue
            fwd = _vector(rng, addr) if kind in (1, 3) else None
            bwd = _vector(rng, addr) if kind in (2, 3) else None
            plans.append(MacroblockPlan(
                addr, False, _levels_for(rng, bool(rng.integers(2)), False),
                mv_fwd=fwd, mv_bwd=bwd))
        rows.append(plans)
    _, asm, _ = _decode_both(
        PictureType.B, rows, _random_frame(2), _random_frame(3)
    )
    f, b = asm.f_on, asm.b_on
    assert (f & ~b).any() and (b & ~f).any() and (f & b).any()
    assert asm.intra.any()


def test_picture_of_skipped_macroblocks_has_no_residual():
    rng = np.random.default_rng(5)
    zero = np.zeros((6, 64), dtype=np.int64)
    rows = [
        [MacroblockPlan(a, False, zero, mv_fwd=_vector(rng, a))
         for a in (r * MBW, r * MBW + MBW - 1)]
        for r in range(MBH)
    ]
    frame, asm, residual = _decode_both(PictureType.P, rows, _random_frame(4))
    assert asm.n == MBW * MBH and asm.rec_idx.size == 0
    assert residual.shape == (0, 8, 8)
    assert frame.y.any()


def _extreme_levels(sign: int, intra: bool, pixel: tuple[int, int]):
    """Saturating levels signed like the IDCT basis of one ``pixel``.

    Every coefficient then adds to that pixel with the same sign, so
    its residual sits near the bound ``8 * 2048`` the int16 tiles rely
    on.
    """
    y, x = pixel
    pattern = np.sign(np.outer(_C[:, y], _C[:, x])).astype(np.int64)
    raster = sign * 2047 * pattern
    if intra:
        raster[0, 0] = sign * 300  # DC level x 8 saturates too
    return np.tile(scan_block(raster, ZIGZAG), (6, 1))


@pytest.mark.parametrize("sign", [1, -1])
def test_extreme_residual_over_prediction_0_and_255(sign):
    pixels = [(0, 0), (3, 5), (7, 2)]
    # Prediction 0: intra macroblocks.
    rows = [
        [MacroblockPlan(r * MBW + c, True,
                        _extreme_levels(sign, True, pixels[(r + c) % 3]))
         for c in range(MBW)]
        for r in range(MBH)
    ]
    frame, _, residual = _decode_both(
        PictureType.I, rows, qscale_code=QSCALE_CODE_MAX
    )
    assert 14_000 < np.abs(residual).max() <= 8 * 2048
    assert frame.y.min() == 0 and frame.y.max() == 255

    # Prediction 255: no-MC macroblocks over a white reference.
    white = Frame.blank(16 * MBW, 16 * MBH)
    for plane in (white.y, white.cb, white.cr):
        plane[...] = 255
    rows = [
        [MacroblockPlan(r * MBW + c, False,
                        _extreme_levels(sign, False, pixels[(r + c) % 3]),
                        mv_fwd=MotionVector.ZERO)
         for c in range(MBW)]
        for r in range(MBH)
    ]
    frame, _, residual = _decode_both(
        PictureType.P, rows, white, qscale_code=QSCALE_CODE_MAX
    )
    assert 14_000 < np.abs(residual).max() <= 8 * 2048
    assert frame.y.min() == 0 and frame.y.max() == 255
