"""Motion estimation / compensation invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpeg2.motion import (
    MotionVector,
    average_predictions,
    intra_activity,
    predict_block,
    search_picture,
)


def _plane(h=64, w=64, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(h, w)).astype(np.uint8)


class TestMotionVector:
    def test_chroma_halving_truncates_toward_zero(self):
        assert MotionVector(3, -3).chroma() == MotionVector(1, -1)
        assert MotionVector(5, -5).chroma() == MotionVector(2, -2)
        assert MotionVector(0, 0).chroma() == MotionVector(0, 0)

    def test_addition(self):
        assert MotionVector(1, 2) + MotionVector(3, -1) == MotionVector(4, 1)


class TestPredictBlock:
    def test_zero_mv_is_copy(self):
        ref = _plane()
        out = predict_block(ref, 16, 16, 16, 16, MotionVector.ZERO)
        assert np.array_equal(out, ref[16:32, 16:32].astype(np.int32))

    def test_full_pel_displacement(self):
        ref = _plane()
        out = predict_block(ref, 16, 16, 8, 8, MotionVector(dy=4, dx=-6))
        assert np.array_equal(out, ref[18:26, 13:21].astype(np.int32))

    def test_half_pel_horizontal_average(self):
        ref = np.zeros((16, 16), dtype=np.uint8)
        ref[0, 0], ref[0, 1] = 10, 13
        out = predict_block(ref, 0, 0, 1, 1, MotionVector(dy=0, dx=1))
        assert out[0, 0] == 12  # (10 + 13 + 1) >> 1

    def test_half_pel_both_axes_rounds(self):
        ref = np.zeros((4, 4), dtype=np.uint8)
        ref[0:2, 0:2] = [[1, 2], [3, 4]]
        out = predict_block(ref, 0, 0, 1, 1, MotionVector(dy=1, dx=1))
        assert out[0, 0] == (1 + 2 + 3 + 4 + 2) >> 2

    def test_negative_half_pel_decomposition(self):
        ref = _plane()
        # -1 half-pel == floor to -1 full-pel with +0.5 fraction
        a = predict_block(ref, 8, 8, 4, 4, MotionVector(dy=-1, dx=0))
        manual = (
            ref[7:11, 8:12].astype(np.int32) + ref[8:12, 8:12].astype(np.int32) + 1
        ) >> 1
        assert np.array_equal(a, manual)

    def test_out_of_bounds_rejected(self):
        ref = _plane(32, 32)
        with pytest.raises(ValueError):
            predict_block(ref, 0, 0, 16, 16, MotionVector(dy=-2, dx=0))
        with pytest.raises(ValueError):
            predict_block(ref, 16, 16, 16, 16, MotionVector(dy=1, dx=0))

    def test_average_predictions_rounds_up(self):
        a = np.array([[1]], dtype=np.int32)
        b = np.array([[2]], dtype=np.int32)
        assert average_predictions(a, b)[0, 0] == 2


def _search_block(cur_block, ref, y0, x0, search_range):
    """Search one macroblock placed at (y0, x0) of a copy of ``ref``."""
    cur = ref.copy()
    cur[y0 : y0 + 16, x0 : x0 + 16] = cur_block
    mv, sad, pred = search_picture(cur, ref, search_range)
    k = (y0 // 16) * (ref.shape[1] // 16) + x0 // 16
    return MotionVector(*mv[k].tolist()), int(sad[k]), pred[k]


class TestFullSearch:
    """The picture-wide full search, one macroblock at a time."""

    def test_finds_exact_translation(self):
        ref = _plane(64, 64, seed=1)
        # Current block is the reference shifted by (+3, -2) full pels.
        mv, sad, _ = _search_block(ref[19:35, 14:30], ref, 16, 16, 5)
        assert mv == MotionVector(dy=6, dx=-4)  # half-pel units
        assert sad == 0

    def test_finds_half_pel_translation(self):
        ref = _plane(64, 64, seed=2)
        cur = ((ref[16:32, 20:37].astype(np.int32)[:, :-1]
                + ref[16:32, 20:37].astype(np.int32)[:, 1:] + 1) >> 1)
        mv, _, _ = _search_block(cur.astype(np.uint8), ref, 16, 16, 6)
        assert mv == MotionVector(dy=0, dx=9)  # 4 full + 1 half

    def test_prefers_zero_vector_on_ties(self):
        ref = np.full((64, 64), 77, dtype=np.uint8)
        mv, sad, _ = search_picture(ref.copy(), ref, 7)
        # Every macroblock whose window holds the zero vector keeps it.
        inner = [5, 6, 9, 10]
        assert not mv[inner].any()
        assert not sad.any()

    def test_clamps_to_plane_at_corner(self):
        ref = _plane(32, 32, seed=3)
        mv, _, _ = _search_block(ref[0:16, 0:16], ref, 0, 0, 7)
        assert mv == MotionVector.ZERO

    @given(st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=20, deadline=None)
    def test_recovers_any_integer_shift(self, dy, dx):
        ref = _plane(80, 80, seed=4)
        y0, x0 = 32, 32
        cur = ref[y0 + dy : y0 + dy + 16, x0 + dx : x0 + dx + 16]
        mv, sad, pred = _search_block(cur, ref, y0, x0, 6)
        assert sad == 0
        # Any zero-SAD vector is acceptable (textures can repeat), but
        # the true shift must be matched in prediction terms.
        assert np.array_equal(pred, cur.astype(np.int32))
        assert np.array_equal(predict_block(ref, y0, x0, 16, 16, mv), pred)


def _nested_loop_search(cur, ref, y0, x0, search_range):
    """Per-block reference search: plain loops, no arrays of candidates.

    Full-pel SAD over the clamped window in (dy, dx) raster order
    keeping the first minimum, the zero vector on ties, then the 8
    half-pel neighbours in raster order, each kept only when strictly
    better and inside the window.
    """
    h = w = 16
    ref_h, ref_w = ref.shape
    block = cur[y0 : y0 + h, x0 : x0 + w].astype(np.int64)
    dy_min, dy_max = max(-search_range, -y0), min(search_range, ref_h - h - y0 - 1)
    dx_min, dx_max = max(-search_range, -x0), min(search_range, ref_w - w - x0 - 1)

    def sad_at(mv):
        return int(np.abs(predict_block(ref, y0, x0, h, w, mv) - block).sum())

    if dy_max < dy_min or dx_max < dx_min:
        return MotionVector.ZERO, sad_at(MotionVector.ZERO)
    best, best_sad = None, None
    for dy in range(dy_min, dy_max + 1):
        for dx in range(dx_min, dx_max + 1):
            sad = sad_at(MotionVector(2 * dy, 2 * dx))
            if best_sad is None or sad < best_sad:
                best, best_sad = MotionVector(2 * dy, 2 * dx), sad
    if dy_min <= 0 <= dy_max and dx_min <= 0 <= dx_max:
        zero_sad = sad_at(MotionVector.ZERO)
        if zero_sad <= best_sad:
            best, best_sad = MotionVector.ZERO, zero_sad
    centre, result = best, best
    for ddy in (-1, 0, 1):
        for ddx in (-1, 0, 1):
            mv = MotionVector(centre.dy + ddy, centre.dx + ddx)
            if (ddy, ddx) == (0, 0):
                continue
            if not (2 * dy_min <= mv.dy <= 2 * dy_max + 1):
                continue
            if not (2 * dx_min <= mv.dx <= 2 * dx_max + 1):
                continue
            sad = sad_at(mv)
            if sad < best_sad:
                result, best_sad = mv, sad
    return result, best_sad


@st.composite
def _search_case(draw):
    """Coded sizes 16..96, ranges 1..7, textured or constant planes."""
    h = 16 * draw(st.integers(1, 6))
    w = 16 * draw(st.integers(1, 6))
    search_range = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["noise", "constant", "shifted"]))
    if kind == "constant":
        # Every candidate ties: the order rules alone pick the vector.
        ref = np.full((h, w), draw(st.integers(0, 255)), dtype=np.uint8)
        cur = np.full((h, w), draw(st.integers(0, 255)), dtype=np.uint8)
    elif kind == "noise":
        ref = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        cur = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    else:
        # A smooth, shifted picture: real matches, half-pel wins.
        yy, xx = np.mgrid[0:h + 8, 0:w + 8]
        base = 128 + 60 * np.sin(yy / 3.0 + seed) * np.cos(xx / 4.0)
        base = np.clip(base, 0, 255).astype(np.uint8)
        sy, sx = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        ref = base[4 : 4 + h, 4 : 4 + w].copy()
        cur = base[sy : sy + h, sx : sx + w].copy()
    return cur, ref, search_range


class TestPictureSearchProperty:
    @given(_search_case())
    @settings(max_examples=60, deadline=None)
    def test_matches_nested_loop_search_on_every_macroblock(self, case):
        cur, ref, search_range = case
        mvs, sads, preds = search_picture(cur, ref, search_range)
        mbw = cur.shape[1] // 16
        for k in range(len(sads)):
            y0, x0 = 16 * (k // mbw), 16 * (k % mbw)
            mv, sad = _nested_loop_search(cur, ref, y0, x0, search_range)
            assert MotionVector(*mvs[k].tolist()) == mv, (k, y0, x0)
            assert int(sads[k]) == sad, (k, y0, x0)
            assert np.array_equal(
                preds[k], predict_block(ref, y0, x0, 16, 16, mv)
            )


class TestIntraActivity:
    def test_flat_block_zero(self):
        assert intra_activity(np.full((16, 16), 99, dtype=np.uint8)) == 0

    def test_textured_block_positive(self):
        assert intra_activity(_plane(16, 16)) > 0
