"""Phase 1's motion-vector bound, an interval per slice, against the
fetch predicate it replaced.

``parse_slice`` accepts a half-pel vector ``(dy, dx)`` for macroblock
``(row, col)`` of an ``H`` x ``W`` luma plane iff

    -32 row <= dy <= 2 (H - 16 - 16 row)   and   -32 col <= dx <= 2 (W - 16 - 16 col)

and calls ``_validate_mv`` only to raise.  The predicate it stands for
also checked the chroma fetch (the vector halved toward zero); with
planes of whole macroblocks that check never rejects a vector the luma
check accepted.  Both claims are checked exhaustively here over small
geometries, against a frozen copy of the old predicate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpeg2.batched import _validate_mv

SPAN = np.arange(-140, 141)


def _old_predicate(dy, dx, mb_row, mb_col, luma_h, luma_w):
    """The luma-and-chroma bounds check phase 1 made before the
    interval rule, elementwise over arrays (frozen copy)."""
    top = mb_row * 16 + (dy >> 1)
    left = mb_col * 16 + (dx >> 1)
    luma_out = (
        (top < 0)
        | (left < 0)
        | (top + 16 + (dy & 1) > luma_h)
        | (left + 16 + (dx & 1) > luma_w)
    )
    # Chroma vector truncates toward zero (``MotionVector.chroma``).
    cdy = np.where(dy >= 0, dy // 2, -((-dy) // 2))
    cdx = np.where(dx >= 0, dx // 2, -((-dx) // 2))
    ctop = mb_row * 8 + (cdy >> 1)
    cleft = mb_col * 8 + (cdx >> 1)
    chroma_out = (
        (ctop < 0)
        | (cleft < 0)
        | (ctop + 8 + (cdy & 1) > luma_h // 2)
        | (cleft + 8 + (cdx & 1) > luma_w // 2)
    )
    return ~(luma_out | chroma_out)


def _interval(dy, dx, row, col, luma_h, luma_w):
    return (
        (-32 * row <= dy)
        & (dy <= 2 * (luma_h - 16 - 16 * row))
        & (-32 * col <= dx)
        & (dx <= 2 * (luma_w - 16 - 16 * col))
    )


def _raises(dy, dx, row, col, luma_h, luma_w) -> bool:
    try:
        _validate_mv(dy, dx, row, col, luma_h, luma_w)
    except ValueError:
        return True
    return False


GEOMETRIES = [(w, h) for w in range(1, 5) for h in range(1, 5)]


@pytest.mark.parametrize("mb_width,mb_height", GEOMETRIES)
def test_interval_accepts_exactly_what_the_old_predicate_did(mb_width, mb_height):
    dy, dx = np.meshgrid(SPAN, SPAN, indexing="ij")
    luma_h, luma_w = 16 * mb_height, 16 * mb_width
    for row in range(mb_height):
        for col in range(mb_width):
            old = _old_predicate(dy, dx, row, col, luma_h, luma_w)
            new = _interval(dy, dx, row, col, luma_h, luma_w)
            assert np.array_equal(old, new), (row, col)


@pytest.mark.parametrize("mb_width,mb_height", GEOMETRIES)
def test_validate_mv_raises_exactly_outside_the_interval(mb_width, mb_height):
    # The bound is separable, so each axis is swept with the other at 0
    # (always inside), plus the corners just in and just out.
    luma_h, luma_w = 16 * mb_height, 16 * mb_width
    for row in range(mb_height):
        for col in range(mb_width):
            lo_y, hi_y = -32 * row, 2 * (luma_h - 16 - 16 * row)
            lo_x, hi_x = -32 * col, 2 * (luma_w - 16 - 16 * col)
            vectors = [(int(v), 0) for v in SPAN] + [(0, int(v)) for v in SPAN]
            vectors += [
                (y, x)
                for y in (lo_y - 1, lo_y, hi_y, hi_y + 1)
                for x in (lo_x - 1, lo_x, hi_x, hi_x + 1)
            ]
            for dy, dx in vectors:
                inside = bool(_interval(dy, dx, row, col, luma_h, luma_w))
                assert _raises(dy, dx, row, col, luma_h, luma_w) is not inside, (
                    row, col, dy, dx,
                )
