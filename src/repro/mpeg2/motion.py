"""Motion estimation and half-pel motion compensation.

Motion vectors are in *half-pel* units throughout (MPEG-2 always codes
half-pel; the MPEG-1 ``full_pel`` flag is fixed to 0 in our streams).

:func:`predict_block` is the scalar decoder's motion compensation;
:func:`predict_blocks` applies the same rounding to many blocks at
once, for the batched decoder, the encoder's search and its residuals.

Estimation is classic full search over a clamped window with SAD,
followed by half-pel refinement, for all macroblocks of a picture at
once — the same structure as the MPEG Software Simulation Group
encoder the paper used to create its test streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.mpeg2.constants import MACROBLOCK_SIZE
from repro.mpeg2.frame import Frame


@dataclass(frozen=True)
class MotionVector:
    """A (dy, dx) displacement in half-pel units."""

    dy: int
    dx: int

    #: The zero vector (class attribute, assigned below the definition).
    ZERO: ClassVar["MotionVector"]

    def chroma(self) -> "MotionVector":
        """Chroma displacement: luma MV halved, truncated toward zero.

        (ISO 11172-2 2.4.4.2: ``right_half_for = trunc(recon/2)``.)
        """
        return MotionVector(int(self.dy / 2), int(self.dx / 2))

    def __add__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.dy + other.dy, self.dx + other.dx)


MotionVector.ZERO = MotionVector(0, 0)


# ----------------------------------------------------------------------
# motion compensation (decoder + encoder reconstruction)
# ----------------------------------------------------------------------
def predict_block(
    ref: np.ndarray, y0: int, x0: int, h: int, w: int, mv: MotionVector
) -> np.ndarray:
    """Fetch an ``h x w`` half-pel prediction at (y0, x0) + mv.

    Rounding follows the standard: half-pel averages use
    ``(a + b + 1) >> 1`` and ``(a + b + c + d + 2) >> 2``.

    The caller guarantees the displaced (and, for half-pel, +1 sample)
    window lies inside ``ref`` — the encoder clamps its search to make
    that so, and a compliant bitstream never violates it.  Violations
    raise rather than wrap around.
    """
    # Python divmod floors, so negative half-pel values decompose as
    # e.g. -3 -> (-2, 1): integer part floor(-1.5) with a +0.5 frac,
    # exactly the standard's decomposition.
    iy, fy = divmod(mv.dy, 2)
    ix, fx = divmod(mv.dx, 2)
    top, left = y0 + iy, x0 + ix
    need_h, need_w = h + (1 if fy else 0), w + (1 if fx else 0)
    if top < 0 or left < 0 or top + need_h > ref.shape[0] or left + need_w > ref.shape[1]:
        raise ValueError(
            f"motion vector {mv} displaces block ({y0},{x0},{h}x{w}) "
            f"outside reference plane {ref.shape}"
        )
    region = ref[top : top + need_h, left : left + need_w].astype(np.int32)
    if fy and fx:
        return (
            region[:-1, :-1] + region[:-1, 1:] + region[1:, :-1] + region[1:, 1:] + 2
        ) >> 2
    if fy:
        return (region[:-1, :] + region[1:, :] + 1) >> 1
    if fx:
        return (region[:, :-1] + region[:, 1:] + 1) >> 1
    return region


def average_predictions(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """B-picture bidirectional prediction: rounded average."""
    return (fwd.astype(np.int32) + bwd.astype(np.int32) + 1) >> 1


# ----------------------------------------------------------------------
# motion estimation (encoder)
# ----------------------------------------------------------------------
def search_picture(
    cur: np.ndarray, ref: np.ndarray, search_range: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive full-pel SAD search of every macroblock, then half-pel.

    Returns, per macroblock in raster order, the half-pel ``(dy, dx)``
    vector ``(n, 2)``, its luma SAD ``(n,)`` and its int16 luma
    prediction ``(n, 16, 16)``.

    ``cur`` and ``ref`` are coded-size luma planes.  Each macroblock's
    window is ``+/- search_range`` full pels, clamped so every
    candidate (and the +1 sample of half-pel refinement) stays inside
    ``ref``; with no window left (a one-macroblock axis) it keeps the
    zero vector.  The full-pel optimum is the first minimum in (dy, dx)
    raster order, and the zero vector wins ties with it.  Then the 8
    half-pel neighbours are tried in raster order, each replacing the
    best only when strictly better and inside the window.

    The full-pel pass works per displacement over the whole picture:
    one uint8 absolute difference against a shifted view of the padded
    reference, then 16-row and 16-column sums.
    """
    h, w = cur.shape
    mbh, mbw = h // MACROBLOCK_SIZE, w // MACROBLOCK_SIZE
    r, side = search_range, 2 * search_range + 1
    y0, x0 = MACROBLOCK_SIZE * np.arange(mbh), MACROBLOCK_SIZE * np.arange(mbw)
    lo_y, hi_y = np.maximum(-r, -y0), np.minimum(r, h - MACROBLOCK_SIZE - 1 - y0)
    lo_x, hi_x = np.maximum(-r, -x0), np.minimum(r, w - MACROBLOCK_SIZE - 1 - x0)

    padded = np.pad(ref, r)
    sads = np.empty((side, side, mbh, mbw), dtype=np.int32)
    diff, low = np.empty_like(cur), np.empty_like(cur)
    for i in range(side):
        for j in range(side):
            shifted = padded[i : i + h, j : j + w]
            np.maximum(cur, shifted, out=diff)
            diff -= np.minimum(cur, shifted, out=low)
            rows = np.add.reduce(diff.reshape(mbh, 16, w), axis=1, dtype=np.uint16)
            sads[i, j] = rows.reshape(mbh, mbw, 16).sum(axis=2, dtype=np.int32)

    disp = np.arange(-r, r + 1)[:, None]
    ok_y, ok_x = (lo_y <= disp) & (disp <= hi_y), (lo_x <= disp) & (disp <= hi_x)
    valid = (ok_y[:, None, :, None] & ok_x[None, :, None, :]).reshape(side * side, -1)
    flat = np.where(valid, sads.reshape(side * side, -1), np.iinfo(np.int32).max)
    first = np.argmin(flat, axis=0)
    best = flat.min(axis=0)
    zero_sad = sads[r, r].ravel()
    zero = (valid[r * side + r] & (zero_sad <= best)) | ~valid.any(axis=0)
    best[zero] = zero_sad[zero]
    mv_y = np.where(zero, 0, 2 * (first // side - r))
    mv_x = np.where(zero, 0, 2 * (first % side - r))

    # The windows again, per macroblock and in half-pel units.
    tops, lefts = np.repeat(y0, mbw), np.tile(x0, mbh)
    lo_y, hi_y = np.repeat(2 * lo_y, mbw), np.repeat(2 * hi_y + 1, mbw)
    lo_x, hi_x = np.tile(2 * lo_x, mbh), np.tile(2 * hi_x + 1, mbh)
    mbs = macroblock_view(cur).astype(np.int16)
    every = np.arange(len(tops))
    pred = np.empty(mbs.shape, dtype=np.int16)
    cand = np.empty_like(pred)
    predict_blocks(((ref, pred),), tops, lefts, mv_y, mv_x, every, None)
    centre_y, centre_x = mv_y, mv_x
    for ddy, ddx in [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]:
        cy, cx = centre_y + ddy, centre_x + ddx
        inside = (lo_y <= cy) & (cy <= hi_y) & (lo_x <= cx) & (cx <= hi_x)
        # Outside the window: fetch the centre (always in the plane),
        # then ignore the result.
        cy, cx = np.where(inside, cy, centre_y), np.where(inside, cx, centre_x)
        predict_blocks(((ref, cand),), tops, lefts, cy, cx, every, None)
        sad = np.abs(cand - mbs).sum(axis=(1, 2))
        better = inside & (sad < best)
        best = np.where(better, sad, best)
        mv_y, mv_x = np.where(better, cy, mv_y), np.where(better, cx, mv_x)
        pred[better] = cand[better]
    return np.stack([mv_y, mv_x], axis=1), best, pred


def predict_blocks(
    planes: tuple[tuple[np.ndarray, np.ndarray], ...],
    tops: np.ndarray,
    lefts: np.ndarray,
    dys: np.ndarray,
    dxs: np.ndarray,
    dst: np.ndarray,
    blend: np.ndarray | None,
) -> None:
    """:func:`predict_block` for many blocks, grouped by half-pel phase.

    ``planes`` pairs each reference plane with the ``(n, bh, bw)`` view
    its predictions land in: block ``i``, at ``(tops[i], lefts[i])``
    displaced by the half-pel vector ``(dys[i], dxs[i])``, lands in row
    ``dst[i]``, averaged with what is there where ``blend[i]`` (the B
    bidirectional mode).  The caller guarantees every displaced window
    lies inside its plane.  Sorted by half-pel phase, each phase's run
    is one strided-window gather per plane plus the rounded average of
    :func:`predict_block`, applied batchwise.
    """
    phase = ((dys & 1) << 1) | (dxs & 1)
    order = np.argsort(phase, kind="stable")
    # Floor-halve the vector (matches Python divmod).
    tops = tops[order] + (dys[order] >> 1)
    lefts = lefts[order] + (dxs[order] >> 1)
    dst = dst[order]
    if blend is not None:
        blend = blend[order]
    lo = 0
    for ph, hi in enumerate(np.cumsum(np.bincount(phase, minlength=4))):
        if hi == lo:
            continue
        fy, fx = ph >> 1, ph & 1
        t, left, rows = tops[lo:hi], lefts[lo:hi], dst[lo:hi]
        avg = None if blend is None else blend[lo:hi]
        lo = hi
        for plane, out in planes:
            # Every (bh + fy, bw + fx) window of the plane, by top-left:
            # ``sliding_window_view``'s view at a fraction of its cost.
            plane = np.ascontiguousarray(plane)
            bh, bw = out.shape[1] + fy, out.shape[2] + fx
            (h, w), st = plane.shape, plane.strides
            win = np.ndarray((h - bh + 1, w - bw + 1, bh, bw), plane.dtype,
                             plane, 0, st + st)
            region = win[t, left]
            if fx:
                region = np.add(
                    region[:, :, :-1], region[:, :, 1:], dtype=np.int16
                )
            if fy:
                region = np.add(
                    region[:, :-1], region[:, 1:], dtype=np.int16
                )
            if fy or fx:
                region += 1 + (fy & fx)  # (sum + 2) >> 2 when both
                region >>= fy + fx
            if avg is not None:
                # Rows that are not bidirectional average the fetch
                # with itself: (2p + 1) >> 1 == p.
                cur = out[rows]
                np.copyto(cur, region, where=~avg[:, None, None])
                cur += region
                cur += 1
                cur >>= 1
                region = cur
            out[rows] = region


def predict_macroblocks(
    tile: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    directions: tuple[tuple[Frame | None, np.ndarray, np.ndarray, np.ndarray], ...],
) -> None:
    """Motion-compensated prediction of macroblocks into their tiles.

    ``tile`` is ``(n, 24, 16)`` int16, luma over Cb | Cr, for the
    macroblocks at ``(rows, cols)``.  ``directions`` is forward, then
    backward: ``(ref, on, dys, dxs)``, where macroblock ``i`` predicts
    from ``ref`` with luma vector ``(dys[i], dxs[i])`` if ``on[i]``.
    Chroma uses the luma vector halved toward zero (as
    :meth:`MotionVector.chroma`), and a macroblock on in both
    directions gets the rounded average.  Tiles predicted from neither
    are left as they are.
    """
    y, cb, cr = tile[:, :16], tile[:, 16:, :8], tile[:, 16:, 8:]
    blend = None
    for ref, on, dys, dxs in directions:
        if on.any():
            if ref is None:
                raise ValueError(
                    "motion vector present but reference frame missing"
                )
            dst = np.flatnonzero(on)
            r, c, dy, dx = rows[dst], cols[dst], dys[dst], dxs[dst]
            avg = None if blend is None else blend[dst]
            predict_blocks(((ref.y, y),), r * 16, c * 16, dy, dx, dst, avg)
            dy = np.sign(dy) * (np.abs(dy) >> 1)
            dx = np.sign(dx) * (np.abs(dx) >> 1)
            predict_blocks(((ref.cb, cb), (ref.cr, cr)), r * 8, c * 8,
                           dy, dx, dst, avg)
        blend = on


def macroblock_view(plane: np.ndarray, size: int = MACROBLOCK_SIZE) -> np.ndarray:
    """The ``(n, size, size)`` tiles of a plane in raster order (a copy)."""
    h, w = plane.shape
    tiles = plane.reshape(h // size, size, w // size, size).swapaxes(1, 2)
    return tiles.reshape(-1, size, size)


def intra_activity(mbs: np.ndarray) -> np.ndarray:
    """Mean-removed activity of ``(..., h, w)`` macroblocks.

    The classic mode-decision heuristic from the reference encoder:
    choose intra when the inter SAD exceeds the block's own deviation
    from its (truncated) mean.
    """
    m = mbs.astype(np.int32)
    mean = m.sum(axis=(-2, -1)) // (m.shape[-2] * m.shape[-1])
    return np.abs(m - mean[..., None, None]).sum(axis=(-2, -1))
