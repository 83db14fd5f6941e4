"""Macroblock reconstruction: prediction formation + residual add.

Shared by the decoder and (via decode-back) the encoder's local
reconstruction loop, so both sides are bit-exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mpeg2.constants import BLOCK_SIZE, MACROBLOCK_SIZE
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.motion import MotionVector, average_predictions, predict_block


@dataclass(frozen=True)
class Prediction:
    """Motion-compensated prediction for one macroblock (all planes)."""

    y: np.ndarray  # (16, 16) int32
    cb: np.ndarray  # (8, 8) int32
    cr: np.ndarray  # (8, 8) int32


def form_prediction(
    mb_row: int,
    mb_col: int,
    mv_fwd: MotionVector | None,
    mv_bwd: MotionVector | None,
    fwd: Frame | None,
    bwd: Frame | None,
    counters: WorkCounters | None = None,
) -> Prediction:
    """Fetch the (possibly bidirectional) prediction for a macroblock.

    ``mv_fwd``/``mv_bwd`` are absolute luma vectors in half-pel units;
    passing both averages the two fetches (B bidirectional mode).
    """
    if mv_fwd is None and mv_bwd is None:
        raise ValueError("prediction requested with no motion vectors")
    preds = []
    for mv, ref in ((mv_fwd, fwd), (mv_bwd, bwd)):
        if mv is None:
            continue
        if ref is None:
            raise ValueError("motion vector present but reference frame missing")
        y0 = mb_row * MACROBLOCK_SIZE
        x0 = mb_col * MACROBLOCK_SIZE
        cmv = mv.chroma()
        cy0, cx0 = y0 // 2, x0 // 2
        preds.append(
            Prediction(
                y=predict_block(ref.y, y0, x0, 16, 16, mv),
                cb=predict_block(ref.cb, cy0, cx0, 8, 8, cmv),
                cr=predict_block(ref.cr, cy0, cx0, 8, 8, cmv),
            )
        )
    if counters is not None:
        counters.mc_pixels += len(preds) * (256 + 64 + 64)
    if len(preds) == 1:
        return preds[0]
    a, b = preds
    return Prediction(
        y=average_predictions(a.y, b.y),
        cb=average_predictions(a.cb, b.cb),
        cr=average_predictions(a.cr, b.cr),
    )


#: (plane, row-offset block units, col-offset) for blocks 0..5 of a MB.
_BLOCK_SLOTS = (
    ("y", 0, 0),
    ("y", 0, 1),
    ("y", 1, 0),
    ("y", 1, 1),
    ("cb", 0, 0),
    ("cr", 0, 0),
)


def write_macroblock(
    out: Frame,
    mb_row: int,
    mb_col: int,
    blocks: np.ndarray,
    prediction: Prediction | None,
    counters: WorkCounters | None = None,
) -> None:
    """Store one reconstructed macroblock into ``out``.

    ``blocks`` is the (6, 8, 8) int32 IDCT output: pixel values for
    intra macroblocks (``prediction is None``) or the residual to add
    to ``prediction`` otherwise.  Output is clamped to [0, 255].
    """
    for i, (plane_name, br, bc) in enumerate(_BLOCK_SLOTS):
        if plane_name == "y":
            plane = out.y
            y0 = mb_row * MACROBLOCK_SIZE + br * BLOCK_SIZE
            x0 = mb_col * MACROBLOCK_SIZE + bc * BLOCK_SIZE
            pred = None if prediction is None else prediction.y[
                br * BLOCK_SIZE : (br + 1) * BLOCK_SIZE,
                bc * BLOCK_SIZE : (bc + 1) * BLOCK_SIZE,
            ]
        else:
            plane = out.cb if plane_name == "cb" else out.cr
            y0 = mb_row * BLOCK_SIZE
            x0 = mb_col * BLOCK_SIZE
            pred = None if prediction is None else getattr(prediction, plane_name)
        data = blocks[i] if pred is None else blocks[i] + pred
        plane[y0 : y0 + BLOCK_SIZE, x0 : x0 + BLOCK_SIZE] = np.clip(
            data, 0, 255
        ).astype(np.uint8)
    if counters is not None:
        counters.pixels += 256 + 64 + 64


def copy_macroblock(out: Frame, src: Frame, mb_row: int, mb_col: int,
                    counters: WorkCounters | None = None) -> None:
    """Copy a co-located macroblock (P-picture skipped MB, zero MV)."""
    y0 = mb_row * MACROBLOCK_SIZE
    x0 = mb_col * MACROBLOCK_SIZE
    out.y[y0 : y0 + 16, x0 : x0 + 16] = src.y[y0 : y0 + 16, x0 : x0 + 16]
    cy0, cx0 = y0 // 2, x0 // 2
    out.cb[cy0 : cy0 + 8, cx0 : cx0 + 8] = src.cb[cy0 : cy0 + 8, cx0 : cx0 + 8]
    out.cr[cy0 : cy0 + 8, cx0 : cx0 + 8] = src.cr[cy0 : cy0 + 8, cx0 : cx0 + 8]
    if counters is not None:
        counters.pixels += 256 + 64 + 64
        counters.mc_pixels += 256 + 64 + 64


def conceal_row_temporal(out: Frame, ref: Frame, row: int) -> None:
    """Temporal concealment: co-located macroblock row of ``ref``.

    Classic slice concealment — the lost row is replaced by the same
    rows of an already-decoded picture (the forward reference in the
    decoder, the previously delivered picture at a streaming client).
    Row-wide plane copies are bit-identical to per-macroblock
    :func:`copy_macroblock` calls.
    """
    y0 = row * MACROBLOCK_SIZE
    c0 = y0 // 2
    out.y[y0 : y0 + 16, :] = ref.y[y0 : y0 + 16, :]
    out.cb[c0 : c0 + 8, :] = ref.cb[c0 : c0 + 8, :]
    out.cr[c0 : c0 + 8, :] = ref.cr[c0 : c0 + 8, :]


def conceal_row_spatial(out: Frame, row: int) -> None:
    """Spatial concealment: copy the macroblock row above, in place.

    Used when no earlier picture exists to borrow from (an I-picture
    at stream start).  Row 0 has nothing above it and falls back to
    mid-grey.  Concealment sweeps run top-to-bottom, so consecutive
    lost rows cascade deterministically (row ``r`` may copy a row
    ``r-1`` that was itself just concealed) — every decode path applies
    the same sweep order, which is what keeps them bit-identical.
    """
    y0 = row * MACROBLOCK_SIZE
    c0 = y0 // 2
    if row > 0:
        out.y[y0 : y0 + 16, :] = out.y[y0 - 16 : y0, :]
        out.cb[c0 : c0 + 8, :] = out.cb[c0 - 8 : c0, :]
        out.cr[c0 : c0 + 8, :] = out.cr[c0 - 8 : c0, :]
    else:
        out.y[y0 : y0 + 16, :] = 128
        out.cb[c0 : c0 + 8, :] = 128
        out.cr[c0 : c0 + 8, :] = 128


def conceal_row(out: Frame, fwd: Frame | None, row: int) -> str:
    """Conceal one lost macroblock row; returns the policy applied.

    Temporal (from the forward reference) when one exists, spatial
    (row-copy from above) otherwise.  Returns ``"temporal"`` or
    ``"spatial"`` so callers can attribute the concealment under the
    matching ``conceal.*`` stall reason.
    """
    if fwd is not None:
        conceal_row_temporal(out, fwd, row)
        return "temporal"
    conceal_row_spatial(out, row)
    return "spatial"


def conceal_rows(
    out: Frame,
    fwd: Frame | None,
    rows: list[int] | tuple[int, ...],
    counters: WorkCounters | None = None,
) -> tuple[int, int]:
    """Conceal ``rows`` of ``out`` top-to-bottom; count per policy.

    The single concealment sweep every decode path shares (scalar,
    batched, slice-parallel, serve): sorting ascending makes spatial
    cascades deterministic, which is load-bearing for cross-path bit
    parity on the ``conceal_*`` golden vectors.  Returns
    ``(temporal, spatial)`` concealment counts; ``counters`` (when
    given) accrues one ``concealed_slices`` per row.
    """
    temporal = spatial = 0
    for row in sorted(rows):
        if conceal_row(out, fwd, row) == "temporal":
            temporal += 1
        else:
            spatial += 1
    if counters is not None:
        counters.concealed_slices += temporal + spatial
    return temporal, spatial


def missing_rows(mb_height: int, covered_rows) -> list[int]:
    """Macroblock rows 0..mb_height-1 with no slice covering them.

    ``covered_rows`` holds the rows that any slice (good or corrupt)
    claimed.  The resilient decode paths conceal the remainder — a
    stream that *lost* slices (network drop, truncation surgery)
    rather than corrupted them.
    """
    covered = set(covered_rows)
    return [r for r in range(mb_height) if r not in covered]
