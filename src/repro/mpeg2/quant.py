"""Quantization and inverse quantization (ISO 13818-2 section 7.4).

Conventions
-----------
* Intra DC uses fixed step 8 (``intra_dc_precision`` of 8 bits) and is
  coded differentially elsewhere; here it is just ``round(F/8)``.
* Intra AC: ``QF = round(16 * F / (W * q))`` with weight matrix ``W``
  and quantiser scale ``q``; reconstruction truncates toward zero:
  ``F' = trunc(2 * QF * W * q / 32)``.
* Non-intra: dead-zone quantizer ``QF = trunc(16 * F / (W * q))``;
  reconstruction ``F' = trunc((2*QF + sign(QF)) * W * q / 32)``.
* Saturation to [-2048, 2047] and MPEG-2 *mismatch control* (force the
  coefficient sum odd by toggling coefficient (7,7)) are applied after
  inverse quantization of each block.

All functions are vectorised over leading axes: ``(..., 8, 8)``.
"""

from __future__ import annotations

import numpy as np

from repro.mpeg2.constants import (
    COEFF_MAX,
    COEFF_MIN,
    LEVEL_MAX,
    LEVEL_MIN,
)

#: Intra DC quantization step (intra_dc_precision = 8 bits).
INTRA_DC_STEP = 8


def _trunc_div(num: np.ndarray, den: int | np.ndarray) -> np.ndarray:
    """Integer division truncating toward zero (C semantics).

    Both reconstruction formulas divide by a power-of-two constant, so
    that case avoids hardware division entirely: an arithmetic shift
    floors, and negative operands with a nonzero remainder are nudged
    one step back up toward zero.
    """
    if isinstance(den, int) and den > 0 and den & (den - 1) == 0:
        shift = den.bit_length() - 1
        q = num >> shift
        q += ((num & (den - 1)) != 0) & (num < 0)
        return q
    return (np.sign(num) * (np.abs(num) // np.abs(den))).astype(np.int64)


# ----------------------------------------------------------------------
# forward quantization (encoder)
# ----------------------------------------------------------------------
def quantize_intra(
    coeffs: np.ndarray, matrix: np.ndarray, qscale: int
) -> np.ndarray:
    """Quantize intra-block DCT coefficients, DC included.

    The DC (position ``[..., 0, 0]``) is quantized with the fixed step
    :data:`INTRA_DC_STEP`; AC terms use the weight matrix.  Output is
    int64 levels clamped to the escape-codable range.
    """
    f = np.asarray(coeffs, dtype=np.float64)
    levels = np.rint(16.0 * f / (matrix * float(qscale)))
    levels[..., 0, 0] = np.rint(f[..., 0, 0] / INTRA_DC_STEP)
    return np.clip(levels, LEVEL_MIN, LEVEL_MAX).astype(np.int64)


def quantize_non_intra(
    coeffs: np.ndarray, matrix: np.ndarray, qscale: int
) -> np.ndarray:
    """Dead-zone quantization of prediction-error DCT coefficients."""
    f = np.asarray(coeffs, dtype=np.float64)
    scaled = 16.0 * f / (matrix * float(qscale))
    levels = np.trunc(scaled)
    return np.clip(levels, LEVEL_MIN, LEVEL_MAX).astype(np.int64)


# ----------------------------------------------------------------------
# inverse quantization (decoder AND encoder reconstruction loop)
# ----------------------------------------------------------------------
def dequantize_intra(
    levels: np.ndarray, matrix: np.ndarray, qscale: int | np.ndarray
) -> np.ndarray:
    """Reconstruct intra coefficients from levels (int64 out).

    ``qscale`` may be a scalar or a per-block array broadcastable
    against ``(..., 8, 8)`` (e.g. shape ``(n, 1, 1)``) — the batched
    decode path dequantizes every block of a picture in one call, each
    at the quantiser scale its macroblock was coded with.
    """
    lv = np.asarray(levels, dtype=np.int64)
    # trunc(2 * QF * W * q / 32) == trunc(QF * W * q / 16) exactly.
    f = _trunc_div(lv * matrix * qscale, 16)
    f[..., 0, 0] = lv[..., 0, 0] * INTRA_DC_STEP
    f = np.clip(f, COEFF_MIN, COEFF_MAX)
    return _mismatch_control(f)


def dequantize_non_intra(
    levels: np.ndarray, matrix: np.ndarray, qscale: int | np.ndarray
) -> np.ndarray:
    """Reconstruct non-intra coefficients from levels (int64 out).

    ``qscale`` broadcasts like in :func:`dequantize_intra`.
    """
    lv = np.asarray(levels, dtype=np.int64)
    f = _trunc_div((2 * lv + np.sign(lv)) * matrix * qscale, 32)
    f = np.clip(f, COEFF_MIN, COEFF_MAX)
    return _mismatch_control(f)


def _mismatch_control(coeffs: np.ndarray) -> np.ndarray:
    """MPEG-2 mismatch control: make each block's coefficient sum odd.

    If the sum over a block is even, coefficient (7,7) is nudged by
    +/-1 (toward even-to-odd parity of that coefficient), flipping the
    total parity.  This is what kept the reference encoder and the many
    third-party IDCTs from drifting apart; here it doubles as a tested
    invariant.
    """
    total = coeffs.sum(axis=(-2, -1))
    even = (total % 2) == 0
    if not np.any(even):
        return coeffs
    last = coeffs[..., 7, 7]
    adjust = np.where(last % 2 == 0, 1, -1)
    coeffs[..., 7, 7] = np.where(even, last + adjust, last)
    return coeffs
