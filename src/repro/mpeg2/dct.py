"""8x8 forward and inverse DCT.

The MPEG 2-D DCT with its C(u)C(v)/4 normalisation is exactly the
orthonormal ("ortho") type-II DCT for N=8, so we delegate to
``scipy.fft`` which is vectorised over arbitrary leading axes — the
encoder and decoder transform all blocks of a picture in one call.

Both sides of the codec use *the same* float implementation followed by
the same rounding, so the encoder's local reconstruction is bit-exact
with the decoder's output (a tested invariant).  The rounded inverse
is also held to the IEEE 1180 accuracy limits against a float64
matrix-formula IDCT (``tests/mpeg2/test_phase2.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from repro.mpeg2.constants import BLOCK_SIZE


def fdct(blocks: np.ndarray) -> np.ndarray:
    """Forward 8x8 DCT over ``(..., 8, 8)`` spatial data.

    Returns float64 coefficients with the MPEG normalisation
    (DC = 8 * mean of the block).
    """
    _check(blocks)
    return scipy.fft.dctn(
        blocks.astype(np.float64), type=2, axes=(-2, -1), norm="ortho"
    )


def idct(coeffs: np.ndarray, workers: int | None = None) -> np.ndarray:
    """Inverse 8x8 DCT over ``(..., 8, 8)`` coefficients (float64 out).

    ``workers`` is forwarded to ``scipy.fft`` for multi-threaded
    transform of large batches (e.g. ``-1`` for all cores).  The
    result is bit-exact regardless of ``workers`` and of batch size —
    each 8x8 block's transform is independent — which is what lets the
    batched decode path run one IDCT per picture and the benchmarks
    thread it, without perturbing decoder output.
    """
    _check(coeffs)
    return scipy.fft.idctn(
        np.asarray(coeffs, dtype=np.float64),
        type=2,
        axes=(-2, -1),
        norm="ortho",
        workers=workers,
    )


def idct_rounded(coeffs: np.ndarray, workers: int | None = None) -> np.ndarray:
    """Inverse DCT rounded to the nearest integer (int32).

    This single rounding point is shared by encoder reconstruction and
    decoder, guaranteeing bit-exact agreement.  Rounds in place: the
    transform's float64 output is a fresh array, so a second one of the
    same size need not be allocated (and page-faulted) per call.
    """
    f = idct(coeffs, workers=workers)
    return np.rint(f, out=f).astype(np.int32)


def _check(arr: np.ndarray) -> None:
    if arr.shape[-2:] != (BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(f"expected trailing (8, 8) axes, got shape {arr.shape}")
