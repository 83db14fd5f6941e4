"""Zig-zag and alternate coefficient scan orders.

The DCT concentrates energy in low frequencies; run/level coding is
effective only if coefficients are serialised from low to high
frequency.  MPEG-2 defines two scans (ISO 13818-2 Figure 7-2/7-3): the
classic zig-zag used for progressive material and the *alternate* scan
that suits interlaced content.  We implement both; the codec uses the
zig-zag by default.
"""

from __future__ import annotations

import numpy as np

from repro.mpeg2.constants import BLOCK_SIZE


def _zigzag_order() -> np.ndarray:
    """Indices of the classic zig-zag scan over an 8x8 block.

    ``order[k] = (row, col)`` flattened to ``row * 8 + col`` — i.e. the
    position in the raster block of the k-th scanned coefficient.
    """
    n = BLOCK_SIZE
    order = np.empty(n * n, dtype=np.int64)
    r = c = 0
    for k in range(n * n):
        order[k] = r * n + c
        if (r + c) % 2 == 0:  # moving up-right
            if c == n - 1:
                r += 1
            elif r == 0:
                c += 1
            else:
                r -= 1
                c += 1
        else:  # moving down-left
            if r == n - 1:
                c += 1
            elif c == 0:
                r += 1
            else:
                r += 1
                c -= 1
    return order


def _alternate_order() -> np.ndarray:
    """MPEG-2 alternate scan (ISO 13818-2 Figure 7-3), flattened."""
    table = [
        0, 8, 16, 24, 1, 9, 2, 10,
        17, 25, 32, 40, 48, 56, 57, 49,
        41, 33, 26, 18, 3, 11, 4, 12,
        19, 27, 34, 42, 50, 58, 35, 43,
        51, 59, 20, 28, 5, 13, 6, 14,
        21, 29, 36, 44, 52, 60, 37, 45,
        53, 61, 22, 30, 7, 15, 23, 31,
        38, 46, 54, 62, 39, 47, 55, 63,
    ]
    return np.asarray(table, dtype=np.int64)


#: ``ZIGZAG[k]`` is the raster index of the k-th coefficient in scan order.
ZIGZAG = _zigzag_order()
ALTERNATE = _alternate_order()

#: Inverse permutations: ``ZIGZAG_INV[raster] = scan position``.
ZIGZAG_INV = np.argsort(ZIGZAG)
ALTERNATE_INV = np.argsort(ALTERNATE)


def _step_offsets(order: np.ndarray) -> np.ndarray:
    """``offsets[c]``, for ``c`` the low six bits of a step sum, takes
    ``64 * block + scan + 1`` to ``64 * block + raster`` by one add."""
    scan = (np.arange(64) - 1) & 63  # c == (scan + 1) & 63
    return order[scan] - scan - 1


_STEP_OFFSETS = {False: _step_offsets(ZIGZAG), True: _step_offsets(ALTERNATE)}


def step_sums_to_raster(
    sums: np.ndarray, alternate: bool = False
) -> np.ndarray:
    """Vectorized scan->raster conversion of a coefficient stream's
    running step sums.

    ``sums`` holds ``64 * block + scan_position + 1`` per coefficient —
    the running sum of the batched parser's self-delimiting stream,
    whose steps are ``run + 1`` per coefficient and pad every block to
    64.  Returns ``64 * block + raster_position``, one gather and one
    add per coefficient: the parser emits its stream in scan space — no
    per-symbol position or table lookup — and phase 2 permutes the
    whole stream in this one pass, so no block is ever un-scanned
    individually.
    """
    return sums + _STEP_OFFSETS[alternate][sums & 63]


def scan_block(block: np.ndarray, order: np.ndarray = ZIGZAG) -> np.ndarray:
    """Serialise 8x8 block(s) into scan order.

    Accepts shape ``(..., 8, 8)`` and returns ``(..., 64)``.
    """
    flat = np.reshape(block, block.shape[:-2] + (BLOCK_SIZE * BLOCK_SIZE,))
    return flat[..., order]


def unscan_block(scanned: np.ndarray, order: np.ndarray = ZIGZAG) -> np.ndarray:
    """Inverse of :func:`scan_block`: ``(..., 64)`` -> ``(..., 8, 8)``."""
    out = np.empty_like(scanned)
    out[..., order] = scanned
    return np.reshape(out, scanned.shape[:-1] + (BLOCK_SIZE, BLOCK_SIZE))
