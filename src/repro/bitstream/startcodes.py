"""MPEG-2 video start codes and the fast scanner.

The scanner is the substrate of the paper's *scan process*: it walks an
encoded stream looking only for the byte-aligned ``00 00 01 xx``
patterns, classifying each hit (sequence / GOP / picture / slice), and
never touches the VLC-coded payload.  This is what makes the GOP-level
and slice-level task queues cheap to build — tasks are located by
scanning, not by decoding (Section 4 of the paper).
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

#: The 24-bit byte-aligned prefix of every MPEG start code.
START_CODE_PREFIX = 0x000001

# Start-code values (ISO/IEC 13818-2 Table 6-1).
PICTURE_START_CODE = 0x00
SLICE_START_CODE_MIN = 0x01
SLICE_START_CODE_MAX = 0xAF
USER_DATA_START_CODE = 0xB2
SEQUENCE_HEADER_CODE = 0xB3
SEQUENCE_ERROR_CODE = 0xB4
EXTENSION_START_CODE = 0xB5
SEQUENCE_END_CODE = 0xB7
GROUP_START_CODE = 0xB8


def is_slice_start_code(code: int) -> bool:
    """True for the slice start-code value range ``0x01..0xAF``.

    The code value encodes ``slice_vertical_position`` (the macroblock
    row the slice starts on, 1-based), which is how the scan process
    can tell slices apart without decoding them.
    """
    return SLICE_START_CODE_MIN <= code <= SLICE_START_CODE_MAX


class StartCodeHit(NamedTuple):
    """One start code located in a byte buffer.

    Attributes
    ----------
    offset:
        Byte offset of the first ``0x00`` of the 4-byte start code.
    code:
        The start-code value byte (e.g. ``GROUP_START_CODE``).
    """

    offset: int
    code: int

    @property
    def payload_offset(self) -> int:
        """Byte offset of the first byte after the 4-byte start code."""
        return self.offset + 4

    @property
    def is_slice(self) -> bool:
        return is_slice_start_code(self.code)


def find_start_codes(
    data: bytes, start: int = 0, end: int | None = None
) -> list[StartCodeHit]:
    """Locate every start code in ``data[start:end]`` (non-negative
    bounds).

    Runs at scan-process speed: one NumPy pass over the bytes (the
    zero bytes, then two gathers for the rest of the prefix) and no
    bit-level decoding.  The semantics are those of a ``bytes.find``
    loop that resumes 4 bytes past each hit: any number of zero bytes
    may precede the ``00 00 01`` prefix and the *last* possible
    alignment wins (``00 00 00 01`` is one hit, at offset 1); a prefix
    that starts inside the previous hit's 4 bytes (``00 00 01 00 00 01``)
    is skipped; a prefix with no code byte before ``end`` is dropped.
    """
    v = np.frombuffer(data, np.uint8)[start:end]
    if v.size < 4:
        return []
    # A prefix at p needs its code byte at p + 3 inside the window.
    p = np.flatnonzero(v[:-3] == 0)
    p = p[v[p + 1] == 0]
    p = p[v[p + 2] == 1]
    if np.any(np.diff(p) == 3):
        # Two prefixes 3 apart share a byte: the loop resumes past the
        # first one's code byte, so the second is not seen.
        keep, last = [], -4
        for q in p.tolist():
            if q >= last + 4:
                keep.append(q)
                last = q
        p = np.array(keep, dtype=np.intp)
    # ``tuple.__new__`` builds each hit in C, without a Python-level
    # ``StartCodeHit.__new__`` call per hit.
    pairs = zip((p + start).tolist(), v[p + 3].tolist())
    return list(map(tuple.__new__, repeat(StartCodeHit), pairs))
