"""Sequence, GOP, picture and slice header syntax.

Each header (de)serialises itself to a :class:`BitWriter` /
:class:`BitReader` positioned just *after* its start code.  Layout
follows ISO 11172-2 / 13818-2; the fields we hold constant in this
reproduction (aspect ratio, constrained flag, custom matrices) are
still coded on the wire so header sizes are realistic for the scan-rate
and memory models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2.constants import PictureType
from repro.mpeg2.scan import ZIGZAG
from repro.mpeg2.tables import (
    DEFAULT_INTRA_QUANT_MATRIX,
    DEFAULT_NON_INTRA_QUANT_MATRIX,
)

#: frame_rate_code -> frames/second (ISO 13818-2 Table 6-4, subset).
FRAME_RATES = {
    1: 23.976,
    2: 24.0,
    3: 25.0,
    4: 29.97,
    5: 30.0,
    6: 50.0,
    7: 59.94,
    8: 60.0,
}


def frame_rate_code_for(fps: float) -> int:
    """The frame_rate_code whose rate is nearest ``fps``."""
    return min(FRAME_RATES, key=lambda c: abs(FRAME_RATES[c] - fps))


@dataclass
class SequenceHeader:
    """sequence_header(): picture dimensions, rate, quant matrices."""

    width: int
    height: int
    frame_rate_code: int = 5  # 30 fps, the paper's display rate
    bit_rate: int = 5_000_000  # bits/second (paper: 5 or 7 Mb/s)
    vbv_buffer_size: int = 112
    aspect_ratio_code: int = 1
    intra_quant_matrix: np.ndarray = field(
        default_factory=lambda: DEFAULT_INTRA_QUANT_MATRIX.copy()
    )
    non_intra_quant_matrix: np.ndarray = field(
        default_factory=lambda: DEFAULT_NON_INTRA_QUANT_MATRIX.copy()
    )

    @property
    def frame_rate(self) -> float:
        return FRAME_RATES[self.frame_rate_code]

    def write(self, w: BitWriter) -> None:
        if not (0 < self.width < 4096 and 0 < self.height < 4096):
            raise ValueError(f"dimensions out of 12-bit range: {self.width}x{self.height}")
        w.write_bits(self.width, 12)
        w.write_bits(self.height, 12)
        w.write_bits(self.aspect_ratio_code, 4)
        w.write_bits(self.frame_rate_code, 4)
        # bit_rate is coded in units of 400 bits/s, rounded up.
        w.write_bits(min((self.bit_rate + 399) // 400, (1 << 18) - 1), 18)
        w.write_bit(1)  # marker
        w.write_bits(self.vbv_buffer_size, 10)
        w.write_bit(0)  # constrained_parameters_flag
        custom_intra = not np.array_equal(
            self.intra_quant_matrix, DEFAULT_INTRA_QUANT_MATRIX
        )
        w.write_bit(int(custom_intra))
        if custom_intra:
            _write_matrix(w, self.intra_quant_matrix)
        custom_non_intra = not np.array_equal(
            self.non_intra_quant_matrix, DEFAULT_NON_INTRA_QUANT_MATRIX
        )
        w.write_bit(int(custom_non_intra))
        if custom_non_intra:
            _write_matrix(w, self.non_intra_quant_matrix)
        w.align()

    @classmethod
    def read(cls, r: BitReader) -> "SequenceHeader":
        width = r.read_bits(12)
        height = r.read_bits(12)
        aspect = r.read_bits(4)
        frc = r.read_bits(4)
        bit_rate = r.read_bits(18) * 400
        if r.read_bit() != 1:
            raise ValueError("sequence header: missing marker bit")
        vbv = r.read_bits(10)
        r.read_bit()  # constrained_parameters_flag
        intra = (
            _read_matrix(r) if r.read_bit() else DEFAULT_INTRA_QUANT_MATRIX.copy()
        )
        non_intra = (
            _read_matrix(r) if r.read_bit() else DEFAULT_NON_INTRA_QUANT_MATRIX.copy()
        )
        return cls(
            width=width,
            height=height,
            frame_rate_code=frc,
            bit_rate=bit_rate,
            vbv_buffer_size=vbv,
            aspect_ratio_code=aspect,
            intra_quant_matrix=intra,
            non_intra_quant_matrix=non_intra,
        )


def _write_matrix(w: BitWriter, matrix: np.ndarray) -> None:
    """Emit a quant matrix in zig-zag order, 8 bits per entry."""
    flat = matrix.reshape(64)[ZIGZAG]
    for v in flat:
        w.write_bits(int(v), 8)


def _read_matrix(r: BitReader) -> np.ndarray:
    out = np.empty(64, dtype=np.int64)
    scanned = [r.read_bits(8) for _ in range(64)]
    out[ZIGZAG] = scanned
    return out.reshape(8, 8)


@dataclass
class GopHeader:
    """group_of_pictures() header: time code + closed/broken flags."""

    time_code_pictures: int = 0  # picture counter encoded into time_code
    closed_gop: bool = True
    broken_link: bool = False
    frame_rate: float = 30.0

    def write(self, w: BitWriter) -> None:
        fps = max(int(round(self.frame_rate)), 1)
        total_seconds, pictures = divmod(self.time_code_pictures, fps)
        minutes_total, seconds = divmod(total_seconds, 60)
        hours, minutes = divmod(minutes_total, 60)
        w.write_bit(0)  # drop_frame_flag
        w.write_bits(hours % 24, 5)
        w.write_bits(minutes, 6)
        w.write_bit(1)  # marker
        w.write_bits(seconds, 6)
        w.write_bits(pictures % 64, 6)
        w.write_bit(int(self.closed_gop))
        w.write_bit(int(self.broken_link))
        w.align()

    @classmethod
    def read(cls, r: BitReader, frame_rate: float = 30.0) -> "GopHeader":
        r.read_bit()  # drop_frame_flag
        hours = r.read_bits(5)
        minutes = r.read_bits(6)
        if r.read_bit() != 1:
            raise ValueError("GOP header: missing marker bit")
        seconds = r.read_bits(6)
        pictures = r.read_bits(6)
        closed = bool(r.read_bit())
        broken = bool(r.read_bit())
        fps = max(int(round(frame_rate)), 1)
        count = ((hours * 60 + minutes) * 60 + seconds) * fps + pictures
        return cls(
            time_code_pictures=count,
            closed_gop=closed,
            broken_link=broken,
            frame_rate=frame_rate,
        )


#: extra_information_picture byte flag: coefficient scan selection.
#: (MPEG-2 proper signals alternate_scan in the picture coding
#: extension; we carry it in the MPEG-1-style header's extensible
#: extra-information mechanism, which compliant decoders skip.)
_EXTRA_ALTERNATE_SCAN = 0x01


@dataclass
class PictureHeader:
    """picture_header(): temporal reference, type, f_codes, scan.

    ``alternate_scan`` selects the MPEG-2 alternate coefficient scan
    (ISO 13818-2 Fig. 7-3) for every block of the picture — the scan
    designed for interlaced material, which the paper lists as the
    next step (Section 7.3).
    """

    temporal_reference: int
    picture_type: PictureType
    forward_f_code: int = 1
    backward_f_code: int = 1
    vbv_delay: int = 0xFFFF
    alternate_scan: bool = False

    def write(self, w: BitWriter) -> None:
        w.write_bits(self.temporal_reference % 1024, 10)
        w.write_bits(int(self.picture_type), 3)
        w.write_bits(self.vbv_delay, 16)
        if self.picture_type in (PictureType.P, PictureType.B):
            w.write_bit(0)  # full_pel_forward_vector (always half-pel)
            w.write_bits(self.forward_f_code, 3)
        if self.picture_type is PictureType.B:
            w.write_bit(0)  # full_pel_backward_vector
            w.write_bits(self.backward_f_code, 3)
        if self.alternate_scan:
            w.write_bit(1)  # extra_bit_picture
            w.write_bits(_EXTRA_ALTERNATE_SCAN, 8)
        w.write_bit(0)  # extra_bit_picture: end
        w.align()

    @classmethod
    def read(cls, r: BitReader) -> "PictureHeader":
        tref = r.read_bits(10)
        ptype = PictureType(r.read_bits(3))
        vbv_delay = r.read_bits(16)
        fwd = bwd = 1
        if ptype in (PictureType.P, PictureType.B):
            r.read_bit()
            fwd = r.read_bits(3)
            if not 1 <= fwd <= 7:
                raise ValueError(f"bad forward_f_code {fwd}")
        if ptype is PictureType.B:
            r.read_bit()
            bwd = r.read_bits(3)
            if not 1 <= bwd <= 7:
                raise ValueError(f"bad backward_f_code {bwd}")
        alternate = False
        while r.read_bit() == 1:
            extra = r.read_bits(8)
            if extra & _EXTRA_ALTERNATE_SCAN:
                alternate = True
        return cls(
            temporal_reference=tref,
            picture_type=ptype,
            forward_f_code=fwd,
            backward_f_code=bwd,
            vbv_delay=vbv_delay,
            alternate_scan=alternate,
        )

    def values(self) -> tuple:
        """The fields in order, the picture type as its code: plain
        values pickle several times faster than the instance (its enum
        member alone costs more than the rest), which matters for a
        header that rides every slice task."""
        return (
            self.temporal_reference, int(self.picture_type),
            self.forward_f_code, self.backward_f_code, self.vbv_delay,
            self.alternate_scan,
        )

    @classmethod
    def from_values(cls, values: tuple) -> "PictureHeader":
        """The inverse of :meth:`values`."""
        tref, ptype, *rest = values
        return cls(tref, PictureType(ptype), *rest)


@dataclass
class SliceHeader:
    """slice() header fields following the slice start code.

    The macroblock row is carried by the start-code *value*
    (``slice_vertical_position``, 1-based), not by header fields.
    """

    quantiser_scale_code: int

    def write(self, w: BitWriter) -> None:
        if not 1 <= self.quantiser_scale_code <= 31:
            raise ValueError(f"bad quantiser_scale_code {self.quantiser_scale_code}")
        w.write_bits(self.quantiser_scale_code, 5)
        w.write_bit(0)  # extra_bit_slice

    @classmethod
    def read(cls, r: BitReader) -> "SliceHeader":
        code = r.read_bits(5)
        if code == 0:
            raise ValueError("quantiser_scale_code must be nonzero")
        if r.read_bit() != 0:
            raise ValueError("unexpected extra_information_slice")
        return cls(quantiser_scale_code=code)
