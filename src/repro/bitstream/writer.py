"""MSB-first bit writer used by the encoder.

The writer accumulates bits into a ``bytearray``.  MPEG bit order is
most-significant-bit first within each byte; start codes must land on
byte boundaries, which :meth:`BitWriter.align` guarantees by zero
padding (the MPEG-2 spec pads with zero bits before start codes).
"""

from __future__ import annotations


class BitWriter:
    """Accumulate an MSB-first bit string into bytes.

    The writer keeps a partial-byte accumulator; bytes are flushed into
    the backing ``bytearray`` as they fill.  ``getvalue()`` may be
    called at any byte-aligned point (call :meth:`align` first if the
    stream may be mid-byte).
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0          # bits accumulated, MSB side first
        self._nacc = 0         # number of valid bits in _acc (0..7)

    # ------------------------------------------------------------------
    # core emission
    # ------------------------------------------------------------------
    def write_bits(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` bits of ``value``, MSB first.

        ``nbits`` may be 0 (no-op).  ``value`` must be a non-negative
        integer that fits in ``nbits`` bits.
        """
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | value
        n = self._nacc + nbits
        if n >= 8:
            # Flush every whole byte in one conversion, so a long value
            # (a packed run of codewords) costs linear time.
            keep = n & 7
            self._buf += (acc >> keep).to_bytes(n >> 3, "big")
            acc &= (1 << keep) - 1
            n = keep
        self._acc = acc
        self._nacc = n

    def write_bit(self, bit: int) -> None:
        """Write a single bit (0 or 1)."""
        self.write_bits(bit & 1, 1)

    def write_string(self, bits: str) -> None:
        """Write a literal bit string such as ``"0000110"``.

        Convenient for VLC codewords, which are naturally expressed as
        strings of ``0``/``1`` characters.
        """
        if bits:
            self.write_bits(int(bits, 2), len(bits))

    def write_signed(self, value: int, nbits: int) -> None:
        """Write a two's-complement signed value in ``nbits`` bits."""
        lo = -(1 << (nbits - 1))
        hi = (1 << (nbits - 1)) - 1
        if not lo <= value <= hi:
            raise ValueError(f"signed value {value} does not fit in {nbits} bits")
        self.write_bits(value & ((1 << nbits) - 1), nbits)

    # ------------------------------------------------------------------
    # alignment and start codes
    # ------------------------------------------------------------------
    @property
    def bit_position(self) -> int:
        """Total number of bits written so far."""
        return len(self._buf) * 8 + self._nacc

    def align(self) -> None:
        """Zero-pad to the next byte boundary (no-op if aligned)."""
        if self._nacc:
            self.write_bits(0, 8 - self._nacc)

    def write_start_code(self, code: int) -> None:
        """Emit a byte-aligned MPEG start code ``00 00 01 <code>``."""
        if not 0 <= code <= 0xFF:
            raise ValueError(f"start code value out of range: {code}")
        self.align()
        self._buf.extend((0x00, 0x00, 0x01, code))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def getvalue(self) -> bytes:
        """Return the bytes written so far.

        Raises if the stream is not byte-aligned: emitting a partial
        byte would silently drop bits.
        """
        if self._nacc:
            raise ValueError(
                "bit stream not byte aligned; call align() before getvalue()"
            )
        return bytes(self._buf)

    def __len__(self) -> int:
        """Number of whole bytes flushed so far."""
        return len(self._buf)
