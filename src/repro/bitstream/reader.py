"""MSB-first bit reader used by the decoders.

Decoding MPEG requires three access patterns, all provided here:

* sequential ``read_bits`` for fixed-length fields,
* ``peek_bits`` for table-driven VLC decode (look at up to *n* bits,
  then consume only the matched codeword length),
* byte alignment + start-code resynchronisation for the slice layer.

The reader also counts the bits it hands out (``bits_consumed``), which
feeds the paper-calibrated cycle cost model: bitstream parsing cost in
the paper is proportional to the stream's bit rate, not the pixel rate.

Performance
-----------
``read_bits``/``peek_bits`` are the innermost operations of VLC decode,
so they avoid per-call byte assembly: the reader caches a *chunk* of
the buffer as one Python ``int`` and serves reads with a single
shift+mask.  Chunking (rather than converting the whole buffer at
construction) keeps every operation O(chunk) — a whole-buffer integer
would make each shift O(buffer), turning index scans over megabyte
streams quadratic.  ``bits_consumed`` accounting (``bit_position``) is
unchanged.
"""

from __future__ import annotations


class BitstreamError(Exception):
    """Raised on malformed or truncated bitstream input."""


#: Cached-chunk size.  Small enough that the cached int stays a few
#: machine words (shift+mask cost), large enough to amortise refills.
_CACHE_BYTES = 32
_CACHE_BITS = _CACHE_BYTES * 8
#: Reads longer than this bypass the cache (after byte alignment a
#: chunk refilled at ``pos`` is only guaranteed to cover this many bits).
_MAX_CACHED_READ = _CACHE_BITS - 7


class BitReader:
    """Read an MSB-first bit string from ``bytes``.

    Parameters
    ----------
    data:
        The backing buffer.  It is not copied; treat it as immutable.
    start_bit:
        Bit offset at which reading starts (default 0).
    """

    __slots__ = ("_data", "_pos", "_nbits", "_cache", "_cache_start", "_cache_end")

    def __init__(self, data: bytes, start_bit: int = 0) -> None:
        self._data = data
        self._nbits = len(data) * 8
        if not 0 <= start_bit <= self._nbits:
            raise ValueError(f"start_bit {start_bit} out of range")
        self._pos = start_bit
        # Cached chunk: bits [_cache_start, _cache_end) of the buffer as
        # one int.  Empty until the first read touches it.
        self._cache = 0
        self._cache_start = 0
        self._cache_end = 0

    def _refill(self, pos: int) -> None:
        """Load the chunk containing bit ``pos`` into the cache."""
        first = pos >> 3
        last = min(first + _CACHE_BYTES, len(self._data))
        self._cache = int.from_bytes(self._data[first:last], "big")
        self._cache_start = first * 8
        self._cache_end = last * 8

    # ------------------------------------------------------------------
    # position management
    # ------------------------------------------------------------------
    @property
    def bit_position(self) -> int:
        """Current absolute bit offset from the start of the buffer."""
        return self._pos

    @bit_position.setter
    def bit_position(self, pos: int) -> None:
        if not 0 <= pos <= self._nbits:
            raise ValueError(f"bit position {pos} out of range")
        self._pos = pos

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def align(self) -> None:
        """Skip forward to the next byte boundary (no-op if aligned)."""
        self._pos = (self._pos + 7) & ~7

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_bits(self, nbits: int) -> int:
        """Consume and return ``nbits`` bits as an unsigned integer."""
        if nbits <= 0:
            if nbits == 0:
                return 0
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        pos = self._pos
        end = pos + nbits
        if end > self._nbits:
            raise BitstreamError(
                f"read past end of stream (want {nbits} bits at {pos}, "
                f"have {self._nbits - pos})"
            )
        if pos < self._cache_start or end > self._cache_end:
            if nbits > _MAX_CACHED_READ:
                # Rare oversized read: assemble directly from the bytes.
                first = pos >> 3
                last = (end + 7) >> 3
                chunk = int.from_bytes(self._data[first:last], "big")
                self._pos = end
                return (chunk >> (last * 8 - end)) & ((1 << nbits) - 1)
            self._refill(pos)
        self._pos = end
        return (self._cache >> (self._cache_end - end)) & ((1 << nbits) - 1)

    def peek_bits(self, nbits: int) -> int:
        """Return the next ``nbits`` bits without consuming them.

        Bits past the end of the buffer read as zero — this lets
        table-driven VLC decoders peek a fixed window near the stream
        tail; an actual overrun is then caught when the decoded length
        is consumed with :meth:`read_bits`.
        """
        if nbits <= 0:
            if nbits == 0:
                return 0
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        pos = self._pos
        end = pos + nbits
        if end <= self._nbits:
            if pos < self._cache_start or end > self._cache_end:
                if nbits > _MAX_CACHED_READ:
                    first = pos >> 3
                    last = (end + 7) >> 3
                    chunk = int.from_bytes(self._data[first:last], "big")
                    return (chunk >> (last * 8 - end)) & ((1 << nbits) - 1)
                self._refill(pos)
            return (self._cache >> (self._cache_end - end)) & ((1 << nbits) - 1)
        # Tail peek: real bits first, then zero padding.
        pad = end - self._nbits
        got = self._nbits - pos
        if got <= 0:
            return 0
        if pos < self._cache_start or self._nbits > self._cache_end:
            if got > _MAX_CACHED_READ:
                first = pos >> 3
                chunk = int.from_bytes(self._data[first:], "big")
                return ((chunk & ((1 << got) - 1)) << pad)
            self._refill(pos)
        val = (self._cache >> (self._cache_end - self._nbits)) & ((1 << got) - 1)
        return val << pad

    def read_bit(self) -> int:
        return self.read_bits(1)

    def skip_bits(self, nbits: int) -> None:
        if self._pos + nbits > self._nbits:
            raise BitstreamError("skip past end of stream")
        self._pos += nbits

    def read_signed(self, nbits: int) -> int:
        """Read a two's-complement signed value of ``nbits`` bits."""
        raw = self.read_bits(nbits)
        sign = 1 << (nbits - 1)
        return raw - (1 << nbits) if raw & sign else raw

    # ------------------------------------------------------------------
    # start-code resynchronisation
    # ------------------------------------------------------------------
    def next_start_code(self) -> int | None:
        """Align and scan forward to the next ``00 00 01 xx`` pattern.

        Positions the reader *after* the 4-byte start code and returns
        the code value ``xx``, or returns ``None`` (reader at EOF) if no
        further start code exists.
        """
        self.align()
        data = self._data
        i = self._pos >> 3
        n = len(data)
        while True:
            j = data.find(b"\x00\x00\x01", i)
            if j < 0 or j + 3 >= n:
                self._pos = self._nbits
                return None
            self._pos = (j + 4) * 8
            return data[j + 3]

    def at_start_code(self) -> bool:
        """True if the (aligned) reader is positioned at a start code."""
        if self._pos % 8:
            return False
        i = self._pos >> 3
        return self._data[i : i + 3] == b"\x00\x00\x01"
