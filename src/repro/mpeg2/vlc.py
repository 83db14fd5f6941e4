"""Table-driven variable-length (Huffman) encode/decode engine.

Decoding uses the standard fixed-peek technique: peek ``max_len`` bits,
look the value up in a dense table mapping every possible ``max_len``
prefix to its symbol and code length, then consume only the code
length.  This mirrors how the MPEG Software Simulation Group decoder
(and every production decoder) implements VLC decode, and it is O(1)
per symbol.

The dense table is stored as two parallel flat arrays — a symbol list
and a ``bytes`` length table (length 0 marking invalid prefixes) —
rather than a list of ``(symbol, length)`` tuples: the hot decode path
then does two flat indexed loads instead of a tuple unpack per symbol.
:meth:`VLCTable.decode_fast` exposes the raw window lookup for parsers
that manage their own bit cursor (the phase-1 batched parser).
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.bitstream import BitReader, BitWriter

Symbol = Hashable


class VLCError(Exception):
    """Raised when the bitstream contains an invalid codeword."""


class VLCTable:
    """A prefix-free variable-length code over arbitrary symbols.

    Parameters
    ----------
    codes:
        Mapping from symbol to codeword bit string (e.g. ``"0010"``).
        Must be prefix-free; validated at construction.
    name:
        Used in error messages.
    """

    def __init__(self, codes: Mapping[Symbol, str], name: str = "vlc") -> None:
        if not codes:
            raise ValueError("empty codebook")
        self.name = name
        self._encode: dict[Symbol, tuple[int, int]] = {}
        for sym, bits in codes.items():
            if not bits or set(bits) - {"0", "1"}:
                raise ValueError(f"{name}: bad codeword {bits!r} for {sym!r}")
            self._encode[sym] = (int(bits, 2), len(bits))

        self.max_len = max(length for _, length in self._encode.values())
        if self.max_len > 20:
            # The dense decode table is 2^max_len entries; MPEG's own
            # tables stop at 17 bits, ours are length-limited to 16.
            raise ValueError(f"{name}: codewords longer than 20 bits unsupported")

        # Dense decode table over all max_len-bit prefixes, stored as
        # two parallel flat arrays: symbol per window and code length
        # per window (0 = invalid prefix).  Two indexed loads per
        # symbol, no tuple unpacking in the hot loop.
        size = 1 << self.max_len
        self._dec_syms: list[Symbol | None] = [None] * size
        dec_lens = bytearray(size)
        for sym, (value, length) in self._encode.items():
            shift = self.max_len - length
            base = value << shift
            for fill in range(1 << shift):
                slot = base | fill
                if dec_lens[slot]:
                    other = self._dec_syms[slot]
                    raise ValueError(
                        f"{name}: code for {sym!r} collides with {other!r} "
                        "(codebook is not prefix-free)"
                    )
                self._dec_syms[slot] = sym
                dec_lens[slot] = length
        self._dec_lens: bytes = bytes(dec_lens)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._encode)

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._encode

    def symbols(self) -> list[Symbol]:
        return list(self._encode)

    def code_length(self, symbol: Symbol) -> int:
        return self._encode[symbol][1]

    def codeword(self, symbol: Symbol) -> str:
        value, length = self._encode[symbol]
        return format(value, f"0{length}b")

    # ------------------------------------------------------------------
    def encode(self, writer: BitWriter, symbol: Symbol) -> int:
        """Emit the codeword for ``symbol``; returns its bit length."""
        try:
            value, length = self._encode[symbol]
        except KeyError:
            raise VLCError(f"{self.name}: symbol {symbol!r} not in codebook") from None
        writer.write_bits(value, length)
        return length

    def decode(self, reader: BitReader) -> Symbol:
        """Consume one codeword from ``reader`` and return its symbol."""
        window = reader.peek_bits(self.max_len)
        length = self._dec_lens[window]
        if length == 0:
            raise VLCError(
                f"{self.name}: invalid codeword at bit {reader.bit_position} "
                f"(window {window:0{self.max_len}b})"
            )
        if length > reader.bits_remaining:
            raise VLCError(f"{self.name}: truncated codeword at end of stream")
        reader.skip_bits(length)
        return self._dec_syms[window]

    def decode_fast(self, window: int) -> tuple[Symbol | None, int]:
        """Raw window lookup: ``(symbol, code_length)`` for a peeked window.

        ``window`` must be exactly :attr:`max_len` bits (zero-padded
        past the end of the stream, as :meth:`BitReader.peek_bits`
        produces).  A returned length of 0 means the prefix is invalid;
        the caller is responsible for bounds-checking consumption
        against its own bit cursor.  This is the entry point the
        phase-1 batched parser uses to skip per-call overhead.
        """
        return self._dec_syms[window], self._dec_lens[window]
