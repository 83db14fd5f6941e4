"""Edge-case property tests for the PR-1 bitstream fast paths.

Two pieces of :mod:`repro.bitstream` were rewritten for speed and
carry subtle boundary behaviour that the original round-trip tests
never probed directly:

* :class:`~repro.bitstream.reader.BitReader` caches a 32-byte *chunk*
  of the buffer as one int; reads that straddle a chunk boundary,
  oversized reads that bypass the cache, backwards seeks, and
  zero-padded tail peeks all cross the refill logic.
* :func:`~repro.bitstream.emulation.unescape_payload` was rewritten
  from a per-byte state machine to a ``find``-and-splice over
  ``00 00 03``; stuffing bytes at buffer edges, back-to-back stuffing,
  and all-stuffing payloads exercise the splice arithmetic.
* :func:`~repro.bitstream.startcodes.find_start_codes` was rewritten
  from a ``bytes.find`` loop to one NumPy pass; zero runs, prefixes
  that share a byte, and prefixes at the window's edges exercise what
  the loop did implicitly.

Every test here compares against a brute-force reference model, so the
fast paths are pinned to the obviously-correct formulation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.emulation import (
    contains_start_code_prefix,
    escape_payload,
    unescape_payload,
)
from repro.bitstream.startcodes import find_start_codes
from repro.bitstream.reader import (
    _CACHE_BITS,
    _CACHE_BYTES,
    _MAX_CACHED_READ,
    BitReader,
    BitstreamError,
)

# ----------------------------------------------------------------------
# reference models
# ----------------------------------------------------------------------
def naive_read(data: bytes, pos: int, nbits: int) -> int:
    """Bit extraction straight off the whole buffer as one big int."""
    total = len(data) * 8
    big = int.from_bytes(data, "big") if data else 0
    return (big >> (total - pos - nbits)) & ((1 << nbits) - 1)


def naive_peek(data: bytes, pos: int, nbits: int) -> int:
    """Peek semantics: bits past the end read as zero."""
    total = len(data) * 8
    got = min(nbits, max(total - pos, 0))
    val = naive_read(data, pos, got) if got else 0
    return val << (nbits - got)


def naive_unescape(payload: bytes) -> bytes:
    """The original byte-at-a-time emulation-prevention state machine."""
    out = bytearray()
    zeros = 0
    for b in payload:
        if zeros >= 2 and b == 0x03:
            zeros = 0
            continue
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    return bytes(out)


# ----------------------------------------------------------------------
# BitReader chunk cache
# ----------------------------------------------------------------------
class TestChunkBoundaryReads:
    """Deterministic probes at the exact 32-byte refill boundaries."""

    @pytest.fixture(scope="class")
    def data(self):
        # 3.5 chunks of position-dependent bytes (no accidental symmetry).
        return bytes((i * 37 + 11) % 256 for i in range(_CACHE_BYTES * 3 + 16))

    @pytest.mark.parametrize("nbits", [1, 7, 8, 9, 17, 33, 64])
    @pytest.mark.parametrize(
        "edge", [_CACHE_BITS, 2 * _CACHE_BITS], ids=["chunk1", "chunk2"]
    )
    def test_reads_straddling_refill_boundary(self, data, nbits, edge):
        for pos in range(edge - nbits - 1, edge + 2):
            if pos < 0:
                continue
            r = BitReader(data, start_bit=pos)
            assert r.read_bits(nbits) == naive_read(data, pos, nbits), (
                f"read of {nbits} bits at {pos} (edge {edge})"
            )

    def test_oversized_read_bypasses_cache_then_resumes(self, data):
        r = BitReader(data)
        big = _MAX_CACHED_READ + 9  # forces the no-cache path
        assert r.read_bits(big) == naive_read(data, 0, big)
        # Next small read must refill correctly after the bypass.
        assert r.read_bits(13) == naive_read(data, big, 13)

    def test_backward_seek_refills(self, data):
        r = BitReader(data)
        r.read_bits(_CACHE_BITS + 5)  # cache now holds chunk 2
        r.bit_position = 3  # seek back before the cached window
        assert r.read_bits(16) == naive_read(data, 3, 16)

    def test_peek_then_read_consistency_at_boundary(self, data):
        pos = _CACHE_BITS - 5
        r = BitReader(data, start_bit=pos)
        peeked = r.peek_bits(24)
        assert peeked == naive_peek(data, pos, 24)
        assert r.read_bits(24) == peeked

    def test_tail_peek_zero_padded_across_chunk(self):
        # Buffer ends 3 bits into what the peek wants; padding is zeros.
        data = bytes(range(1, _CACHE_BYTES + 2))
        pos = len(data) * 8 - 3
        r = BitReader(data, start_bit=pos)
        assert r.peek_bits(16) == naive_peek(data, pos, 16)
        assert r.peek_bits(300) == naive_peek(data, pos, 300)

    def test_read_past_end_raises_but_peek_does_not(self):
        r = BitReader(b"\xab")
        assert r.peek_bits(64) == 0xAB << 56
        with pytest.raises(BitstreamError):
            r.read_bits(9)


@settings(max_examples=200, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=_CACHE_BYTES * 3 + 7),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["read", "peek", "align", "seek", "skip"]),
            st.integers(min_value=1, max_value=_MAX_CACHED_READ + 16),
        ),
        max_size=24,
    ),
)
def test_bitreader_matches_naive_model(data, ops):
    """Random op sequences: cached reader == whole-buffer big-int math."""
    r = BitReader(data)
    total = len(data) * 8
    pos = 0
    for op, n in ops:
        if op == "read":
            n = min(n, total - pos)
            if n == 0:
                continue
            assert r.read_bits(n) == naive_read(data, pos, n)
            pos += n
        elif op == "peek":
            assert r.peek_bits(n) == naive_peek(data, pos, n)
        elif op == "align":
            r.align()
            pos = (pos + 7) & ~7
        elif op == "seek":
            pos = n % (total + 1)
            r.bit_position = pos
        elif op == "skip":
            n = min(n, total - pos)
            r.skip_bits(n)
            pos += n
        assert r.bit_position == pos
        assert r.bits_remaining == total - pos


# ----------------------------------------------------------------------
# unescape_payload splice
# ----------------------------------------------------------------------
class TestUnescapeBoundaries:
    def test_empty_payload(self):
        assert unescape_payload(b"") == b""
        assert escape_payload(b"") == b""

    def test_all_stuffing_payload(self):
        # escape(00 00 00 00 00 00) inserts a stuffing byte per pair.
        raw = b"\x00" * 6
        escaped = escape_payload(raw)
        assert escaped == b"\x00\x00\x03\x00\x00\x03\x00\x00"
        assert unescape_payload(escaped) == raw

    def test_back_to_back_stuffing(self):
        assert unescape_payload(b"\x00\x00\x03\x00\x00\x03") == b"\x00" * 4

    def test_stuffing_at_payload_tail(self):
        assert unescape_payload(b"\xff\x00\x00\x03") == b"\xff\x00\x00"

    def test_payload_ending_in_zero_run(self):
        raw = b"\x01\x00\x00"
        assert unescape_payload(escape_payload(raw)) == raw

    def test_lone_03_not_dropped(self):
        # 03 not preceded by two zeros is data, not stuffing.
        assert unescape_payload(b"\x00\x03\x00\x03") == b"\x00\x03\x00\x03"

    def test_zero_run_reset_by_stuffing(self):
        # After dropping stuffing, the zero run restarts: the 03 that
        # follows only one further zero is data.
        assert unescape_payload(b"\x00\x00\x03\x00\x03") == b"\x00\x00\x00\x03"

    @pytest.mark.parametrize("offset", range(_CACHE_BYTES - 4, _CACHE_BYTES + 3))
    def test_stuffing_straddles_bitreader_chunk(self, offset):
        """A 00 00 03 whose bytes straddle the reader's refill edge.

        The escape sits at ``offset`` in the *escaped* payload, so the
        unescaped bytes shift and every later BitReader chunk refill
        happens at a different buffer position than in the escaped
        view — the combination the slice decoder actually runs.
        """
        raw = bytearray(bytes((i * 29 + 1) % 256 for i in range(_CACHE_BYTES * 2)))
        raw[offset : offset + 3] = b"\x00\x00\x01"  # forces a stuffing byte
        escaped = escape_payload(bytes(raw))
        assert contains_start_code_prefix(escaped) is False
        clean = unescape_payload(escaped)
        assert clean == bytes(raw)
        # Read the whole cleaned buffer through the chunked reader.
        r = BitReader(clean)
        for bpos in range(0, len(clean) * 8, 24):
            n = min(24, len(clean) * 8 - bpos)
            assert r.read_bits(n) == naive_read(clean, bpos, n)


#: Byte strings drawn from a zero-heavy alphabet — maximal stuffing
#: density, the adversarial case for the splice arithmetic.
zero_heavy_bytes = st.lists(
    st.sampled_from([0x00, 0x01, 0x02, 0x03, 0xFF]),
    max_size=3 * _CACHE_BYTES,
).map(bytes)


@settings(max_examples=300, deadline=None)
@given(payload=zero_heavy_bytes)
def test_unescape_matches_state_machine(payload):
    """find-and-splice == byte-at-a-time state machine, any input."""
    assert unescape_payload(payload) == naive_unescape(payload)


@settings(max_examples=300, deadline=None)
@given(raw=zero_heavy_bytes)
def test_escape_roundtrip_and_safety(raw):
    escaped = escape_payload(raw)
    assert unescape_payload(escaped) == raw
    assert not contains_start_code_prefix(escaped)
    # No 00 00 0x (x <= 2) pattern survives escaping: after two zeros
    # the only byte <= 0x03 that may follow is the 0x03 stuffing byte
    # itself.  (00 00 01 would be a start code; 00 00 00 / 00 00 02
    # would let a later byte complete one.)
    for i in range(len(escaped) - 2):
        if escaped[i] == 0 and escaped[i + 1] == 0:
            assert escaped[i + 2] >= 0x03


# ----------------------------------------------------------------------
# the start-code scanner
# ----------------------------------------------------------------------
def naive_start_codes(
    data: bytes, start: int = 0, end: int | None = None
) -> list[tuple[int, int]]:
    """The original scanner: a ``bytes.find`` loop resuming 4 bytes past
    each hit, stopping at the first prefix with no code byte."""
    if end is None:
        end = len(data)
    hits = []
    i = start
    while True:
        j = data.find(b"\x00\x00\x01", i, end)
        if j < 0 or j + 3 >= end:
            return hits
        hits.append((j, data[j + 3]))
        i = j + 4


def scanned(data: bytes, start: int = 0, end: int | None = None):
    return [(h.offset, h.code) for h in find_start_codes(data, start, end)]


#: Mostly zeros and ones, so zero runs, prefixes and prefixes sharing a
#: byte are common rather than astronomically rare.
scan_bytes = st.lists(
    st.one_of(st.sampled_from([0x00, 0x00, 0x00, 0x01]), st.integers(0, 255)),
    max_size=96,
).map(bytes)


@settings(max_examples=500, deadline=None)
@given(data=scan_bytes, cut=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_scanner_matches_find_loop(data, cut):
    assert scanned(data) == naive_start_codes(data)
    start, end = sorted(round(c * len(data)) for c in cut)
    assert scanned(data, start, end) == naive_start_codes(data, start, end)
    assert scanned(data, start) == naive_start_codes(data, start)


@settings(max_examples=500, deadline=None)
@given(data=scan_bytes, pick=st.floats(0, 1), cut=st.floats(0, 1))
def test_a_window_that_starts_at_a_hit_sees_the_whole_streams_hits(
    data, pick, cut
):
    # The scan cursor restarts its windows at start codes it found; from
    # there on a window must see exactly the whole-stream scan's hits.
    whole = scanned(data)
    if not whole:
        return
    start = whole[round(pick * (len(whole) - 1))][0]
    end = start + round(cut * (len(data) - start))
    assert scanned(data, start, end) == [
        hit for hit in whole if start <= hit[0] and hit[0] + 4 <= end
    ]


@pytest.mark.parametrize(
    "data,start,end,hits",
    [
        # A zero run before the prefix: the last alignment wins.
        (b"\x00\x00\x00\x01\xb3", 0, None, [(1, 0xB3)]),
        # Prefixes 3 apart share a byte: the loop resumes past the
        # first one's code byte, so the second is never seen.
        (b"\x00\x00\x01\x00\x00\x01\xb8", 0, None, [(0, 0x00)]),
        (b"\x00\x00\x01\x00\x00\x01\x00\x00\x01\x05", 0, None,
         [(0, 0x00), (6, 0x05)]),
        # A prefix at the buffer's end has no code byte: dropped.
        (b"\xff\x00\x00\x01\x01\x00\x00\x01", 0, None, [(1, 0x01)]),
        # A hit whose code byte is the window's last byte is kept; one
        # whose code byte is just past it is dropped.
        (b"\x00\x00\x01\xb5\x00\x00\x01\xb7", 0, 8, [(0, 0xB5), (4, 0xB7)]),
        (b"\x00\x00\x01\xb5\x00\x00\x01\xb7", 0, 7, [(0, 0xB5)]),
        # A window that starts inside a zero run.
        (b"\x00\x00\x00\x01\x07", 2, None, []),
        (b"\x00\x00\x00\x00\x01\x07", 2, None, [(2, 0x07)]),
        (b"", 0, None, []),
    ],
)
def test_scanner_edge_cases(data, start, end, hits):
    assert naive_start_codes(data, start, end) == hits
    assert scanned(data, start, end) == hits


def test_scanner_matches_find_loop_on_every_golden_vector(golden):
    for name in [*golden.names, *sorted(golden.negative)]:
        data = golden.data(name)
        assert scanned(data) == naive_start_codes(data), name
