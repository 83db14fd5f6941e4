"""The scan cursor is the whole-stream scan, a GOP at a time.

:class:`~repro.mpeg2.index.IndexCursor` indexes each GOP from a bounded
window that starts at the GOP's own start code, and ``build_index`` is
the drained cursor.  Pinned here against the whole-stream scan it
replaced (kept below as the oracle, reporting *where* it failed as
well as how): on every golden vector, negatives included, and on
hypothesis-drawn truncations and splices of them, with scan windows
small enough that GOPs straddle and outgrow them —

* the same GOPs, field for field;
* the same error: type, message, and the GOP it is raised at (a fault
  in GOP ``k`` is raised by the ``next`` after GOP ``k - 1``; one
  before the first GOP by the constructor).
"""

from __future__ import annotations

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import (
    GROUP_START_CODE,
    PICTURE_START_CODE,
    SEQUENCE_END_CODE,
    SEQUENCE_HEADER_CODE,
    SLICE_START_CODE_MAX,
    SLICE_START_CODE_MIN,
    find_start_codes,
)
from repro.bitstream.emulation import unescape_payload
from repro.bitstream.reader import BitReader
from repro.mpeg2 import index as index_mod
from repro.mpeg2.headers import GopHeader, PictureHeader, SequenceHeader
from repro.mpeg2.index import (
    GopIndex,
    IndexCursor,
    PictureIndex,
    SliceIndex,
    StreamIndex,
    StreamIndexError,
    build_index,
)

from tests.mpeg2.test_golden_vectors import VECTOR_DIR

#: Every committed vector: the golden corpus, its negatives and the
#: concealment clips.
ALL_VECTORS = sorted(f for f in os.listdir(VECTOR_DIR) if f.endswith(".m2v"))


def load_vector(name: str) -> bytes:
    with open(os.path.join(VECTOR_DIR, name), "rb") as fh:
        return fh.read()


class _Failed(Exception):
    def __init__(self, exc: Exception, gop: int) -> None:
        self.exc, self.gop = exc, gop


def whole_stream_index(data: bytes) -> StreamIndex:
    """The one-pass scan of the whole stream that the cursor replaced.
    A failure is re-raised as :class:`_Failed`, carrying the GOP whose
    bytes held the fault (``-1`` before the first GOP)."""
    gop_no = -1
    try:
        hits = find_start_codes(data)
        if not hits or hits[0].code != SEQUENCE_HEADER_CODE:
            raise StreamIndexError("stream does not begin with a sequence header")
        seq = None
        gops: list[GopIndex] = []
        current_gop = current_pic = None
        ends = [hit.offset for hit in hits[1:]]
        ends.append(len(data))
        for (offset, code), end in zip(hits, ends):
            start = offset + 4
            if SLICE_START_CODE_MIN <= code <= SLICE_START_CODE_MAX:
                if current_pic is None:
                    raise StreamIndexError("slice outside any picture")
                current_pic.slices.append(SliceIndex(code, start, end))
            elif code == SEQUENCE_HEADER_CODE:
                if seq is not None:
                    raise StreamIndexError("repeated sequence header unsupported")
                seq = SequenceHeader.read(BitReader(unescape_payload(data[start:end])))
            elif code == GROUP_START_CODE:
                gop_no += 1
                gh = GopHeader.read(
                    BitReader(unescape_payload(data[start:end])), seq.frame_rate
                )
                current_gop = GopIndex(gh.closed_gop, gh.broken_link, start, end)
                gops.append(current_gop)
                current_pic = None
            elif code == PICTURE_START_CODE:
                if current_gop is None:
                    raise StreamIndexError("picture outside any GOP")
                ph = PictureHeader.read(BitReader(unescape_payload(data[start:end])))
                current_pic = PictureIndex(
                    ph.picture_type, ph.temporal_reference, ph.forward_f_code,
                    ph.backward_f_code, ph.alternate_scan, start, end,
                )
                current_gop.pictures.append(current_pic)
            elif code == SEQUENCE_END_CODE:
                break
            else:
                raise StreamIndexError(f"unexpected start code 0x{code:02X}")
        if seq is None or not gops:
            raise StreamIndexError("stream contains no GOPs")
    except Exception as exc:
        raise _Failed(exc, gop_no) from exc
    return StreamIndex(seq, gops, len(data))


def _error(exc: Exception, gop: int) -> tuple:
    return "error", type(exc), str(exc), gop


def _ok(index: StreamIndex) -> tuple:
    # The sequence header holds NumPy quantiser matrices, which ``==``
    # does not reduce to one truth value: compare it by its repr.
    return "ok", repr(index.sequence_header), index.gops, index.total_bytes


def oracle(data: bytes) -> tuple:
    try:
        return _ok(whole_stream_index(data))
    except _Failed as failed:
        return _error(failed.exc, failed.gop)


def drained(data: bytes) -> tuple:
    """What the cursor yields, drained, or where and how it failed."""
    try:
        cursor = IndexCursor(data)
    except Exception as exc:
        return _error(exc, -1)
    gops: list[GopIndex] = []
    try:
        for gop in cursor:
            gops.append(gop)
    except Exception as exc:
        return _error(exc, len(gops))
    return _ok(StreamIndex(cursor.sequence_header, gops, len(data)))


def agree(data: bytes, window: int) -> None:
    with mock.patch.object(index_mod, "SCAN_WINDOW", window):
        got = drained(data)
    assert got == oracle(data)


@pytest.mark.parametrize("window", [16, 97, 1 << 16])
@pytest.mark.parametrize("name", ALL_VECTORS)
def test_cursor_equals_the_whole_stream_scan_on_every_vector(name, window):
    agree(load_vector(name), window)


@pytest.mark.parametrize("name", ALL_VECTORS)
def test_build_index_is_the_drained_cursor(name):
    data = load_vector(name)
    want = oracle(data)
    if want[0] == "ok":
        assert _ok(build_index(data)) == want
    else:
        with pytest.raises(want[1]) as info:
            build_index(data)
        assert str(info.value) == want[2]


def test_every_iteration_scans_afresh_from_the_first_gop():
    cursor = IndexCursor(load_vector("two_gop_48x32.m2v"))
    assert list(cursor) == list(cursor) == build_index(cursor.data).gops


#: Material to cut: multi-GOP vectors, and one GOP of a few pictures.
CUTTABLE = [
    "two_gop_48x32.m2v", "rc_64x48_gop4.m2v", "conceal_b_temporal.m2v",
    "pad_40x24_gop4.m2v",
]


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(CUTTABLE),
    cuts=st.lists(st.floats(0, 1), min_size=2, max_size=2),
    how=st.sampled_from(["truncate", "splice", "junk"]),
    junk=st.binary(max_size=8),
    window=st.integers(8, 256),
)
def test_cursor_equals_the_whole_stream_scan_on_cut_streams(
    name, cuts, how, junk, window
):
    data = load_vector(name)
    a, b = sorted(round(c * len(data)) for c in cuts)
    if how == "truncate":
        data = data[:b]
    elif how == "splice":
        data = data[:a] + data[b:]
    else:
        # Junk — start-code prefixes often — planted at a cut point.
        data = data[:a] + b"\x00\x00\x01" + junk + data[a:]
    agree(data, window)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("grain", ["gop", "slice"])
def test_a_scan_fault_further_on_is_the_verdict(grain, workers, no_shm_leak):
    # GOP 0 cannot be decoded and GOP 3 cannot be indexed.  Every
    # decoder scans a GOP at a time and reaches GOP 0's decode first;
    # the verdict is still the scan fault, as a whole-stream scan
    # before the decode would give.
    from repro.mpeg2.decoder import SequenceDecoder
    from repro.parallel.mp import MPGopDecoder
    from repro.parallel.mp_slice import MPSliceDecoder

    from tests.mpeg2.test_resilience import corrupt_slice
    from tests.parallel.test_mp_slice_parity import tile_gops

    data = tile_gops(load_vector("two_gop_48x32.m2v"), 2)
    data = corrupt_slice(data, gop=0, pic=0, sl=0)
    pic = build_index(data).gops[3].pictures[0]
    data = (
        data[: pic.header_payload_end] + b"\x00\x00\x01\xb2\xff"
        + data[pic.header_payload_end :]
    )
    with pytest.raises(StreamIndexError, match="unexpected start code 0xB2"):
        SequenceDecoder(data).decode_all()
    decoder = MPGopDecoder if grain == "gop" else MPSliceDecoder
    with pytest.raises(StreamIndexError, match="unexpected start code 0xB2"):
        decoder(data, workers=workers).decode_all()
