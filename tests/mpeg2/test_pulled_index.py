"""The sequential decoder pulls the scan: its index is a cursor's.

``SequenceDecoder(data)`` reads the sequence prefix at construction and
scans each GOP when ``index.gops`` is first read that far
(:class:`~repro.mpeg2.index.PulledGops`).  Pinned here:

* the work before the first frame is flat in stream length: one GOP
  scanned when the first frame leaves, on 2- and 16-GOP tilings;
* the pulled GOPs are the whole-stream scan's on every committed
  vector, field for field, and a malformed one fails with the same
  error (type, message) at the same GOP;
* a scan fault, once raised, is raised again by every later read that
  needs a GOP past it;
* digests and work counters equal a pre-built index's, on both engines;
* a decode fault before a scan fault reports the scan fault, with the
  whole-stream scan's message, on every way into the decoder.
"""

from __future__ import annotations

import re

import pytest

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import ENGINES, DecodeError, SequenceDecoder
from repro.mpeg2.index import PulledGops, StreamIndexError, build_index

from tests.mpeg2.test_golden_vectors import VECTOR_NAMES
from tests.mpeg2.test_golden_vectors import load_vector as load_golden
from tests.mpeg2.test_index_cursor import (
    ALL_VECTORS,
    _error,
    _ok,
    load_vector,
    oracle,
)
from tests.mpeg2.test_resilience import corrupt_slice
from tests.parallel.test_mp_slice_parity import tile_gops


def pulled(data: bytes) -> tuple:
    """What ``SequenceDecoder(data).index`` reads, or where and how it
    failed (``-1``: at construction)."""
    try:
        index = SequenceDecoder(data).index
    except Exception as exc:
        return _error(exc, -1)
    assert isinstance(index.gops, PulledGops)
    read = 0
    try:
        for _gop in index.gops:
            read += 1
    except Exception as exc:
        return _error(exc, read)
    return _ok(index)


@pytest.mark.parametrize("name", ALL_VECTORS)
def test_pulled_index_is_the_whole_stream_scan(name):
    data = load_vector(name)
    want = oracle(data)
    assert pulled(data) == want
    if want[0] == "ok":
        assert SequenceDecoder(data).index.gops == build_index(data).gops


@pytest.mark.parametrize("reps", [1, 8])
def test_first_frame_waits_for_gop_0s_scan_only(reps):
    # The bench's access: iterate ``index.gops``, decode each GOP.
    data = tile_gops(load_vector("two_gop_48x32.m2v"), reps)
    dec = SequenceDecoder(data)
    gops = dec.index.gops
    assert gops.scanned == 0
    for gop in gops:
        next(iter(dec.decode_gop(gop)))
        break
    assert gops.scanned == 1
    assert len(gops) == 2 * reps == gops.scanned


def scan_fault_at_gop_3(decode_fault: str | None = "corrupt slice") -> bytes:
    """Four GOPs; GOP 3 cannot be indexed and, with a ``decode_fault``,
    GOP 0 cannot be decoded: its first slice zeroed, or its closed_gop
    flag (bit 6 of the byte at offset 7 of the GOP header) cleared."""
    data = tile_gops(load_vector("two_gop_48x32.m2v"), 2)
    index = build_index(data)
    if decode_fault == "corrupt slice":
        data = corrupt_slice(data, gop=0, pic=0, sl=0)
    elif decode_fault == "open GOP":
        out = bytearray(data)
        out[index.gops[0].start_offset + 7] &= ~0x40
        data = bytes(out)
    pic = index.gops[3].pictures[0]
    return (
        data[: pic.header_payload_end] + b"\x00\x00\x01\xb2\xff"
        + data[pic.header_payload_end :]
    )


def whole_stream_fault(data: bytes) -> str:
    with pytest.raises(StreamIndexError) as info:
        build_index(data)
    return str(info.value)


def test_a_scan_fault_is_raised_again_by_every_later_read():
    data = scan_fault_at_gop_3(decode_fault=None)
    want = re.escape(whole_stream_fault(data))
    gops = SequenceDecoder(data).index.gops
    with pytest.raises(StreamIndexError, match=want):
        list(gops)
    assert gops.scanned == 3
    for read in (len, list, lambda g: g[3], lambda g: g[-1], lambda g: g[1:]):
        with pytest.raises(StreamIndexError, match=want):
            read(gops)
    # What was scanned before the fault can still be read.
    good = tile_gops(load_vector("two_gop_48x32.m2v"), 2)
    assert gops[2] == build_index(good).gops[2]


def test_pulled_gops_read_like_a_list():
    data = tile_gops(load_vector("two_gop_48x32.m2v"), 3)
    want = build_index(data).gops
    gops = SequenceDecoder(data).index.gops
    assert gops[1] == want[1] and gops.scanned == 2
    with pytest.raises(IndexError):
        gops[6]
    assert gops[-1] == want[-1] and gops[2:4] == want[2:4]
    assert list(reversed(gops)) == want[::-1] and gops.index(want[3]) == 3


def _decode_all(data, engine):
    return SequenceDecoder(data, engine=engine).decode_all()


def _gop_by_gop(data, engine):
    # The bench's loop: the scan and the decode interleave.
    dec = SequenceDecoder(data, engine=engine)
    return [f for gop in dec.index.gops for f in dec.decode_gop(gop)]


def _gop_0_only(data, engine):
    dec = SequenceDecoder(data, engine=engine)
    return list(dec.decode_gop(dec.index.gops[0]))


@pytest.mark.parametrize("path", [_decode_all, _gop_by_gop, _gop_0_only])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fault", ["corrupt slice", "open GOP"])
def test_a_scan_fault_further_on_is_every_sequential_verdict(fault, engine, path):
    # GOP 0 fails to decode (the verdict's cause) and GOP 3 to scan:
    # the scan fault is the verdict on every path.
    data = scan_fault_at_gop_3(fault)
    want = whole_stream_fault(data)
    with pytest.raises(StreamIndexError) as info:
        path(data, engine)
    assert str(info.value) == want
    cause = info.value.__cause__
    assert cause is not None and not isinstance(cause, StreamIndexError)
    if fault == "open GOP":
        assert isinstance(cause, DecodeError)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", VECTOR_NAMES)
def test_pulled_and_prebuilt_decodes_are_identical(name, engine):
    data = load_golden(name)
    got, want = WorkCounters(), WorkCounters()
    frames = SequenceDecoder(data, engine=engine).decode_all(got)
    oracle_frames = SequenceDecoder(
        data, index=build_index(data), engine=engine
    ).decode_all(want)
    assert [f.digest() for f in frames] == [f.digest() for f in oracle_frames]
    assert got == want
