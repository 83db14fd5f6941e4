"""A GOP longer than the first ends the run and starts a bigger window.

Both real-process decoders size their frame window from the stream's
first GOP — the scan has read no further when the first run attaches.
A later GOP that the window cannot hold ends the run at that GOP
boundary (closed GOPs carry no state across it) and the next run, on
the same loop and the same attach, is sized for it.  Pinned on a
stream whose GOPs are 4, 13 and 4 pictures long: bit-exact frames and
work counters on both grains, two runs, a pool the size of the larger
window, and no shared-memory segment left behind.
"""

from __future__ import annotations

import pytest

from repro.bitstream import SEQUENCE_END_CODE
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.mpeg2.index import build_index, sequence_prefix
from repro.parallel.mp import MPGopDecoder
from repro.parallel.mp_slice import MPSliceDecoder
from repro.video.synthetic import SyntheticVideo

SIZES = (4, 13, 4)


@pytest.fixture(scope="module")
def growing_stream() -> bytes:
    """GOPs of ``SIZES`` pictures: separate encodes of one clip, whose
    sequence headers are identical, joined GOP after GOP."""
    video = SyntheticVideo(width=48, height=32, seed=7)
    out, start = b"", 0
    for size in SIZES:
        data = encode_sequence(
            video.frames(size, start=start),
            EncoderConfig(gop_size=size, qscale_code=3),
        )
        (gop,) = build_index(data).gops
        out = out or sequence_prefix(data, build_index(data))
        out += data[gop.start_offset : gop.end_offset]
        start += size
    return out + b"\x00\x00\x01" + bytes([SEQUENCE_END_CODE])


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("grain", ["gop", "slice"])
def test_a_longer_gop_starts_a_run_sized_for_it(
    growing_stream, grain, workers, no_shm_leak
):
    assert [len(g.pictures) for g in build_index(growing_stream).gops] == [*SIZES]
    want_counters = WorkCounters()
    want = SequenceDecoder(growing_stream).decode_all(want_counters)

    decoder = MPGopDecoder if grain == "gop" else MPSliceDecoder
    dec = decoder(growing_stream, workers=workers)
    got_counters = WorkCounters()
    frames = dec.decode_all(got_counters)

    assert [f.digest() for f in frames] == [f.digest() for f in want]
    assert got_counters == want_counters
    # Run 1 holds GOP 0; GOP 1 outgrows it and its run takes GOP 2 too.
    assert len(dec.last_graphs) == 2
    for graph in dec.last_graphs:
        graph.verify_conservation()
    assert dec.gops_scanned == len(SIZES)
    if grain == "gop":
        slots = max(2 * workers, 1) * max(SIZES)
    else:
        slots = max(max(SIZES), 2 * workers) + 1
    assert dec.last_pool_bytes == (slots * dec.layout.slot_bytes if workers else 0)
