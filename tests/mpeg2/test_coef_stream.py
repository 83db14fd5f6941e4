"""The phase-1 -> phase-2 hand-over, tested at the format boundary.

A :class:`SliceParse` is two flat buffers that only
:mod:`repro.mpeg2.batched` reads and writes: ``records``, one
fixed-width record per macroblock, and ``coef_packed``, a
self-delimiting stream of little-endian int32 entries — ``(run + 1) <<
24 | (level + 2**23)`` per coefficient, and one ``(64 - k) << 24`` EOB
entry closing every coded block, so each block's steps sum to 64.
Four things are pinned here, below the whole-stream parity suites:

* the round trip ``encode_slice`` -> ``parse_slice`` ->
  ``assemble_picture`` writes exactly the entries the levels call for
  and returns, once ``coef_idx``/``coef_val`` are scattered into
  blocks, the raster-ordered levels that went in, for the shapes a
  stream of run-relative entries could plausibly get wrong (DC-only
  blocks, a coefficient at scan index 63, escape-coded runs and
  levels, uncoded blocks, both scans); and the record layout holds the
  extreme value of every field;
* every fused VLC window's pre-packed row re-encodes to the window's
  own bits, and the bound check the parser defers to once per window
  raises the scalar decoder's ``BlockSyntaxError``, for the same
  symbol, wherever in the window that symbol sits;
* the parser's cursor table reads the payload's bits, a table shared by
  many slices reads each from its base exactly as a table of its own
  would, and every slice of three golden vectors, cut at each byte or
  with a byte inverted and parsed between two other payloads, parses to
  the scalar decoder's counters or fails with its error.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitstream import BitWriter
from repro.bitstream.emulation import escape_payload
from repro.bitstream.reader import BitstreamError
from repro.mpeg2 import batched
from repro.mpeg2.batched import (
    PictureAssembly,
    SliceParse,
    assemble_picture,
    parse_slice,
)
from repro.mpeg2.blockcoding import (
    BlockSyntaxError,
    encode_block,
    encode_dc_differential,
    encode_run_level,
)
from repro.mpeg2.constants import PictureType, mb_ceil
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader, SliceHeader
from repro.mpeg2.index import build_index
from repro.mpeg2.kernel import SLICE_CORRUPTION_ERRORS, read_slices
from repro.mpeg2.macroblock import (
    MacroblockPlan,
    PictureCodingContext,
    SliceDecodeError,
    decode_slice,
    encode_slice,
)
from repro.mpeg2.motion import MotionVector
from repro.mpeg2.scan import ALTERNATE, ZIGZAG, unscan_block
from repro.mpeg2.tables import (
    AC_RUN_LEVEL,
    DC_SIZE_CHROMA,
    DC_SIZE_LUMA,
    EOB,
    MB_ADDRESS_INCREMENT,
    MB_TYPE_TABLES,
    MbMode,
)
from repro.mpeg2.vlc import VLCError
from repro.video.synthetic import SyntheticVideo

from tests.mpeg2.test_batched_parity import assert_frames_identical

BIAS = 1 << 23


def _block_entries(intra: bool, scanned: np.ndarray) -> list[int]:
    """The stream entries of one coded block, from its scan-ordered
    levels: ``(run + 1) << 24 | (level + 2**23)`` per coded coefficient
    (an intra DC term always, as a run-0 entry), then the EOB, value 0,
    carrying the block's padding ``64 - k``."""
    entries, k = [], 0
    for pos in range(64):
        if (intra and pos == 0) or scanned[pos]:
            entries.append(((pos - k + 1) << 24) | (int(scanned[pos]) + BIAS))
            k = pos + 1
    entries.append((64 - k) << 24)
    return entries


def _scatter_levels(asm: PictureAssembly) -> np.ndarray:
    """The assembly's sparse stream as dense ``(m, 8, 8)`` levels."""
    levels = np.zeros((asm.rec_idx.size, 64), dtype=np.int64)
    levels.reshape(-1)[asm.coef_idx] = asm.coef_val
    return levels.reshape(-1, 8, 8)


# ----------------------------------------------------------------------
# (a) round trip at the format boundary
# ----------------------------------------------------------------------
_levels = st.integers(1, 2047).flatmap(lambda m: st.sampled_from((m, -m)))
_small = st.sampled_from((1, -1, 2, -2, 3))

#: One block as ``{scan position: level}``.  A lone coefficient at an
#: arbitrary position with an arbitrary level is what reaches the
#: escape code's whole range (runs 0-63, levels +-1..+-2047).
_block = st.one_of(
    st.just({}),  # uncoded when non-intra: a hole in the cbp
    st.builds(lambda v: {0: v}, _levels),  # DC only
    st.builds(lambda p, v: {p: v}, st.integers(0, 63), _levels),
    st.builds(  # ends on the last scan position
        lambda d, v: {**d, 63: v},
        st.dictionaries(st.integers(0, 62), _small, max_size=6),
        _levels,
    ),
    st.dictionaries(st.integers(0, 63), _small, max_size=24),
    st.dictionaries(st.integers(0, 63), _levels, max_size=4),
)

_macroblock = st.tuples(st.booleans(), st.lists(_block, min_size=6, max_size=6))


@st.composite
def _pictures(draw):
    """(picture type, alternate_scan, rows of (intra, (6, 64) levels))."""
    mbw = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 2))
    ptype = draw(st.sampled_from((PictureType.I, PictureType.P)))
    rows = []
    for _ in range(n_rows):
        row = []
        for intra, blocks in draw(
            st.lists(_macroblock, min_size=mbw, max_size=mbw)
        ):
            intra = intra or ptype is PictureType.I
            levels = np.zeros((6, 64), dtype=np.int64)
            for i, block in enumerate(blocks):
                for pos, value in block.items():
                    levels[i, pos] = value
            if intra:
                # Scan position 0 of an intra block is the DC term, coded
                # as a differential of at most 11 bits.
                levels[:, 0] = np.abs(levels[:, 0])
            row.append((intra, levels))
        rows.append(row)
    return ptype, draw(st.booleans()), rows


def _parse_rows(ptype, alternate, rows) -> list[SliceParse]:
    mbw = len(rows[0])
    pic = PictureHeader(
        temporal_reference=0, picture_type=ptype, alternate_scan=alternate
    )
    parses = []
    for r, row in enumerate(rows):
        plans = [
            MacroblockPlan(
                address=r * mbw + c,
                intra=intra,
                levels=levels,
                mv_fwd=None if intra else MotionVector.ZERO,
            )
            for c, (intra, levels) in enumerate(row)
        ]
        w = BitWriter()
        encode_slice(w, plans, r, mbw, 4, pic)
        w.align()
        parses.append(
            parse_slice(w.getvalue(), r + 1, pic, mbw, len(rows), True)
        )
    return parses


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_pictures())
def test_round_trip_returns_the_raster_levels(picture):
    ptype, alternate, rows = picture
    parses = _parse_rows(ptype, alternate, rows)

    # Intra macroblocks code all six blocks (scan position 0 as a DC
    # term); non-intra ones only the blocks with a nonzero level — the
    # rest are holes in the cbp.
    order = ALTERNATE if alternate else ZIGZAG
    expected, where, entries = [], [], []
    n_coef = n_dc = 0
    for rec, (intra, levels) in enumerate(mb for row in rows for mb in row):
        for i in range(6):
            if intra or levels[i].any():
                expected.append(unscan_block(levels[i], order))
                where.append((rec, i))
                entries += _block_entries(intra, levels[i])
                n_dc += intra
                n_coef += np.count_nonzero(levels[i, int(intra):])

    # The stream is exactly the entries the levels call for: every
    # step, value and EOB padding, in record and block order.
    stream = b"".join(sp.coef_packed for sp in parses)
    assert stream == np.array(entries, dtype="<i4").tobytes()
    steps = np.frombuffer(stream, dtype="<i4") >> 24
    assert steps.sum() == 64 * len(expected)
    assert len(stream) == 4 * (n_coef + n_dc + len(expected))
    assert sum(sp.counters.idct_blocks for sp in parses) == len(expected)
    assert sum(sp.counters.coefficients for sp in parses) == n_coef

    asm = assemble_picture(parses)
    assert list(zip(asm.rec_idx, asm.blk_idx)) == where
    got = _scatter_levels(asm)
    assert got.shape == (len(expected), 8, 8)
    if expected:
        assert np.array_equal(got, np.stack(expected))


def test_all_slices_concealed_assembles_to_nothing():
    asm = assemble_picture([])
    assert asm.n == 0
    assert asm.coef_idx.size == asm.coef_val.size == asm.rec_idx.size == 0
    assert _scatter_levels(asm).shape == (0, 8, 8)


def test_mispaired_stream_fails_loudly():
    """EOB entries and set ``cbp`` bits must agree, or the ordinal ->
    (record, block) pairing would scatter into the wrong blocks."""
    levels = np.zeros((6, 64), dtype=np.int64)
    levels[2, 5] = 7
    (sp,) = _parse_rows(PictureType.I, False, [[(True, levels)]])
    assemble_picture([sp])  # six blocks, six EOBs
    del sp.coef_packed[-4:]
    with pytest.raises(RuntimeError, match=r"closes 5 blocks .* announce 6"):
        assemble_picture([sp])


#: Records at the extremes of every field, in ``_REC_FIELDS`` order:
#: address, intra, f_on, b_on, qscale, cbp, f_dy, f_dx, b_dy, b_dx.
#: 4095x4095 is the largest picture a sequence header codes (256x256
#: macroblocks, the last at 65535); ``f_code`` 7 bounds a vector
#: component to ``[-1024, 1023]``, and the layout holds 1024 as well.
_EXTREMES = [
    (65535, True, False, False, 62, 63, 0, 0, 0, 0),
    (65535, False, True, True, 2, 0, -1024, 1024, 1024, -1024),
    (0, False, True, False, 62, 1, 1023, -1024, -1024, 1023),
]


def test_record_layout_holds_every_field_at_its_extreme():
    assert mb_ceil(4095) ** 2 - 1 == 65535
    sp = SliceParse(256, WorkCounters())
    for fields in _EXTREMES:
        sp.records += batched._REC.pack(*fields)
        sp.coef_packed += batched._EOB_PAD[0] * bin(fields[5]).count("1")
    asm = assemble_picture([sp])
    names = [name for name, _code in batched._REC_FIELDS]
    assert list(zip(*(getattr(asm, name).tolist() for name in names))) == _EXTREMES
    assert asm.rec_idx.size == 7 and asm.coef_idx.size == 0


def _last_row_slice(pic: PictureHeader, plans_of) -> list:
    """Parse the last row of a 4095x4095 picture at qscale 62, with one
    plan per macroblock from ``plans_of(address, column)``; returns the
    records as tuples."""
    mbw = mb_ceil(4095)
    row = mbw - 1
    plans = [plans_of(row * mbw + c, c) for c in range(mbw)]
    w = BitWriter()
    encode_slice(w, plans, row, mbw, 31, pic)
    w.align()
    sp = parse_slice(w.getvalue(), row + 1, pic, mbw, mbw, True)
    return [tuple(r) for r in np.frombuffer(sp.records, batched._REC_DTYPE).tolist()]


def test_parse_packs_extreme_records_of_the_largest_picture():
    zeros = np.zeros((6, 64), dtype=np.int64)
    intra = _last_row_slice(
        _I_PICTURE, lambda addr, _c: MacroblockPlan(addr, True, zeros)
    )
    assert intra[-1] == (65535, True, False, False, 62, 63, 0, 0, 0, 0)

    # Every vector in-plane on the last luma row (4080..4095): up by
    # 1024 half-pels, and 1023 across at column 0, -1024 at the last.
    b_pic = PictureHeader(
        temporal_reference=0, picture_type=PictureType.B,
        forward_f_code=7, backward_f_code=7,
    )
    last = mb_ceil(4095) - 1
    bidir = _last_row_slice(b_pic, lambda addr, c: MacroblockPlan(
        addr, False, zeros,
        mv_fwd=MotionVector(-1024, 1023 if c == 0 else 0),
        mv_bwd=MotionVector(-1024, -1024 if c == last else 0),
    ))
    assert bidir[0][:4] == (last * (last + 1), False, True, True)
    assert bidir[0][6:] == (-1024, 1023, -1024, 0)
    assert bidir[-1] == (65535, False, True, True, 62, 0, -1024, 0, -1024, -1024)


class _CountingPacks:
    """Stands in for ``batched._REC``: records each packed address."""

    def __init__(self, real):
        self.real = real
        self.size = real.size
        self.addresses = []

    def pack(self, *fields):
        self.addresses.append(fields[0])
        return self.real.pack(*fields)


def _mv_plans(ptype, vectors):
    """One row of three macroblocks: ``vectors[c]`` is column ``c``'s
    forward vector, or ``None`` for a skipped macroblock."""
    zeros = np.zeros((6, 64), dtype=np.int64)
    pic = PictureHeader(
        temporal_reference=0, picture_type=ptype, forward_f_code=4
    )
    plans = [
        MacroblockPlan(c, False, zeros, mv_fwd=MotionVector(*mv))
        for c, mv in enumerate(vectors) if mv is not None
    ]
    w = BitWriter()
    encode_slice(w, plans, 0, 3, 4, pic)
    w.align()
    return w.getvalue(), pic


@pytest.mark.parametrize("ptype, vectors, packed", [
    # The first macroblock fetches from above the plane ...
    (PictureType.P, [(-2, 0), (0, 0), (0, 0)], []),
    # ... the second, after one good record ...
    (PictureType.P, [(0, 0), (0, 34), (0, 0)], [0]),
    # ... or a skipped B macroblock inherits a vector that fit the
    # column before it (48-pixel plane: left 32 at column 0, 48 at 1).
    (PictureType.B, [(0, 64), None, (0, 0)], [0]),
])
def test_out_of_plane_vector_raises_before_its_record_is_packed(
    monkeypatch, ptype, vectors, packed
):
    """A vector out of the reference plane is the scalar decoder's
    ``ValueError``, raised before its record is packed: a pack error
    (``struct.error``) is no slice corruption the resilient decoder
    would conceal, so it must never be what a corrupt slice raises."""
    assert not issubclass(struct.error, SLICE_CORRUPTION_ERRORS)
    payload, pic = _mv_plans(ptype, vectors)
    assert isinstance(_scalar_run(payload, pic=pic), ValueError)
    counting = _CountingPacks(batched._REC)
    monkeypatch.setattr(batched, "_REC", counting)
    with pytest.raises(ValueError, match="outside reference plane"):
        parse_slice(payload, 1, pic, 3, 2, True)
    assert counting.addresses == packed


# ----------------------------------------------------------------------
# (b) the deferred bound check raises at the scalar decoder's symbol
# ----------------------------------------------------------------------
#: Short run/level symbols that precede the offender inside one fused
#: window, and the escape run that leaves the offender — always
#: ``(3, 1)`` — exactly one position short: index 64, "run 3".
_PRECEDING = {
    1: ((), 59),
    2: (((0, 1),), 58),
    3: (((0, 1), (1, 1)), 56),
}
_MESSAGE = r"coefficient index 64 past end of block \(run 3\)"


def _overflow_payload(nth: int, *, overflow: bool = True) -> tuple[bytes, int]:
    """An I-picture slice whose first block leaves the block on the
    ``nth`` symbol of one fused window, followed — two macroblocks
    later in the same slice — by an invalid macroblock_type codeword.

    Returns ``(payload, window_bit)`` with ``window_bit`` the position
    the fused probe that meets the offender starts from (the escape
    before it always goes through the single-symbol path).
    ``overflow=False`` shortens the escape run by one so the block is
    legal and the decode reaches the invalid codeword.
    """
    before, escape_run = _PRECEDING[nth]
    w = BitWriter()
    SliceHeader(quantiser_scale_code=4).write(w)
    MB_ADDRESS_INCREMENT.encode(w, 1)
    MB_TYPE_TABLES[PictureType.I].encode(w, MbMode(intra=True))
    encode_dc_differential(w, 100, 128, DC_SIZE_LUMA)
    # 2047 is not a table level, so this is escape-coded for any run.
    encode_run_level(w, escape_run - (0 if overflow else 1), 2047)
    window_bit = w.bit_position
    for run, level in before:
        encode_run_level(w, run, level)
    encode_run_level(w, 3, 1)
    AC_RUN_LEVEL.encode(w, EOB)
    zeros = np.zeros(64, dtype=np.int64)
    for i in range(1, 6):  # five more blocks: zero DC differential, EOB
        encode_block(
            w, zeros, intra=True,
            dc_table=DC_SIZE_LUMA if i < 4 else DC_SIZE_CHROMA,
        )
    MB_ADDRESS_INCREMENT.encode(w, 1)
    w.write_string("00")  # no I-picture macroblock_type starts with 00
    w.align()
    return w.getvalue() + bytes(4), window_bit


_I_PICTURE = PictureHeader(temporal_reference=0, picture_type=PictureType.I)


def _scalar_run(payload, vpos=1, pic=_I_PICTURE, width=48, height=32):
    """The scalar decode of one slice against blank references: its
    counters, or the exception it raised."""
    blank = Frame.blank(width, height)
    ctx = PictureCodingContext(
        seq=SequenceHeader(width=width, height=height),
        pic=pic,
        out=Frame.blank(width, height),
        fwd=blank,
        bwd=blank,
    )
    try:
        return decode_slice(payload, vpos, ctx)
    except Exception as exc:
        return exc


#: The payloads around the slice under test in its window table: all
#: ones, so a read that strayed past the slice's end would see them.
_NEIGHBOUR = b"\xff" * 8


def _batched_run(payload, vpos=1, pic=_I_PICTURE, width=48, height=32):
    """Phase 1 of the same slice, read from a window table it shares
    with a payload on either side (so from a nonzero base): its
    :class:`SliceParse`, or the exception it raised."""
    at = list(batched.bit_windows([_NEIGHBOUR, payload, _NEIGHBOUR]))[1]
    try:
        return parse_slice(
            payload, vpos, pic, width // 16, height // 16, True, at
        )
    except Exception as exc:
        return exc


def _scalar_error(payload: bytes):
    error = _scalar_run(payload)
    assert isinstance(error, Exception), "the scalar decode succeeded"
    return error


def _batched_error(payload: bytes):
    error = _batched_run(payload)
    assert isinstance(error, Exception), "the batched parse succeeded"
    return error


def test_every_fused_row_re_encodes_to_its_window():
    """A fused row is the run/level symbols at the head of its window,
    pre-packed with steps ``run + 1`` — never an EOB entry, whose
    padding only the parser knows — and its advance is their total
    step, plus ``_FUSE_EOB`` when the window's next symbol is an EOB."""
    fb = batched._FUSE_BITS
    for window in range(1 << fb):
        consumed, advance, entry_bytes = batched._AC_FUSED[window]
        if advance == batched._FUSE_NONE:
            assert (consumed, entry_bytes) == (0, b""), window
            continue
        w = BitWriter()
        total = 0
        for (entry,) in struct.iter_unpack("<i", entry_bytes):
            step, value = entry >> 24, entry & 0xFFFFFF
            assert 1 <= step <= 64 and value != 0, window
            encode_run_level(w, step - 1, value - BIAS)
            total += step
        eob = advance >= batched._FUSE_EOB
        if eob:
            AC_RUN_LEVEL.encode(w, EOB)
        assert advance == total + eob * batched._FUSE_EOB, window
        assert w.bit_position == consumed, window
        w.align()
        code = int.from_bytes(w.getvalue(), "big") >> (-consumed % 8)
        assert code == window >> (fb - consumed), window


@pytest.mark.parametrize("nth", sorted(_PRECEDING))
def test_overflow_on_nth_symbol_of_a_fused_window(nth):
    payload, window_bit = _overflow_payload(nth)

    # The offender really is the nth symbol of one fused window (else
    # this would be testing the single-symbol path).
    bits = int.from_bytes(payload, "big")
    shift = len(payload) * 8 - window_bit - batched._FUSE_BITS
    window = (bits >> shift) & batched._FUSE_MASK
    _consumed, _advance, entry_bytes = batched._AC_FUSED[window]
    assert len(entry_bytes) // 4 >= nth

    scalar = _scalar_error(payload)
    fast = _batched_error(payload)
    assert type(scalar) is type(fast) is BlockSyntaxError
    assert str(scalar) == str(fast)
    assert re.fullmatch(_MESSAGE, str(fast))


@pytest.mark.parametrize("nth", sorted(_PRECEDING))
def test_invalid_codeword_after_the_overflow_is_never_reached(nth):
    # Control: with the block made legal, both engines walk on to the
    # invalid macroblock_type and say so, identically ...
    legal, _ = _overflow_payload(nth, overflow=False)
    scalar, fast = _scalar_error(legal), _batched_error(legal)
    assert type(scalar) is type(fast) is VLCError
    assert str(scalar) == str(fast)
    # ... so the overflow, which comes first in the slice, must win.
    payload, _ = _overflow_payload(nth)
    assert type(_batched_error(payload)) is BlockSyntaxError


@pytest.mark.parametrize("nth", sorted(_PRECEDING))
def test_overflow_slice_in_a_stream_strict_and_resilient(nth):
    frames = SyntheticVideo(width=48, height=32, seed=5).frames(4)
    data = encode_sequence(frames, EncoderConfig(gop_size=4, qscale_code=4))
    sl = build_index(data).gops[0].pictures[0].slices[0]
    payload, _ = _overflow_payload(nth)
    data = (
        data[: sl.payload_start]
        + escape_payload(payload)
        + data[sl.payload_end :]
    )

    errors = []
    for engine in ("scalar", "batched"):
        with pytest.raises(BlockSyntaxError, match=_MESSAGE) as info:
            SequenceDecoder(data, engine=engine).decode_all()
        errors.append(str(info.value))
    assert errors[0] == errors[1]

    decoded = {}
    for engine in ("scalar", "batched"):
        counters = WorkCounters()
        decoded[engine] = (
            SequenceDecoder(data, engine=engine, resilient=True).decode_all(
                counters
            ),
            counters,
        )
    assert decoded["scalar"][1].concealed_slices == 1
    assert decoded["scalar"][1] == decoded["batched"][1]
    assert_frames_identical(decoded["scalar"][0], decoded["batched"][0])


# ----------------------------------------------------------------------
# (c) the bit cursor, and every cut and every flipped byte of real
#     slices failing alike
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 1400])
def test_bit_windows_read_the_payload_zero_padded(size):
    """Phase 1's cursor table against a big-int read of the payload:
    ``win[p]`` is the 16 bits from ``p`` (zeros past the end) for every
    ``p`` in ``[0, n + 32)`` — a slice reads bits up to ``n + 31`` at
    most; ``fused[p]`` its top 14 bits while 14 real bits are left, and
    the no-symbol entry after."""
    payload = bytes(np.random.default_rng(size).integers(0, 256, size, np.uint8))
    n = 8 * size
    bits = int.from_bytes(payload + bytes(6), "big")
    ((win, fused, base),) = batched.bit_windows([payload])
    assert base == 0
    for p in range(n + 32):
        assert win[p] == (bits >> (n + 32 - p)) & 0xFFFF, p
        expected = win[p] >> 2 if p + 14 <= n else batched._FUSE_TAIL
        assert fused[p] == expected, p
    assert batched._AC_FUSED[batched._FUSE_TAIL] == (0, batched._FUSE_NONE, b"")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(max_size=40), min_size=1, max_size=6))
def test_a_shared_window_table_reads_each_slice_as_its_own(payloads):
    """One table over many payloads, read from each payload's base,
    holds that payload's own windows and ``_FUSE_TAIL`` marks over
    ``[0, n + 32)``: no read of one slice reaches the next."""
    tables = list(batched.bit_windows(payloads))
    assert len(tables) == len(payloads)
    for payload, (win, fused, base) in zip(payloads, tables):
        assert win is tables[0][0] and fused is tables[0][1]
        ((own_win, own_fused, _),) = batched.bit_windows([payload])
        span = range(base, base + 8 * len(payload) + 32)
        assert [win[p] for p in span] == own_win[: len(span)].tolist()
        assert [fused[p] for p in span] == own_fused[: len(span)].tolist()


def test_truncated_quantiser_reports_its_slice_relative_bit():
    """A slice cut inside a macroblock's quantiser_scale_code — a read
    none of the golden vectors' cuts below reach — fails like the
    scalar decoder's read, at the bit counted from the slice's start,
    not from the shared table's."""
    pic = PictureHeader(temporal_reference=0, picture_type=PictureType.P)
    w = BitWriter()
    SliceHeader(quantiser_scale_code=4).write(w)
    MB_ADDRESS_INCREMENT.encode(w, 1)
    MB_TYPE_TABLES[PictureType.P].encode(w, MbMode(coded=True, quant=True))
    at_bit = w.bit_position
    w.align()
    payload = w.getvalue()
    have = 8 * len(payload) - at_bit
    assert have < 5
    scalar, fast = _scalar_run(payload, pic=pic), _batched_run(payload, pic=pic)
    assert type(scalar) is type(fast) is BitstreamError
    assert str(fast) == str(scalar) == (
        f"read past end of stream (want 5 bits at {at_bit}, have {have})"
    )


VECTOR_DIR = Path(__file__).resolve().parent.parent / "vectors"

#: Errors whose message — a bit position, a window, an index — both
#: engines must word identically.  A motion vector out of the reference
#: plane is a ``ValueError`` from different checks on each (a parse-time
#: bound here, the fetch itself in the scalar decoder), so only its
#: class is pinned.
_SAME_MESSAGE = (BitstreamError, BlockSyntaxError, SliceDecodeError, VLCError)


def _mutants(payload: bytes):
    """``(what, mutant)``: every proper prefix (a stream cut at each
    byte length), then the payload with each single byte inverted."""
    for cut in range(len(payload)):
        yield f"cut at {cut}", payload[:cut]
    for i, byte in enumerate(payload):
        yield f"byte {i} ^ 0xff", payload[:i] + bytes([byte ^ 0xFF]) + payload[i + 1 :]


@pytest.mark.parametrize(
    "name", ["ipb_64x48_gop13", "altscan_48x32_gop7", "rc_64x48_gop4"]
)
def test_cut_and_corrupted_slices_fail_alike(name):
    """Pins phase 1's stream-tail and corrupt-input handling to the
    scalar decoder's: both succeed with equal counters, or both raise
    the same class (and, for bit-level errors, the same message)."""
    data = (VECTOR_DIR / f"{name}.m2v").read_bytes()
    index = build_index(data)
    width, height = index.mb_width * 16, index.mb_height * 16
    mismatches = []
    raised = 0
    for gop in index.gops:
        for pic in gop.pictures:
            header = pic.header()
            for vpos, payload, _final in read_slices(data, pic.slices):
                for what, mutant in _mutants(payload):
                    scalar = _scalar_run(mutant, vpos, header, width, height)
                    fast = _batched_run(mutant, vpos, header, width, height)
                    where = f"{header.picture_type.letter} slice {vpos}, {what}"
                    if isinstance(scalar, WorkCounters):
                        if not isinstance(fast, SliceParse):
                            mismatches.append(f"{where}: batched raised {fast!r}")
                        elif fast.counters != scalar:
                            mismatches.append(f"{where}: counters differ")
                        continue
                    raised += 1
                    if type(fast) is not type(scalar) or (
                        isinstance(scalar, _SAME_MESSAGE) and str(fast) != str(scalar)
                    ):
                        mismatches.append(f"{where}: {scalar!r} vs {fast!r}")
    assert not mismatches, mismatches[:10]
    assert raised  # the mutants do reach the error paths
