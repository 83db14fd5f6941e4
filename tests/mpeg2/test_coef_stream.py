"""The phase-1 -> phase-2 coefficient stream, tested at the format boundary.

``SliceParse.coef_packed`` is a ``bytearray`` of little-endian int32
entries — ``(run << 24) | (level + 2**23)`` per coefficient, one
``1 << 30`` EOB entry closing every coded block — that only
:mod:`repro.mpeg2.batched` reads and writes.  Three things are pinned
here, below the whole-stream parity suites:

* the round trip ``encode_slice`` -> ``parse_slice`` ->
  ``assemble_picture`` returns, once ``coef_idx``/``coef_val`` are
  scattered into blocks, the raster-ordered levels that went in, for the shapes a stream of run-relative entries
  could plausibly get wrong (DC-only blocks, a coefficient at scan index
  63, escape-coded runs and levels, uncoded blocks, both scans);
* the bound check the parser defers to once per fused VLC window raises
  the scalar decoder's ``BlockSyntaxError``, for the same symbol,
  wherever in the window that symbol sits;
* the parser's cursor table reads the payload's bits, and every slice
  of three golden vectors, cut at each byte or with a byte inverted,
  parses to the scalar decoder's counters or fails with its error.
"""

from __future__ import annotations

import re
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
from repro.mpeg2.constants import PictureType
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader, SliceHeader
from repro.mpeg2.index import build_index
from repro.mpeg2.kernel import read_slices
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

EOB_ENTRY = 1 << 30


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
    expected, where = [], []
    n_coef = n_dc = 0
    for rec, (intra, levels) in enumerate(mb for row in rows for mb in row):
        for i in range(6):
            if intra or levels[i].any():
                expected.append(unscan_block(levels[i], order))
                where.append((rec, i))
                n_dc += intra
                n_coef += np.count_nonzero(levels[i, int(intra):])

    stream = b"".join(sp.coef_packed for sp in parses)
    entries = np.frombuffer(stream, dtype="<i4")
    assert np.count_nonzero(entries == EOB_ENTRY) == len(expected)
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


def _batched_run(payload, vpos=1, pic=_I_PICTURE, width=48, height=32):
    """Phase 1 of the same slice: its :class:`SliceParse`, or the
    exception it raised."""
    try:
        return parse_slice(payload, vpos, pic, width // 16, height // 16, True)
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
@pytest.mark.parametrize("size", [1, 2, 3, 17, 1400])
def test_bit_windows_read_the_payload_zero_padded(size):
    """Phase 1's cursor table against a big-int read of the payload:
    ``win[p]`` is the 16 bits from ``p`` (zeros past the end) up to
    ``p = n + 16``; ``fused[p]`` its top 14 bits while 14 real bits are
    left, and the no-symbol entry after."""
    payload = bytes(np.random.default_rng(size).integers(0, 256, size, np.uint8))
    n = 8 * size
    bits = int.from_bytes(payload + bytes(4), "big")
    win, fused = batched._bit_windows(payload)
    for p in range(n + 17):
        assert win[p] == (bits >> (n + 16 - p)) & 0xFFFF, p
    for p in range(n + 1):
        expected = win[p] >> 2 if p + 14 <= n else batched._FUSE_TAIL
        assert fused[p] == expected, p
    assert batched._AC_FUSED[batched._FUSE_TAIL] == (0, batched._FUSE_NONE, b"")


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
