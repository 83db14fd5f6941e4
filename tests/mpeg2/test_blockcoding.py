"""Block-layer coefficient coding: DC differentials and run/levels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2.blockcoding import (
    BlockSyntaxError,
    decode_block,
    decode_dc_differential,
    encode_block,
    encode_dc_differential,
    encode_run_level,
)
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.tables import DC_SIZE_CHROMA, DC_SIZE_LUMA


def _roundtrip_block(levels, intra):
    w = BitWriter()
    pred = 128 if intra else 0
    encode_block(
        w, levels, intra=intra, dc_table=DC_SIZE_LUMA if intra else None,
        dc_predictor=pred,
    )
    w.align()
    counters = WorkCounters()
    out, _ = decode_block(
        BitReader(w.getvalue()),
        intra=intra,
        dc_table=DC_SIZE_LUMA if intra else None,
        dc_predictor=pred,
        counters=counters,
    )
    return out, counters


class TestDCDifferential:
    @pytest.mark.parametrize("table", [DC_SIZE_LUMA, DC_SIZE_CHROMA])
    @pytest.mark.parametrize("dc,pred", [(128, 128), (0, 128), (255, 128),
                                         (200, 10), (-50, 100), (1000, 0)])
    def test_roundtrip(self, table, dc, pred):
        w = BitWriter()
        encode_dc_differential(w, dc, pred, table)
        w.align()
        c = WorkCounters()
        assert decode_dc_differential(BitReader(w.getvalue()), pred, table, c) == dc

    def test_zero_differential_is_size_code_only(self):
        w = BitWriter()
        encode_dc_differential(w, 100, 100, DC_SIZE_LUMA)
        assert w.bit_position == DC_SIZE_LUMA.code_length(0)

    def test_oversized_differential_rejected(self):
        with pytest.raises(BlockSyntaxError):
            encode_dc_differential(BitWriter(), 1 << 12, 0, DC_SIZE_LUMA)


class TestRunLevel:
    def test_zero_level_rejected(self):
        with pytest.raises(BlockSyntaxError):
            encode_run_level(BitWriter(), 0, 0)

    def test_level_out_of_escape_range_rejected(self):
        with pytest.raises(BlockSyntaxError):
            encode_run_level(BitWriter(), 0, 5000)

    def test_escape_used_for_rare_pairs(self):
        # run 40 has no table entry: must escape (6+12 bits + esc code).
        w = BitWriter()
        encode_run_level(w, 40, 1)
        assert w.bit_position >= 18

    def test_common_pair_is_short(self):
        w = BitWriter()
        encode_run_level(w, 0, 1)
        assert w.bit_position <= 4  # codeword + sign bit


class TestBlockRoundtrip:
    def test_empty_non_intra_block(self):
        levels = np.zeros(64, dtype=np.int64)
        out, c = _roundtrip_block(levels, intra=False)
        assert np.array_equal(out, levels)

    def test_intra_block_keeps_dc(self):
        levels = np.zeros(64, dtype=np.int64)
        levels[0] = 200
        out, _ = _roundtrip_block(levels, intra=True)
        assert np.array_equal(out, levels)

    def test_dense_block(self):
        rng = np.random.default_rng(0)
        levels = rng.integers(-40, 40, size=64)
        levels[0] = 100
        out, c = _roundtrip_block(levels, intra=True)
        assert np.array_equal(out, levels)
        assert c.coefficients == np.count_nonzero(levels[1:])

    def test_last_coefficient_position(self):
        levels = np.zeros(64, dtype=np.int64)
        levels[63] = -5
        out, _ = _roundtrip_block(levels, intra=False)
        assert np.array_equal(out, levels)

    def test_escape_levels(self):
        levels = np.zeros(64, dtype=np.int64)
        levels[10] = 2047
        levels[50] = -2047
        out, _ = _roundtrip_block(levels, intra=False)
        assert np.array_equal(out, levels)

    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(-300, 300)),
            max_size=20,
        ),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_arbitrary_sparse_blocks_roundtrip(self, entries, intra):
        levels = np.zeros(64, dtype=np.int64)
        for pos, val in entries:
            if intra and pos == 0:
                continue
            levels[pos] = val
        if intra:
            levels[0] = 77
        out, _ = _roundtrip_block(levels, intra=intra)
        assert np.array_equal(out, levels)

    def test_run_past_end_detected(self):
        # Hand-craft a stream whose run overflows the block.
        from repro.mpeg2.tables import AC_RUN_LEVEL, ESCAPE

        w = BitWriter()
        for _ in range(3):
            AC_RUN_LEVEL.encode(w, ESCAPE)
            w.write_bits(30, 6)   # run 30
            w.write_bits(5, 12)   # level 5
        w.align()
        with pytest.raises(BlockSyntaxError):
            decode_block(
                BitReader(w.getvalue()), intra=False, counters=WorkCounters()
            )


# ----------------------------------------------------------------------
# the block coder against an independent string-concatenating coder
# ----------------------------------------------------------------------
def _reference_bits(levels, intra, dc_table, dc_predictor):
    """Bits of one block, built from codeword strings pair by pair."""
    from repro.mpeg2.tables import (
        AC_CODED_PAIRS,
        AC_RUN_LEVEL,
        EOB,
        ESCAPE,
    )

    out = []
    start = 0
    if intra:
        diff = int(levels[0]) - dc_predictor
        size = abs(diff).bit_length()
        out.append(dc_table.codeword(size))
        if size:
            magnitude = diff if diff > 0 else (-diff) ^ ((1 << size) - 1)
            out.append(format(magnitude, f"0{size}b"))
        start = 1
    run = 0
    for k in range(start, 64):
        level = int(levels[k])
        if level == 0:
            run += 1
            continue
        if (run, abs(level)) in AC_CODED_PAIRS:
            out.append(AC_RUN_LEVEL.codeword((run, abs(level))))
            out.append("1" if level < 0 else "0")
        else:
            out.append(AC_RUN_LEVEL.codeword(ESCAPE))
            out.append(format(run, "06b"))
            out.append(format(level & 0xFFF, "012b"))
        run = 0
    out.append(AC_RUN_LEVEL.codeword(EOB))
    return "".join(out)


@st.composite
def _coded_block(draw):
    """A block of (run, level) pairs, tabled and escaped, plus a DC."""
    from repro.mpeg2.tables import AC_CODED_PAIRS

    intra = draw(st.booleans())
    levels = np.zeros(64, dtype=np.int64)
    k = 1 if intra else 0
    while k < 64 and draw(st.integers(0, 4)):
        run = draw(st.integers(0, 63 - k))
        tabled = sorted(m for r, m in AC_CODED_PAIRS if r == run)
        if tabled and draw(st.booleans()):
            mag = draw(st.sampled_from(tabled))
        else:
            mag = draw(st.integers(1, 2047))
        k += run
        levels[k] = mag if draw(st.booleans()) else -mag
        k += 1
    table = draw(st.sampled_from([DC_SIZE_LUMA, DC_SIZE_CHROMA]))
    predictor = draw(st.integers(0, 2047))
    if intra:
        size = draw(st.integers(0, 11))
        lo = 0 if size == 0 else 1 << (size - 1)
        magnitude = draw(st.integers(lo, (1 << size) - 1))
        levels[0] = predictor + (magnitude if draw(st.booleans()) else -magnitude)
    return levels, intra, table, predictor


class TestBlockCoderProperty:
    @given(_coded_block())
    @settings(max_examples=300, deadline=None)
    def test_matches_string_coder(self, case):
        levels, intra, table, predictor = case
        w = BitWriter()
        encode_block(
            w, levels, intra=intra, dc_table=table if intra else None,
            dc_predictor=predictor,
        )
        nbits = w.bit_position
        w.align()
        got = "".join(f"{b:08b}" for b in w.getvalue())[:nbits]
        assert got == _reference_bits(levels, intra, table, predictor)

    def test_every_run_on_both_sides_of_the_table(self):
        from repro.mpeg2.tables import AC_CODED_PAIRS

        for run in range(64):
            tabled = max((m for r, m in AC_CODED_PAIRS if r == run), default=0)
            for mag in sorted({1, tabled, tabled + 1, 2047} - {0}):
                for level in (mag, -mag):
                    levels = np.zeros(64, dtype=np.int64)
                    levels[run] = level
                    w = BitWriter()
                    encode_block(w, levels, intra=False)
                    nbits = w.bit_position
                    w.align()
                    got = "".join(f"{b:08b}" for b in w.getvalue())[:nbits]
                    assert got == _reference_bits(levels, False, None, 0), level
