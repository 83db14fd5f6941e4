"""Stream index: layering validation and malformed-stream handling."""

from __future__ import annotations

import pytest

from repro.bitstream import (
    GROUP_START_CODE,
    PICTURE_START_CODE,
    SEQUENCE_HEADER_CODE,
    BitWriter,
)
from repro.mpeg2.assembly import StreamAssembler
from repro.mpeg2.decoder import DecodeError, SequenceDecoder
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.mpeg2.headers import GopHeader, PictureHeader, SequenceHeader
from repro.mpeg2.constants import PictureType
from repro.mpeg2.index import StreamIndexError, build_index
from repro.video.synthetic import SyntheticVideo


def _segment(code, header):
    w = BitWriter()
    header.write(w)
    return code, w.getvalue()


def assemble(*segments):
    a = StreamAssembler()
    for code, payload in segments:
        a.add_segment(code, payload)
    a.add_sequence_end()
    return a.getvalue()


SEQ = _segment(SEQUENCE_HEADER_CODE, SequenceHeader(width=64, height=48))
GOP = _segment(GROUP_START_CODE, GopHeader())
PIC = _segment(
    PICTURE_START_CODE,
    PictureHeader(temporal_reference=0, picture_type=PictureType.I),
)


class TestLayeringValidation:
    def test_must_begin_with_sequence_header(self):
        with pytest.raises(StreamIndexError, match="sequence header"):
            build_index(assemble(GOP, PIC))

    def test_empty_stream(self):
        with pytest.raises(StreamIndexError):
            build_index(b"")

    def test_gop_before_sequence_rejected(self):
        # A GOP start code physically before the sequence header.
        data = assemble(GOP, SEQ, GOP, PIC)
        with pytest.raises(StreamIndexError):
            build_index(data)

    def test_picture_outside_gop_rejected(self):
        with pytest.raises(StreamIndexError, match="outside any GOP"):
            build_index(assemble(SEQ, PIC))

    def test_slice_outside_picture_rejected(self):
        with pytest.raises(StreamIndexError, match="outside any picture"):
            build_index(assemble(SEQ, GOP, (0x01, b"\x20")))

    def test_repeated_sequence_header_rejected(self):
        with pytest.raises(StreamIndexError, match="repeated"):
            build_index(assemble(SEQ, SEQ, GOP, PIC))

    def test_unexpected_start_code_rejected(self):
        with pytest.raises(StreamIndexError, match="0xB0"):
            build_index(assemble(SEQ, GOP, (0xB0, b"")))

    def test_no_gops_rejected(self):
        with pytest.raises(StreamIndexError, match="no GOPs"):
            build_index(assemble(SEQ))

    def test_data_after_sequence_end_ignored(self, small_stream):
        trailing = small_stream + b"\x00\x00\x01\xB8garbage"
        idx = build_index(trailing)
        assert len(idx.gops) == 1  # the post-end GOP is not indexed


class TestDecoderReferenceChecks:
    def _stream(self, first_type):
        """A stream whose first picture claims a predicted type."""
        pic = _segment(
            PICTURE_START_CODE,
            PictureHeader(temporal_reference=0, picture_type=first_type),
        )
        return assemble(SEQ, GOP, pic, (0x01, b"\x20"))

    def test_p_without_reference_raises(self):
        dec = SequenceDecoder(self._stream(PictureType.P))
        with pytest.raises(DecodeError, match="forward reference"):
            dec.decode_all()

    def test_b_without_backward_reference_raises(self):
        from repro.mpeg2.frame import Frame

        data = self._stream(PictureType.B)
        dec = SequenceDecoder(data)
        pic = dec.index.gops[0].pictures[0]
        with pytest.raises(DecodeError, match="backward reference"):
            dec.decode_picture(pic, fwd=Frame.blank(64, 48), bwd=None)

    def test_open_gop_rejected_by_gop_decoder(self):
        open_gop = _segment(GROUP_START_CODE, GopHeader(closed_gop=False))
        data = assemble(SEQ, open_gop, PIC, (0x01, b"\x20"))
        dec = SequenceDecoder(data)
        with pytest.raises(DecodeError, match="closed"):
            dec.decode_gop(dec.index.gops[0])


class TestAllIntraStream:
    """GOP size 1: the all-I 'editing-friendly' stream shape."""

    def test_encode_decode(self):
        from repro.mpeg2.decoder import decode_sequence
        from repro.video.metrics import sequence_psnr

        frames = SyntheticVideo(48, 32, seed=9).frames(6)
        data = encode_sequence(frames, EncoderConfig(gop_size=1, qscale_code=3))
        idx = build_index(data)
        assert len(idx.gops) == 6
        assert all(
            p.picture_type is PictureType.I
            for g in idx.gops
            for p in g.pictures
        )
        decoded = decode_sequence(data)
        assert sequence_psnr(frames, decoded) > 30.0

    def test_gop_parallelism_on_all_intra(self):
        from repro.parallel import GopLevelDecoder, ParallelConfig, profile_stream
        from repro.smp import challenge

        frames = SyntheticVideo(48, 32, seed=9).frames(12)
        data = encode_sequence(frames, EncoderConfig(gop_size=1, qscale_code=3))
        profile = profile_stream(data)
        r1 = GopLevelDecoder(profile).run(
            ParallelConfig(workers=1, machine=challenge(4))
        )
        r3 = GopLevelDecoder(profile).run(
            ParallelConfig(workers=3, machine=challenge(5))
        )
        # One-picture GOPs give maximal task count: near-linear here.
        assert r3.pictures_per_second > 2.2 * r1.pictures_per_second