"""Sequential reference decoder, with GOP- and slice-granular entry points.

:class:`SequenceDecoder` is the uniprocessor baseline of the paper.
Its decomposition into :meth:`decode_gop`, :meth:`decode_picture` and
the slice-level :func:`repro.mpeg2.macroblock.decode_slice` is exactly
the task granularity menu of Section 4 — the parallel decoders in
:mod:`repro.parallel` call these same entry points from worker
processes.

Reference management follows the standard: the two most recent I/P
pictures are held; a P predicts from the newer one; a B predicts
forward from the older and backward from the newer.

:meth:`SequenceDecoder.decode_gop` streams: it decodes one *reference
interval* (:meth:`GopIndex.reference_intervals`) at a time — the
batched engine parses the interval, then reconstructs it picture by
picture — and yields each frame in display order as soon as every
frame before it is decoded.  The first frame is one picture of work
away, not a GOP's, and phase 2's arrays stay near one picture in size.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from time import perf_counter

from repro.bitstream.emulation import unescape_payload
from repro.bitstream.reader import BitstreamError
from repro.mpeg2.batched import SliceParse, parse_slice, reconstruct_slices
from repro.mpeg2.blockcoding import BlockSyntaxError
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader
from repro.mpeg2.index import GopIndex, PictureIndex, StreamIndex, build_index
from repro.mpeg2.macroblock import PictureCodingContext, SliceDecodeError, decode_slice
from repro.mpeg2.reconstruct import conceal_rows, missing_rows
from repro.mpeg2.vlc import VLCError
from repro.obs.metrics import metrics
from repro.obs.trace import trace_span

#: Decode engines: ``"scalar"`` is the per-macroblock oracle path,
#: ``"batched"`` the two-phase parse/reconstruct fast path (default;
#: bit-identical, asserted by the parity suite).
ENGINES = ("scalar", "batched")


class DecodeError(Exception):
    """Raised when reference pictures needed by the stream are missing."""


#: Exceptions a corrupt slice payload can legitimately raise; the
#: resilient decoder conceals the slice on any of these.
SLICE_CORRUPTION_ERRORS = (
    BitstreamError,
    BlockSyntaxError,
    SliceDecodeError,
    VLCError,
    ValueError,
)

#: A batched phase-1 product: header, the *last* parse of every row
#: (``None``: corrupt, to conceal) and per-slice counters in bitstream order.
ParsedPicture = tuple[
    PictureHeader, dict[int, SliceParse | None], list[tuple[int, WorkCounters]]
]


def release_in_display_order(
    order: list[int], intervals: Iterable[dict[int, Frame]]
) -> Iterator[Frame]:
    """Yield frames in display order, each as soon as its prefix is done.

    ``order`` is the GOP's coding positions in display order
    (:meth:`GopIndex.display_order`, the stable sort by temporal
    reference); ``intervals`` yields ``{coding position: frame}`` per
    decoded interval.  No frame leaves before its interval is decoded.
    """
    held: dict[int, Frame] = {}
    shown = 0
    for decoded in intervals:
        held.update(decoded)
        while shown < len(order) and order[shown] in held:
            yield held.pop(order[shown])
            shown += 1


def _references(pic: PictureIndex, old, new) -> tuple:
    """``(forward, backward)`` for ``pic`` from the two reference slots
    (frames when reconstructing, availability flags when parsing)."""
    return (new, None) if pic.picture_type.is_reference else (old, new)


class SequenceDecoder:
    """Decode a framed MPEG-2 stream produced by :mod:`repro.mpeg2.encoder`.

    Parameters
    ----------
    data:
        The complete coded stream: ``bytes``, or — with a pre-built
        ``index`` — any buffer view of it (a worker's shared arena);
        :meth:`slice_payload` is the only place it is read.
    index:
        Optional pre-built scan index (the parallel decoders share one
        index between the scan process and the workers).
    resilient:
        When true, a slice whose payload fails to parse is concealed
        (see :func:`repro.mpeg2.reconstruct.conceal_rows`) instead of
        aborting the decode.
    engine:
        ``"batched"`` (default) decodes pictures through the two-phase
        parse/reconstruct fast path (:mod:`repro.mpeg2.batched`);
        ``"scalar"`` keeps the per-macroblock oracle path.  Both are
        bit-identical, counters included.
    """

    def __init__(
        self,
        data: bytes | memoryview,
        index: StreamIndex | None = None,
        resilient: bool = False,
        engine: str = "batched",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.data = data
        self.index = index if index is not None else build_index(data)
        self.seq = self.index.sequence_header
        self.resilient = resilient
        self.engine = engine

    # ------------------------------------------------------------------
    # picture granularity
    # ------------------------------------------------------------------
    def decode_picture(
        self,
        pic: PictureIndex,
        fwd: Frame | None,
        bwd: Frame | None,
        counters: WorkCounters | None = None,
    ) -> Frame:
        """Decode one picture given its reference frames."""
        out, _slice_counters, local = self.decode_picture_with_slices(
            pic, fwd, bwd
        )
        if counters is not None:
            counters.add(local)
        return out

    def decode_picture_with_slices(
        self,
        pic: PictureIndex,
        fwd: Frame | None,
        bwd: Frame | None,
    ) -> tuple[Frame, list[tuple[int, WorkCounters]], WorkCounters]:
        """Decode one picture; also return per-slice work counters.

        Returns ``(frame, slice_counters, picture_counters)`` where
        ``slice_counters`` is ``(vertical_position, counters)`` per
        successfully decoded slice in bitstream order — the unit the
        stream profiler feeds to the parallel simulations.

        Observability: the whole picture is bracketed by a
        ``decode.picture`` trace span and feeds the
        ``decode.picture_ms`` histogram; neither perturbs the decode
        (work counters and output pixels are identical with tracing on
        or off, pinned by the overhead-guard test).
        """
        with self._picture_span(pic):
            return self._decode_picture_inner(pic, fwd, bwd)

    @contextmanager
    def _picture_span(self, pic: PictureIndex):
        t0 = perf_counter()
        with trace_span("decode.picture", type=pic.picture_type.letter,
                        engine=self.engine, temporal_reference=pic.temporal_reference):
            yield
        metrics().histogram("decode.picture_ms").observe(
            (perf_counter() - t0) * 1e3
        )

    def _decode_picture_inner(
        self,
        pic: PictureIndex,
        fwd: Frame | None,
        bwd: Frame | None,
    ) -> tuple[Frame, list[tuple[int, WorkCounters]], WorkCounters]:
        local = WorkCounters()
        if self.engine == "batched":
            parsed = self._parse_picture(pic, fwd is not None, bwd is not None, local)
            return self._reconstruct(pic, parsed, fwd, bwd, local), parsed[2], local

        header = self._picture_header(pic, fwd is not None, bwd is not None, local)
        out = self._blank(pic)
        ctx = PictureCodingContext(seq=self.seq, pic=header, out=out, fwd=fwd, bwd=bwd)
        slice_counters: list[tuple[int, WorkCounters]] = []
        # A row's *last* action wins (duplicate slices): decode now, but
        # conceal in one end-of-picture sweep, so spatial concealment
        # sees every decoded neighbour — the sweep every path runs, which
        # keeps them bit-identical on lossy streams.
        conceal_pending: set[int] = set()
        for sl in pic.slices:
            payload = self.slice_payload(sl)
            with trace_span("decode.slice", row=sl.vertical_position):
                try:
                    c = decode_slice(payload, sl.vertical_position, ctx, local)
                except SLICE_CORRUPTION_ERRORS:
                    if not self.resilient:
                        raise
                    conceal_pending.add(sl.vertical_position - 1)
                    local.concealed_slices += 1
                    continue
            conceal_pending.discard(sl.vertical_position - 1)
            slice_counters.append((sl.vertical_position, c))
        if self.resilient:
            self._conceal(pic, out, fwd, conceal_pending, local)
        return out, slice_counters, local

    def _picture_header(
        self, pic: PictureIndex, has_fwd: bool, has_bwd: bool, local: WorkCounters
    ) -> PictureHeader:
        """Charge the picture header; check the references it needs exist."""
        header = pic.header()
        local.headers += 1
        local.bits += (pic.header_payload_end - pic.header_payload_start + 4) * 8
        letter = header.picture_type.letter
        if letter != "I" and not has_fwd:
            raise DecodeError(f"{letter}-picture without forward reference")
        if letter == "B" and not has_bwd:
            raise DecodeError("B-picture without backward reference")
        return header

    def _parse_picture(
        self, pic: PictureIndex, has_fwd: bool, has_bwd: bool, local: WorkCounters
    ) -> ParsedPicture:
        """Batched phase 1 for one picture: bit work only.

        A later duplicate slice or a concealment fully overwrites a
        row, exactly as the sequential writes would, because every
        slice covers its complete row: only a row's last parse is kept.
        """
        header = self._picture_header(pic, has_fwd, has_bwd, local)
        mbw, mbh = self.index.mb_width, self.index.mb_height
        final: dict[int, SliceParse | None] = {}
        slice_counters: list[tuple[int, WorkCounters]] = []
        with trace_span(
            "decode.parse",
            slices=len(pic.slices),
            type=header.picture_type.letter,
            temporal_reference=pic.temporal_reference,
        ):
            for sl in pic.slices:
                payload = self.slice_payload(sl)
                try:
                    sp = parse_slice(
                        payload, sl.vertical_position, header, mbw, mbh, has_fwd
                    )
                except SLICE_CORRUPTION_ERRORS:
                    if not self.resilient:
                        raise
                    local.concealed_slices += 1
                    final[sl.vertical_position - 1] = None
                    continue
                local.add(sp.counters)
                slice_counters.append((sl.vertical_position, sp.counters))
                final[sl.vertical_position - 1] = sp
        return header, final, slice_counters

    def _reconstruct(
        self, pic: PictureIndex, parsed: ParsedPicture,
        fwd: Frame | None, bwd: Frame | None, local: WorkCounters,
    ) -> Frame:
        """Batched phase 2 for one parsed picture, then concealment."""
        header, final, _ = parsed
        out = self._blank(pic)
        with trace_span("decode.reconstruct"):
            reconstruct_slices(
                [sp for sp in final.values() if sp is not None],
                self.seq, header, out, fwd, bwd,
            )
            if self.resilient:
                rows = {row for row, sp in final.items() if sp is None}
                self._conceal(pic, out, fwd, rows, local)
        return out

    def _conceal(
        self, pic: PictureIndex, out: Frame, fwd: Frame | None,
        rows: set[int], local: WorkCounters,
    ) -> None:
        """Conceal ``rows`` plus every row no slice of ``pic`` covered."""
        lost = missing_rows(
            out.mb_height, (sl.vertical_position - 1 for sl in pic.slices)
        )
        local.concealed_slices += len(lost)
        conceal_rows(out, fwd, rows.union(lost))

    def _blank(self, pic: PictureIndex) -> Frame:
        out = Frame.blank(self.seq.width, self.seq.height)
        out.temporal_reference = pic.temporal_reference
        return out

    def slice_payload(self, sl) -> bytes:
        """Unescaped payload bytes of a slice.

        ``bytes()`` of a ``bytes`` slice is free; of an arena view's it
        materialises just this slice (a view has no ``find`` to
        unescape with).
        """
        return unescape_payload(
            bytes(self.data[sl.payload_start : sl.payload_end])
        )

    def make_context(
        self, pic: PictureIndex, fwd: Frame | None, bwd: Frame | None
    ) -> PictureCodingContext:
        """Build a decode context with a fresh output frame.

        Used by the slice-level parallel decoders, where many workers
        decode slices of the same picture into one shared frame.
        """
        return PictureCodingContext(
            seq=self.seq, pic=pic.header(), out=self._blank(pic), fwd=fwd, bwd=bwd
        )

    # ------------------------------------------------------------------
    # GOP granularity
    # ------------------------------------------------------------------
    def decode_gop(
        self, gop: GopIndex, counters: WorkCounters | None = None
    ) -> Iterator[Frame]:
        """Decode one closed GOP: an iterator of its frames in display order.

        This is exactly the unit of work of a GOP-level worker process
        (paper Section 5.1): the GOP is self-contained, so no state is
        shared with other tasks.  An open GOP is rejected at the call;
        the decode runs as the iterator is consumed, so a corrupt slice
        raises after the frames before its interval.  ``counters`` are
        charged when the iterator is exhausted, never if closed early.
        """
        if not gop.closed_gop:
            raise DecodeError(
                "GOP-level decode requires closed GOPs (paper assumption)"
            )
        return release_in_display_order(
            gop.display_order(), self._decode_intervals(gop, counters)
        )

    def _decode_intervals(
        self, gop: GopIndex, counters: WorkCounters | None
    ) -> Iterator[dict[int, Frame]]:
        """``{coding position: frame}`` per reference interval of ``gop``.

        No span is open at a ``yield``, so the consumer's time is never
        booked as decode time: each interval is one ``decode.gop`` span,
        and ``decode.gop_ms`` records their sum once per decoded GOP.
        """
        local = WorkCounters()
        local.headers += 1
        local.bits += (gop.header_payload_end - gop.header_payload_start + 4) * 8
        refs: tuple[Frame | None, Frame | None] = (None, None)
        busy = 0.0
        for interval in gop.reference_intervals():
            pics = [gop.pictures[pos] for pos in interval]
            t0 = perf_counter()
            with trace_span("decode.gop", pictures=len(pics)):
                frames, refs = self._decode_interval(pics, refs, local)
            busy += perf_counter() - t0
            yield dict(zip(interval, frames))
        metrics().histogram("decode.gop_ms").observe(busy * 1e3)
        if counters is not None:
            counters.add(local)

    def _decode_interval(
        self, pics: list[PictureIndex], refs: tuple, local: WorkCounters
    ) -> tuple[list[Frame], tuple]:
        """Decode one interval: its frames in coding order, and new refs.

        The batched engine parses the whole interval first, checking
        reference availability in the per-picture order (so a corrupt
        stream raises the identical exception at the identical point),
        then reconstructs each picture: the VLC tables stay cached
        across the parses, and phase 2 works on one picture at a time.
        """
        parsed: list[ParsedPicture] = []
        if self.engine == "batched":
            have = (refs[0] is not None, refs[1] is not None)
            for pic in pics:
                fwd, bwd = _references(pic, *have)
                parsed.append(self._parse_picture(pic, bool(fwd), bool(bwd), local))
                if pic.picture_type.is_reference:
                    have = (have[1], True)
        frames = []
        for k, pic in enumerate(pics):
            fwd, bwd = _references(pic, *refs)
            if self.engine == "scalar":
                out = self.decode_picture(pic, fwd, bwd, local)
            else:
                with self._picture_span(pic):
                    out = self._reconstruct(pic, parsed[k], fwd, bwd, local)
            if pic.picture_type.is_reference:
                refs = (refs[1], out)
            frames.append(out)
        return frames, refs

    # ------------------------------------------------------------------
    # whole stream
    # ------------------------------------------------------------------
    def decode_all(self, counters: WorkCounters | None = None) -> list[Frame]:
        """Decode the entire sequence in display order."""
        frames: list[Frame] = []
        for gop in self.index.gops:
            frames.extend(self.decode_gop(gop, counters))
        return frames


def decode_sequence(data: bytes) -> list[Frame]:
    """Convenience: decode a stream to display-ordered frames."""
    return SequenceDecoder(data).decode_all()
