"""Sequential reference decoder, with GOP- and picture-granular entry points.

:class:`SequenceDecoder` is the uniprocessor baseline of the paper.
Its decomposition into :meth:`decode_gop` and :meth:`decode_picture`
is the task granularity menu of Section 4.  The batched engine decodes
every picture through the picture kernel (:mod:`repro.mpeg2.kernel`),
the same one the slice-parallel batches, serve tasks and the encoder
call; GOP tasks run :meth:`decode_gop` itself in their worker, each
picture landing straight in its frame-pool slot.

Reference management follows the kernel's reference table: the two
most recent I/P pictures are held; a P predicts from the newer one; a
B predicts forward from the older and backward from the newer.

:meth:`SequenceDecoder.decode_gop` streams: it decodes one *reference
interval* (:meth:`GopIndex.reference_intervals`) at a time — the
batched engine parses the interval, then reconstructs it picture by
picture — and yields each frame in display order as soon as every
frame before it is decoded.  The first frame is one picture of work
away, not a GOP's, and phase 2's arrays stay near one picture in size.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from time import perf_counter

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader
from repro.mpeg2.index import (
    GopIndex,
    PictureIndex,
    StreamIndex,
    cursor_index,
    scan_faults_first,
)
from repro.mpeg2.kernel import (  # noqa: F401  (names callers import from here)
    SLICE_CORRUPTION_ERRORS,
    DecodeError,
    check_closed,
    check_references,
    conceal,
    parse_slices,
    read_slices,
    reconstruct,
    reference_frames,
)
from repro.mpeg2.macroblock import PictureCodingContext, decode_slice
from repro.obs.metrics import metrics
from repro.obs.trace import trace_span

#: Decode engines: ``"scalar"`` is the per-macroblock oracle path,
#: ``"batched"`` the two-phase parse/reconstruct fast path (default;
#: bit-identical, asserted by the parity suite).
ENGINES = ("scalar", "batched")


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


class SequenceDecoder:
    """Decode a framed MPEG-2 stream produced by :mod:`repro.mpeg2.encoder`.

    Parameters
    ----------
    data:
        The complete coded stream: ``bytes``, or — with a pre-built
        ``index`` — any buffer view of it (a worker's shared arena).
    index:
        Optional pre-built scan index (a GOP task's worker decodes from
        its one GOP's).  Without one the decoder pulls the scan
        (:func:`~repro.mpeg2.index.cursor_index`): construction reads
        the sequence prefix only, and each GOP is scanned when
        ``index.gops`` is first read that far, so the work before the
        first frame is GOP 0's scan and decode, whatever the stream's
        length.  When :meth:`decode_gop` fails, the rest of the stream
        is scanned and a scan fault found there is raised instead
        (:func:`~repro.mpeg2.index.scan_faults_first`): the verdict a
        whole-stream scan would give.
    resilient:
        When true, a slice whose payload fails to parse is concealed
        (see :func:`repro.mpeg2.reconstruct.conceal_rows`) instead of
        aborting the decode.
    engine:
        ``"batched"`` (default) decodes pictures through the two-phase
        picture kernel (:mod:`repro.mpeg2.kernel`); ``"scalar"`` keeps
        the per-macroblock oracle path.  Both are bit-identical,
        counters included.
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
        self.index = index if index is not None else cursor_index(data)
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
        out: Frame | None = None,
        per_slice: list[tuple[int, WorkCounters]] | None = None,
    ) -> Frame:
        """Decode one picture given its reference frames, into ``out``
        (a fresh frame by default); ``per_slice`` collects
        ``(vertical_position, counters)`` per good slice in bitstream
        order, the unit the stream profiler feeds the simulations.

        Observability: the whole picture is bracketed by a
        ``decode.picture`` trace span and feeds the
        ``decode.picture_ms`` histogram; neither perturbs the decode
        (work counters and output pixels are identical with tracing on
        or off, pinned by the overhead-guard test).
        """
        if out is None:
            out = self._blank(pic)
        local = WorkCounters()
        with self._picture_span(pic):
            if self.engine == "batched":
                parsed = self._parse_picture(
                    pic, fwd is not None, bwd is not None, local, per_slice
                )
                self._reconstruct(pic, parsed, out, fwd, bwd, local)
            else:
                self._decode_scalar(pic, out, fwd, bwd, local, per_slice)
        if counters is not None:
            counters.add(local)
        return out

    @contextmanager
    def _picture_span(self, pic: PictureIndex):
        t0 = perf_counter()
        with trace_span("decode.picture", type=pic.picture_type.letter,
                        engine=self.engine, temporal_reference=pic.temporal_reference):
            yield
        metrics().histogram("decode.picture_ms").observe(
            (perf_counter() - t0) * 1e3
        )

    def _decode_scalar(
        self, pic: PictureIndex, out: Frame, fwd: Frame | None,
        bwd: Frame | None, local: WorkCounters, per_slice: list | None,
    ) -> None:
        """The per-macroblock oracle: decode every slice straight into
        ``out``, then the kernel's conceal sweep."""
        header = self._picture_header(pic, fwd is not None, bwd is not None, local)
        ctx = PictureCodingContext(seq=self.seq, pic=header, out=out, fwd=fwd, bwd=bwd)
        # A row's *last* action wins (duplicate slices): decode now, but
        # conceal in one end-of-picture sweep, so spatial concealment
        # sees every decoded neighbour — the sweep every path runs, which
        # keeps them bit-identical on lossy streams.
        corrupt: set[int] = set()
        for vpos, payload, _final in read_slices(self.data, pic.slices):
            with trace_span("decode.slice", row=vpos):
                try:
                    c = decode_slice(payload, vpos, ctx, local)
                except SLICE_CORRUPTION_ERRORS:
                    if not self.resilient:
                        raise
                    corrupt.add(vpos - 1)
                    local.concealed_slices += 1
                    continue
            corrupt.discard(vpos - 1)
            if per_slice is not None:
                per_slice.append((vpos, c))
        conceal(out, fwd, corrupt, pic.slices, self.resilient, local)

    def _picture_header(
        self, pic: PictureIndex, has_fwd: bool, has_bwd: bool, local: WorkCounters
    ) -> PictureHeader:
        """Charge the picture header; check the references it needs exist."""
        header = pic.header()
        local.headers += 1
        local.bits += pic.header_bits
        check_references(header.picture_type, has_fwd, has_bwd)
        return header

    def _parse_picture(
        self, pic: PictureIndex, has_fwd: bool, has_bwd: bool,
        local: WorkCounters, per_slice: list | None = None,
    ) -> tuple:
        """Batched phase 1 for one picture: ``(header, parses, corrupt rows)``."""
        header = self._picture_header(pic, has_fwd, has_bwd, local)
        parses, corrupt = parse_slices(
            read_slices(self.data, pic.slices), header,
            self.index.mb_width, self.index.mb_height, has_fwd,
            self.resilient, local, per_slice,
        )
        return header, parses, corrupt

    def _reconstruct(
        self, pic: PictureIndex, parsed: tuple, out: Frame,
        fwd: Frame | None, bwd: Frame | None, local: WorkCounters,
    ) -> None:
        """Batched phase 2 for one parsed picture, then concealment."""
        header, parses, corrupt = parsed
        reconstruct(out, parses, self.seq, header, fwd, bwd)
        conceal(out, fwd, corrupt, pic.slices, self.resilient, local)

    def _blank(self, pic: PictureIndex) -> Frame:
        out = Frame.blank(self.seq.width, self.seq.height)
        out.temporal_reference = pic.temporal_reference
        return out

    def slice_payload(self, sl) -> bytes:
        """Unescaped payload bytes of one slice of the stream."""
        ((_vpos, payload, _final),) = read_slices(self.data, [sl], (True,))
        return payload

    def make_context(
        self, pic: PictureIndex, fwd: Frame | None, bwd: Frame | None
    ) -> PictureCodingContext:
        """Build a scalar decode context with a fresh output frame.

        Used by the cache trace, which decodes slices one
        :func:`decode_slice` call at a time into one shared frame.
        """
        return PictureCodingContext(
            seq=self.seq, pic=pic.header(), out=self._blank(pic), fwd=fwd, bwd=bwd
        )

    # ------------------------------------------------------------------
    # GOP granularity
    # ------------------------------------------------------------------
    def decode_gop(
        self,
        gop: GopIndex,
        counters: WorkCounters | None = None,
        into: Callable[[int], Frame] | None = None,
    ) -> Iterator[Frame]:
        """Decode one closed GOP: an iterator of its frames in display order.

        This is exactly the unit of work of a GOP-level worker process
        (paper Section 5.1): the GOP is self-contained, so no state is
        shared with other tasks.  An open GOP is rejected at the call;
        the decode runs as the iterator is consumed, so a corrupt slice
        raises after the frames before its interval.  ``counters`` are
        charged when the iterator is exhausted, never if closed early.
        ``into`` says where each picture lands (by coding position): a
        fresh frame by default; a GOP task passes its frame-pool slots,
        so the yielded frames are views of them.  Any failure, the open
        GOP's included, gives way to a scan fault later in the stream
        (:func:`~repro.mpeg2.index.scan_faults_first`).
        """
        with scan_faults_first(self.index.gops):
            check_closed(gop)
        return self._with_scan_verdict(release_in_display_order(
            gop.display_order(), self._decode_intervals(gop, counters, into)
        ))

    def _with_scan_verdict(self, frames: Iterator[Frame]) -> Iterator[Frame]:
        with scan_faults_first(self.index.gops):
            yield from frames

    def _decode_intervals(
        self, gop: GopIndex, counters: WorkCounters | None, into
    ) -> Iterator[dict[int, Frame]]:
        """``{coding position: frame}`` per reference interval of ``gop``.

        No span is open at a ``yield``, so the consumer's time is never
        booked as decode time: each interval is one ``decode.gop`` span,
        and ``decode.gop_ms`` records their sum once per decoded GOP.
        """
        local = WorkCounters()
        local.headers += 1
        local.bits += gop.header_bits
        table = gop.references()
        if into is None:
            into = lambda pos: self._blank(gop.pictures[pos])  # noqa: E731
        #: Decoded pictures by coding position, while a later one may
        #: still reference them.
        decoded: dict[int, Frame] = {}
        busy = 0.0
        for interval in gop.reference_intervals():
            t0 = perf_counter()
            with trace_span("decode.gop", pictures=len(interval)):
                self._decode_interval(gop, interval, table, decoded, local, into)
            busy += perf_counter() - t0
            frames = {pos: decoded[pos] for pos in interval}
            needed = {r for refs in table[interval.stop :] for r in refs}
            decoded = {pos: f for pos, f in decoded.items() if pos in needed}
            yield frames
        metrics().histogram("decode.gop_ms").observe(busy * 1e3)
        if counters is not None:
            counters.add(local)

    def _decode_interval(
        self, gop: GopIndex, interval: range, table: list,
        decoded: dict[int, Frame], local: WorkCounters,
        into: Callable[[int], Frame],
    ) -> None:
        """Decode one interval into ``decoded``.

        The batched engine parses the whole interval first, checking
        reference availability in the per-picture order (so a corrupt
        stream raises the identical exception at the identical point),
        then reconstructs each picture: the VLC tables stay cached
        across the parses, and phase 2 works on one picture at a time.
        """
        parsed = {}
        if self.engine == "batched":
            for pos in interval:
                has_fwd, has_bwd = (r is not None for r in table[pos])
                parsed[pos] = self._parse_picture(
                    gop.pictures[pos], has_fwd, has_bwd, local
                )
        for pos in interval:
            pic = gop.pictures[pos]
            fwd, bwd = reference_frames(table[pos], decoded)
            out = decoded[pos] = into(pos)
            if self.engine == "scalar":
                self.decode_picture(pic, fwd, bwd, local, out)
            else:
                with self._picture_span(pic):
                    self._reconstruct(pic, parsed[pos], out, fwd, bwd, local)

    # ------------------------------------------------------------------
    # whole stream
    # ------------------------------------------------------------------
    def decode_all(self, counters: WorkCounters | None = None) -> list[Frame]:
        """Decode the entire sequence in display order, each GOP as soon
        as it is scanned."""
        frames: list[Frame] = []
        for gop in self.index.gops:
            frames.extend(self.decode_gop(gop, counters))
        return frames


def decode_sequence(data: bytes) -> list[Frame]:
    """Convenience: decode a stream to display-ordered frames."""
    return SequenceDecoder(data).decode_all()
