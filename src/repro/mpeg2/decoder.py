"""Sequential reference decoder, with GOP- and slice-granular entry points.

:class:`SequenceDecoder` is the uniprocessor baseline of the paper.
Its decomposition into :meth:`decode_gop`, :meth:`decode_picture` and
the slice-level :func:`repro.mpeg2.macroblock.decode_slice` is exactly
the task granularity menu of Section 4 — the parallel decoders in
:mod:`repro.parallel` call these same entry points from worker
processes.

Reference management follows the standard: the two most recent I/P
pictures are held; a P predicts from the newer one; a B predicts
forward from the older and backward from the newer.  Decoded frames
carry their temporal reference; display order is obtained by sorting
within each (closed) GOP.
"""

from __future__ import annotations

from time import perf_counter

from repro.bitstream.emulation import unescape_payload
from repro.bitstream.reader import BitstreamError
from repro.mpeg2.batched import (
    SliceParse,
    assemble_picture,
    gop_dequant_idct,
    mc_scatter,
    parse_slice,
    reconstruct_slices,
)
from repro.mpeg2.blockcoding import BlockSyntaxError
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import (
    GopIndex,
    PictureIndex,
    StreamIndex,
    build_index,
)
from repro.mpeg2.macroblock import (
    PictureCodingContext,
    SliceDecodeError,
    decode_slice,
)
from repro.mpeg2.reconstruct import conceal_row, conceal_rows, missing_rows
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


def conceal_slice(ctx: PictureCodingContext, vertical_position: int) -> None:
    """Replace a lost slice's macroblock row.

    Classic concealment: copy the co-located row from the forward
    reference when one exists, else fill mid-grey.  Slice independence
    (predictors reset at every slice) is what confines the damage to
    one row — the same property the parallel decomposition uses.
    """
    conceal_row(ctx.out, ctx.fwd, vertical_position - 1)


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
        (see :func:`conceal_slice`) instead of aborting the decode.
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
        t0 = perf_counter()
        with trace_span(
            "decode.picture",
            type=pic.picture_type.letter,
            engine=self.engine,
            temporal_reference=pic.temporal_reference,
        ):
            result = self._decode_picture_inner(pic, fwd, bwd)
        metrics().histogram("decode.picture_ms").observe(
            (perf_counter() - t0) * 1e3
        )
        return result

    def _decode_picture_inner(
        self,
        pic: PictureIndex,
        fwd: Frame | None,
        bwd: Frame | None,
    ) -> tuple[Frame, list[tuple[int, WorkCounters]], WorkCounters]:
        local = WorkCounters()
        header = pic.header()
        local.headers += 1
        local.bits += (pic.header_payload_end - pic.header_payload_start + 4) * 8
        out = Frame.blank(self.seq.width, self.seq.height)
        out.temporal_reference = pic.temporal_reference
        if header.picture_type.letter != "I" and fwd is None:
            raise DecodeError(
                f"{header.picture_type.letter}-picture without forward reference"
            )
        if header.picture_type.letter == "B" and bwd is None:
            raise DecodeError("B-picture without backward reference")
        slice_counters: list[tuple[int, WorkCounters]] = []

        if self.engine == "scalar":
            ctx = PictureCodingContext(
                seq=self.seq, pic=header, out=out, fwd=fwd, bwd=bwd
            )
            # A row's *last* action wins (duplicate slices): decode
            # immediately, but defer concealment to one end-of-picture
            # sweep so spatial (row-above) concealment sees every
            # decoded neighbour — the same sweep the batched and
            # slice-parallel paths run, which is what keeps all of
            # them bit-identical on lossy streams.
            conceal_pending: set[int] = set()
            for sl in pic.slices:
                payload = self.slice_payload(sl)
                with trace_span("decode.slice", row=sl.vertical_position):
                    if self.resilient:
                        try:
                            c = decode_slice(
                                payload, sl.vertical_position, ctx, local
                            )
                        except SLICE_CORRUPTION_ERRORS:
                            conceal_pending.add(sl.vertical_position - 1)
                            local.concealed_slices += 1
                            continue
                        conceal_pending.discard(sl.vertical_position - 1)
                    else:
                        c = decode_slice(payload, sl.vertical_position, ctx, local)
                slice_counters.append((sl.vertical_position, c))
            if self.resilient:
                lost = missing_rows(
                    out.mb_height,
                    (sl.vertical_position - 1 for sl in pic.slices),
                )
                local.concealed_slices += len(lost)
                conceal_rows(out, fwd, conceal_pending.union(lost))
            return out, slice_counters, local

        # Batched engine: phase 1 parses every slice (bit work only),
        # phase 2 reconstructs the whole picture vectorized.  A row's
        # *last* action wins — a later duplicate slice or a concealment
        # fully overwrites the row, exactly as the sequential writes
        # would, because every slice covers its complete row.
        mbw, mbh = out.mb_width, out.mb_height
        final: dict[int, SliceParse | None] = {}
        with trace_span("decode.parse", slices=len(pic.slices)):
            for sl in pic.slices:
                payload = self.slice_payload(sl)
                try:
                    sp = parse_slice(
                        payload, sl.vertical_position, header, mbw, mbh,
                        fwd is not None,
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
        with trace_span("decode.reconstruct"):
            reconstruct_slices(
                [sp for sp in final.values() if sp is not None],
                self.seq, header, out, fwd, bwd,
            )
            if self.resilient:
                lost = missing_rows(
                    out.mb_height,
                    (sl.vertical_position - 1 for sl in pic.slices),
                )
                local.concealed_slices += len(lost)
                rows = {row for row, sp in final.items() if sp is None}
                conceal_rows(out, fwd, rows.union(lost))
        return out, slice_counters, local

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
        out = Frame.blank(self.seq.width, self.seq.height)
        out.temporal_reference = pic.temporal_reference
        return PictureCodingContext(
            seq=self.seq, pic=pic.header(), out=out, fwd=fwd, bwd=bwd
        )

    # ------------------------------------------------------------------
    # GOP granularity
    # ------------------------------------------------------------------
    def decode_gop(
        self, gop: GopIndex, counters: WorkCounters | None = None
    ) -> list[Frame]:
        """Decode one closed GOP; returns frames in *display* order.

        This is exactly the unit of work of a GOP-level worker process
        (paper Section 5.1): the GOP is self-contained, so no state is
        shared with other tasks.
        """
        if not gop.closed_gop:
            raise DecodeError(
                "GOP-level decode requires closed GOPs (paper assumption)"
            )
        t0 = perf_counter()
        with trace_span("decode.gop", pictures=len(gop.pictures)):
            frames = self._decode_gop_inner(gop, counters)
        metrics().histogram("decode.gop_ms").observe(
            (perf_counter() - t0) * 1e3
        )
        return frames

    def _decode_gop_inner(
        self, gop: GopIndex, counters: WorkCounters | None = None
    ) -> list[Frame]:
        local = WorkCounters()
        local.headers += 1
        local.bits += (gop.header_payload_end - gop.header_payload_start + 4) * 8
        if self.engine == "batched":
            decoded = self._decode_gop_batched(gop, local)
        else:
            ref_old: Frame | None = None
            ref_new: Frame | None = None
            decoded = []
            for pic in gop.pictures:
                if pic.picture_type.is_reference:
                    frame = self.decode_picture(pic, ref_new, None, local)
                    ref_old, ref_new = ref_new, frame
                else:
                    frame = self.decode_picture(pic, ref_old, ref_new, local)
                decoded.append(frame)
        decoded.sort(key=lambda f: f.temporal_reference)
        if counters is not None:
            counters.add(local)
        return decoded

    def _decode_gop_batched(
        self, gop: GopIndex, local: WorkCounters
    ) -> list[Frame]:
        """GOP mega-batch: parse every picture, transform once, then MC.

        Phase 1 walks the pictures in coding order doing only bit work
        (and the same reference-availability checks, in the same
        order, as the per-picture path — a corrupt stream raises the
        identical exception class at the identical point).  Phase 2a
        runs **one** dequant + IDCT chain over every coded block of
        the GOP (:func:`repro.mpeg2.batched.gop_dequant_idct` — the
        transform never reads reference frames, so it batches across
        pictures).  Phase 2b motion-compensates and scatters each
        picture in coding order, managing references exactly as the
        sequential decoder does.  Pixels, work counters and error
        behaviour are identical to the per-picture path; only the
        batching grain changes.
        """
        mbw = (self.seq.width + 15) // 16
        mbh = (self.seq.height + 15) // 16
        # ---- phase 1: bit-only parse of every picture --------------
        parsed: list[
            tuple[PictureIndex, object, dict[int, SliceParse | None], WorkCounters]
        ] = []
        have_old = False  # ref availability mirrors phase-2 ref handoff
        have_new = False
        for pic in gop.pictures:
            header = pic.header()
            pcount = WorkCounters()
            pcount.headers += 1
            pcount.bits += (
                pic.header_payload_end - pic.header_payload_start + 4
            ) * 8
            letter = header.picture_type.letter
            if letter == "I":
                has_fwd = have_new
            elif letter == "P":
                if not have_new:
                    raise DecodeError("P-picture without forward reference")
                has_fwd = True
            else:
                if not have_old:
                    raise DecodeError("B-picture without forward reference")
                if not have_new:
                    raise DecodeError("B-picture without backward reference")
                has_fwd = True
            final: dict[int, SliceParse | None] = {}
            with trace_span(
                "decode.parse",
                slices=len(pic.slices),
                type=letter,
                temporal_reference=pic.temporal_reference,
            ):
                for sl in pic.slices:
                    payload = self.slice_payload(sl)
                    try:
                        sp = parse_slice(
                            payload, sl.vertical_position, header, mbw, mbh,
                            has_fwd,
                        )
                    except SLICE_CORRUPTION_ERRORS:
                        if not self.resilient:
                            raise
                        pcount.concealed_slices += 1
                        final[sl.vertical_position - 1] = None
                        continue
                    pcount.add(sp.counters)
                    final[sl.vertical_position - 1] = sp
            parsed.append((pic, header, final, pcount))
            if header.picture_type.is_reference:
                have_old, have_new = have_new, True

        # ---- phase 2a: one dequant + IDCT over the whole GOP -------
        assemblies = [
            assemble_picture([sp for sp in final.values() if sp is not None])
            for _, _, final, _ in parsed
        ]
        blocks_per_pic = gop_dequant_idct(assemblies, self.seq)

        # ---- phase 2b: per-picture MC + scatter, in coding order ---
        ref_old: Frame | None = None
        ref_new: Frame | None = None
        decoded: list[Frame] = []
        for (pic, header, final, pcount), asm, blocks in zip(
            parsed, assemblies, blocks_per_pic
        ):
            t0 = perf_counter()
            with trace_span(
                "decode.picture",
                type=header.picture_type.letter,
                engine=self.engine,
                temporal_reference=pic.temporal_reference,
            ):
                out = Frame.blank(self.seq.width, self.seq.height)
                out.temporal_reference = pic.temporal_reference
                if header.picture_type.is_reference:
                    fwd, bwd = ref_new, None
                else:
                    fwd, bwd = ref_old, ref_new
                with trace_span("decode.reconstruct"):
                    mc_scatter(asm, blocks, out, fwd, bwd)
                    if self.resilient:
                        lost = missing_rows(
                            out.mb_height,
                            (
                                sl.vertical_position - 1
                                for sl in pic.slices
                            ),
                        )
                        local.concealed_slices += len(lost)
                        rows = {
                            row for row, sp in final.items() if sp is None
                        }
                        conceal_rows(out, fwd, rows.union(lost))
            metrics().histogram("decode.picture_ms").observe(
                (perf_counter() - t0) * 1e3
            )
            local.add(pcount)
            if header.picture_type.is_reference:
                ref_old, ref_new = ref_new, out
            decoded.append(out)
        return decoded

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
