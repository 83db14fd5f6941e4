"""The picture kernel: the one batched decode of a picture.

Every batched path — the sequential decoder (and so GOP tasks), slice
batches, serve tasks, the encoder's decode-back, the phase-split probe
— runs phase 1 (:func:`parse_slices`), phase 2 (:func:`reconstruct`,
into any frame view) and the conceal sweep (:func:`conceal`), as
separate calls so each keeps its phase order, traced as
``decode.parse`` and ``decode.reconstruct`` whatever the caller.
:func:`reference_table` is the one statement of the two-slot
reference rule; :func:`check_references` and :func:`check_closed`
raise the :class:`DecodeError` of a stream that breaks it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bitstream.emulation import unescape_payload
from repro.bitstream.reader import BitstreamError
from repro.mpeg2.batched import (
    SliceParse,
    bit_windows,
    parse_slice,
    reconstruct_slices,
)
from repro.mpeg2.blockcoding import BlockSyntaxError
from repro.mpeg2.constants import PictureType
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.frame import Frame
from repro.mpeg2.headers import PictureHeader, SequenceHeader
from repro.mpeg2.macroblock import SliceDecodeError
from repro.mpeg2.reconstruct import conceal_rows, missing_rows
from repro.mpeg2.vlc import VLCError
from repro.obs.trace import trace_span


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


# ======================================================================
# the reference table
# ======================================================================
def reference_table(
    types: Sequence[PictureType],
) -> list[tuple[int | None, int | None]]:
    """``(fwd, bwd)`` coding positions per picture of one GOP, from its
    picture types in coding order: a P predicts from the newer of the
    two latest I/P pictures, a B forward from the older and backward
    from the newer, an I from neither (``None``: no such picture)."""
    table: list[tuple[int | None, int | None]] = []
    ref_old: int | None = None
    ref_new: int | None = None
    for pos, ptype in enumerate(types):
        if ptype is PictureType.I:
            table.append((None, None))
        elif ptype is PictureType.P:
            table.append((ref_new, None))
        else:
            table.append((ref_old, ref_new))
        if ptype.is_reference:
            ref_old, ref_new = ref_new, pos
    return table


def reference_frames(refs: tuple[int | None, int | None], frames) -> tuple:
    """One table row's ``(fwd, bwd)`` looked up in ``frames``."""
    return tuple(None if r is None else frames[r] for r in refs)


def check_references(ptype: PictureType, has_fwd: bool, has_bwd: bool) -> None:
    """Raise :class:`DecodeError` if a picture lacks a reference it needs."""
    letter = ptype.letter
    if letter != "I" and not has_fwd:
        raise DecodeError(f"{letter}-picture without forward reference")
    if letter == "B" and not has_bwd:
        raise DecodeError("B-picture without backward reference")


def check_closed(gop) -> None:
    """Raise :class:`DecodeError` unless ``gop`` is a closed GOP."""
    if not gop.closed_gop:
        raise DecodeError(
            "GOP-level decode requires closed GOPs (paper assumption)"
        )


# ======================================================================
# the kernel
# ======================================================================
def last_in_row(rows: Sequence[int]) -> list[bool]:
    """Per slice (vertical positions in bitstream order), whether it is
    its row's last: a slice covers its whole row, so only that lands."""
    last = {row: i for i, row in enumerate(rows)}
    return [last[row] == i for i, row in enumerate(rows)]


def read_slices(
    data, slices: Sequence, finals: Sequence[bool] | None = None
) -> list[tuple[int, bytes, bool]]:
    """Phase 1's input, ``(vertical_position, payload, last in row)``
    per slice record (wire range ``payload_start:payload_end`` of
    ``data``: bytes, or an arena view of which ``bytes()`` copies just
    the slice); ``finals`` default to :func:`last_in_row`."""
    rows = [sl.vertical_position for sl in slices]
    if finals is None:
        finals = last_in_row(rows)
    payloads = (bytes(data[sl.payload_start : sl.payload_end]) for sl in slices)
    return list(zip(rows, map(unescape_payload, payloads), finals))


def parse_slices(
    coded: Sequence[tuple[int, bytes, bool]],
    header: PictureHeader,
    mb_width: int,
    mb_height: int,
    has_fwd: bool,
    resilient: bool,
    counters: WorkCounters,
    per_slice: list | None = None,
) -> tuple[list[SliceParse], list[int]]:
    """Phase 1: parse every ``coded`` slice, duplicates included, so
    ``counters`` match the scalar oracle (``per_slice`` collects
    ``(vertical_position, counters)`` per good slice).  Runs of
    slices share a window table, each parsed from its own base.  A corrupt
    slice counts one ``concealed_slices`` when ``resilient`` and raises
    otherwise.  Returns the row-last good parses and the rows whose
    last slice was corrupt."""
    parses: list[SliceParse] = []
    corrupt: list[int] = []
    with trace_span(
        "decode.parse", slices=len(coded), type=header.picture_type.letter,
        temporal_reference=header.temporal_reference,
    ):
        tables = bit_windows([payload for _vpos, payload, _final in coded])
        for (vpos, payload, final), at in zip(coded, tables):
            try:
                sp = parse_slice(
                    payload, vpos, header, mb_width, mb_height, has_fwd, at
                )
            except SLICE_CORRUPTION_ERRORS:
                if not resilient:
                    raise
                counters.concealed_slices += 1
                if final:
                    corrupt.append(vpos - 1)
                continue
            counters.add(sp.counters)
            if per_slice is not None:
                per_slice.append((vpos, sp.counters))
            if final:
                parses.append(sp)
    return parses, corrupt


def reconstruct(
    out: Frame,
    parses: list[SliceParse],
    seq: SequenceHeader,
    header: PictureHeader,
    fwd: Frame | None,
    bwd: Frame | None,
) -> None:
    """Phase 2: reconstruct ``parses`` into ``out`` (any frame view)."""
    if parses:
        with trace_span("decode.reconstruct", slices=len(parses)):
            reconstruct_slices(parses, seq, header, out, fwd, bwd)


def conceal(
    out: Frame,
    fwd: Frame | None,
    corrupt: Iterable[int],
    slices: Iterable,
    resilient: bool,
    counters: WorkCounters | None = None,
) -> tuple[int, int]:
    """The conceal sweep: the ``corrupt`` rows of ``out`` and, when
    ``resilient``, the rows none of the picture's ``slices`` covered
    (lost on the wire; each charged to ``counters``).  Returns the
    ``(temporal, spatial)`` counts."""
    lost = []
    if resilient:
        lost = missing_rows(out.mb_height, (sl.vertical_position - 1 for sl in slices))
    rows = set(corrupt).union(lost)
    if not rows:
        return 0, 0
    if counters is not None:
        counters.concealed_slices += len(lost)
    return conceal_rows(out, fwd, rows)
