"""Scan-built stream index: the data structure the scan process makes.

The paper's scan process reads the stream, finds start codes, and
builds the task queues — GOP tasks for the coarse-grained decoder,
picture/slice tasks for the fine-grained one — *without decoding*,
beside the workers, while they decode (Section 5.1, Table 2).
:class:`IndexCursor` is that operation as a stage: it locates every
sequence / GOP / picture / slice boundary one GOP at a time, from a
bounded window that starts at the GOP's start code, so a decoder pulls
GOP ``k`` when its frame window reaches GOP ``k`` and picture 0 waits
for GOP 0's scan only.  :func:`cursor_index` is a :class:`StreamIndex`
whose GOPs are pulled off a cursor as they are read (the sequential
decoder's), and :func:`build_index` the drained cursor: the whole
stream's :class:`StreamIndex`, for the tools and tests that want it at
once.  Picture headers (a few bytes each) are additionally
parsed for the temporal reference and picture type; the paper notes
the scan process can read the type field to construct closed tasks.

Byte counts recorded here feed the scan-rate model (Table 2) and the
memory model (Figs. 8-9).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

from repro.bitstream import (
    GROUP_START_CODE,
    PICTURE_START_CODE,
    SEQUENCE_END_CODE,
    SEQUENCE_HEADER_CODE,
    SLICE_START_CODE_MAX,
    SLICE_START_CODE_MIN,
    StartCodeHit,
    find_start_codes,
)
from repro.bitstream.emulation import unescape_payload
from repro.bitstream.reader import BitReader
from repro.mpeg2.constants import PictureType, mb_ceil
from repro.mpeg2.headers import GopHeader, PictureHeader, SequenceHeader
from repro.mpeg2.kernel import reference_table


class StreamIndexError(Exception):
    """Raised on streams whose layering is malformed."""


@dataclass
class SliceIndex:
    """One slice: vertical position + wire byte range of its payload."""

    vertical_position: int
    payload_start: int
    payload_end: int

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire including the 4-byte start code."""
        return (self.payload_end - self.payload_start) + 4


@dataclass
class PictureIndex:
    """One picture: header info + its slices."""

    picture_type: PictureType
    temporal_reference: int
    forward_f_code: int
    backward_f_code: int
    alternate_scan: bool
    header_payload_start: int
    header_payload_end: int
    slices: list[SliceIndex] = field(default_factory=list)

    @property
    def start_offset(self) -> int:
        """Wire offset of the picture start code."""
        return self.header_payload_start - 4

    @property
    def end_offset(self) -> int:
        return self.slices[-1].payload_end if self.slices else self.header_payload_end

    @property
    def wire_bytes(self) -> int:
        return self.end_offset - self.start_offset

    @property
    def header_bits(self) -> int:
        """Bits of the header, start code included (counter parity)."""
        return (self.header_payload_end - self.header_payload_start + 4) * 8

    def header(self) -> PictureHeader:
        return PictureHeader(
            temporal_reference=self.temporal_reference,
            picture_type=self.picture_type,
            forward_f_code=self.forward_f_code,
            backward_f_code=self.backward_f_code,
            alternate_scan=self.alternate_scan,
        )


@dataclass
class GopIndex:
    """One group of pictures: header flags + its pictures."""

    closed_gop: bool
    broken_link: bool
    header_payload_start: int
    header_payload_end: int
    pictures: list[PictureIndex] = field(default_factory=list)

    @property
    def start_offset(self) -> int:
        return self.header_payload_start - 4

    @property
    def end_offset(self) -> int:
        return self.pictures[-1].end_offset if self.pictures else self.header_payload_end

    @property
    def wire_bytes(self) -> int:
        return self.end_offset - self.start_offset

    @property
    def header_bits(self) -> int:
        """Bits of the header, start code included (counter parity)."""
        return (self.header_payload_end - self.header_payload_start + 4) * 8

    def display_order(self) -> list[int]:
        """Positions (coding order) sorted by temporal reference."""
        return sorted(
            range(len(self.pictures)),
            key=lambda i: self.pictures[i].temporal_reference,
        )

    def display_ranks(self) -> list[int]:
        """Display rank of each coding position (inverse of display_order)."""
        ranks = [0] * len(self.pictures)
        for rank, pos in enumerate(self.display_order()):
            ranks[pos] = rank
        return ranks

    def references(self) -> list[tuple[int | None, int | None]]:
        """``(fwd, bwd)`` coding positions per picture: the kernel's
        :func:`~repro.mpeg2.kernel.reference_table` over this GOP — the
        scan product the picture/slice task queue is built from (paper
        Section 5.2: the scan process reads picture types to construct
        dependency-closed tasks)."""
        return reference_table([pic.picture_type for pic in self.pictures])

    def reference_intervals(self) -> list[range]:
        """Coding positions cut into *reference intervals*: a reference
        picture plus the B pictures after it in coding order, so
        ``I0 P3 B1 B2 P6 B4 B5`` gives ``{I0}``, ``{P3 B1 B2}``,
        ``{P6 B4 B5}`` — the unit the streamed GOP decode works in."""
        starts = [
            pos
            for pos, pic in enumerate(self.pictures)
            if pos == 0 or pic.picture_type.is_reference
        ]
        ends = starts[1:] + [len(self.pictures)]
        return [range(a, b) for a, b in zip(starts, ends)]


@dataclass
class StreamIndex:
    """The complete scan product for one coded video sequence.

    ``gops`` is a list, or — from :func:`cursor_index` — a
    :class:`PulledGops` that scans each GOP when it is first read.
    """

    sequence_header: SequenceHeader
    gops: Sequence[GopIndex]
    total_bytes: int

    @property
    def picture_count(self) -> int:
        return sum(len(g.pictures) for g in self.gops)

    @property
    def slice_count(self) -> int:
        return sum(len(p.slices) for g in self.gops for p in g.pictures)

    @property
    def slices_per_picture(self) -> int:
        """Slices in the first picture (uniform in our streams)."""
        return len(self.gops[0].pictures[0].slices)

    @property
    def mb_width(self) -> int:
        return mb_ceil(self.sequence_header.width)

    @property
    def mb_height(self) -> int:
        return mb_ceil(self.sequence_header.height)

    # ------------------------------------------------------------------
    # Random access: byte offsets <-> (GOP, picture), join points
    # ------------------------------------------------------------------
    def gop_display_base(self, gop: int) -> int:
        """Display index of the first picture of GOP ``gop``.

        Closed GOPs partition display order into contiguous blocks, so
        GOP ``g`` owns display indices ``[base, base + len(pictures))``.
        """
        if not 0 <= gop < len(self.gops):
            raise StreamIndexError(f"GOP {gop} out of range (stream has {len(self.gops)})")
        return sum(len(g.pictures) for g in self.gops[:gop])

    def locate_offset(self, offset: int) -> tuple[int, int]:
        """Map a byte offset to the ``(gop, coding_position)`` covering it.

        ``offset`` may land anywhere inside a GOP's wire range — a GOP
        or picture header, a slice payload — and resolves to the GOP
        that contains it and the coding position of the picture whose
        bytes cover it (position 0 when the offset falls in the GOP
        header itself).  Offsets before the first GOP resolve to
        ``(0, 0)``; offsets at or past ``total_bytes`` raise.
        """
        if offset < 0 or offset >= self.total_bytes:
            raise StreamIndexError(
                f"offset {offset} outside stream of {self.total_bytes} bytes"
            )
        gop = 0
        for i, g in enumerate(self.gops):
            if offset < g.start_offset:
                break
            gop = i
        g = self.gops[gop]
        pos = 0
        for i, p in enumerate(g.pictures):
            if offset < p.start_offset:
                break
            pos = i
        return gop, pos

    def gop_for_display_index(self, display_index: int) -> int:
        """GOP number owning display index ``display_index``."""
        if not 0 <= display_index < self.picture_count:
            raise StreamIndexError(
                f"display index {display_index} outside stream of "
                f"{self.picture_count} pictures"
            )
        base = 0
        for i, g in enumerate(self.gops):
            if display_index < base + len(g.pictures):
                return i
            base += len(g.pictures)
        raise StreamIndexError(f"display index {display_index} unmapped")

    def join_point(self, position: int) -> int:
        """Earliest closed GOP at or after GOP number ``position``.

        This is the admission rule for mid-stream join and seek: a
        session may only enter the stream at a closed GOP because no
        coded state crosses a closed-GOP boundary (paper Section 5.1),
        so frames decoded from the join point are bit-identical to the
        linear decode.  Raises :class:`StreamIndexError` when
        ``position`` is past EOF or no closed GOP remains.
        """
        if position < 0 or position >= len(self.gops):
            raise StreamIndexError(
                f"join point {position} past EOF (stream has {len(self.gops)} GOPs)"
            )
        for g in range(position, len(self.gops)):
            if self.gops[g].closed_gop:
                return g
        raise StreamIndexError(
            f"no closed GOP at or after GOP {position}; cannot join"
        )


def sequence_prefix(data: bytes, index: StreamIndex) -> bytes:
    """The stream's leading bytes up to the first GOP start code.

    Contains the sequence header (dimensions, frame rate, bit rate) —
    the global state every decoder needs before it can decode *any*
    GOP.  Prefix + whole GOPs is a stand-alone stream (how the tests
    and the bench tile clips); decoders never splice — they take the
    stream's own bytes and ``replace(index, gops=...)``.
    """
    if not index.gops:
        raise StreamIndexError("stream contains no GOPs")
    return data[: index.gops[0].start_offset]


#: Bytes of the scan's first window.  Later windows are as long as the
#: last GOP, and double while a GOP has not ended inside them.
SCAN_WINDOW = 1 << 16

#: A start code with its payload's end: ``((offset, code), end)``.
_Hit = tuple[StartCodeHit, int]


class IndexCursor:
    """The scan process as a cursor: the stream's GOPs, one at a time.

    Construction reads the *sequence prefix* — every start code before
    the first GOP — and keeps its :class:`SequenceHeader`.  Iterating
    yields one :class:`GopIndex` per GOP, in stream order, scanning
    :func:`find_start_codes` windows only as far as the GOP needs (a
    window about one GOP long, restarting at the last start code found),
    so indexing GOP ``k`` reads the bytes up to GOP ``k``'s end and at
    most about one GOP past it, never the rest of the stream.  Every
    iteration scans afresh from the first GOP.

    A window that starts at a start code finds exactly the whole-stream
    scan's hits in it, so the GOPs equal the whole-stream index's and a
    malformed stream raises the same :class:`StreamIndexError`, with the
    same message — when the cursor reaches the GOP that holds the fault
    (a fault in the prefix raises at construction).

    ``window`` sets the first GOP window, in bytes (by default the
    windows go on doubling from the prefix's); :func:`build_index`
    passes the stream's length, so the drained cursor is one NumPy pass.
    """

    def __init__(self, data: bytes, window: int | None = None) -> None:
        self.data = data
        self._window = SCAN_WINDOW
        seq: SequenceHeader | None = None
        for (offset, code), end in self._hits(0):
            if seq is None and code != SEQUENCE_HEADER_CODE:
                break
            if SLICE_START_CODE_MIN <= code <= SLICE_START_CODE_MAX:
                raise StreamIndexError("slice outside any picture")
            if code == PICTURE_START_CODE:
                raise StreamIndexError("picture outside any GOP")
            if code == GROUP_START_CODE:
                self.sequence_header: SequenceHeader = seq
                self._first_gop = offset
                if window is not None:
                    self._window = window
                return
            if code == SEQUENCE_END_CODE:
                break
            if code != SEQUENCE_HEADER_CODE:
                raise StreamIndexError(f"unexpected start code 0x{code:02X}")
            if seq is not None:
                raise StreamIndexError("repeated sequence header unsupported")
            seq = SequenceHeader.read(
                BitReader(unescape_payload(data[offset + 4 : end]))
            )
        if seq is None:
            raise StreamIndexError("stream does not begin with a sequence header")
        raise StreamIndexError("stream contains no GOPs")

    def __iter__(self) -> Iterator[GopIndex]:
        hits = self._hits(self._first_gop)
        head: _Hit | None = next(hits)
        while head is not None:
            gop, head = self._gop(head, hits)
            self._window = max(SCAN_WINDOW, gop.wire_bytes)
            yield gop

    def _hits(self, start: int) -> Iterator[_Hit]:
        """Every start code from ``start`` (a start code, or 0) on, with
        its payload's end (the next start code, or the end of the data),
        scanned a window at a time as they are asked for."""
        return chain.from_iterable(self._windows(start))

    def _windows(self, start: int) -> Iterator[Iterator[_Hit]]:
        data, n = self.data, len(self.data)
        last: StartCodeHit | None = None
        end = start
        while end < n:
            # A window that starts at a start code sees exactly the
            # whole-stream scan's hits, so each one restarts at the last
            # start code found, and nothing but it is scanned twice.  The
            # last hit of a window waits for the next one's first: its
            # payload ends there.
            end = min(n, end + self._window)
            self._window *= 2
            found = find_start_codes(data, last.offset if last else start, end)
            if found:
                last = found[-1]
                yield zip(found, [hit.offset for hit in found[1:]])
        if last is not None:
            yield iter([(last, n)])

    def _gop(
        self, head: _Hit, hits: Iterator[_Hit]
    ) -> tuple[GopIndex, _Hit | None]:
        """Index the GOP whose start code is ``head``, reading its start
        codes off ``hits``; returns it and the next GOP's start code
        (``None`` at the stream's end)."""
        data = self.data
        (start, _), end = head
        gh = GopHeader.read(
            BitReader(unescape_payload(data[start + 4 : end])),
            self.sequence_header.frame_rate,
        )
        gop = GopIndex(
            closed_gop=gh.closed_gop,
            broken_link=gh.broken_link,
            header_payload_start=start + 4,
            header_payload_end=end,
        )
        pic: PictureIndex | None = None
        for hit in hits:
            (offset, code), end = hit
            payload = offset + 4
            # Slices are nearly every hit: test for them first.
            if SLICE_START_CODE_MIN <= code <= SLICE_START_CODE_MAX:
                if pic is None:
                    raise StreamIndexError("slice outside any picture")
                pic.slices.append(SliceIndex(code, payload, end))
            elif code == PICTURE_START_CODE:
                ph = PictureHeader.read(
                    BitReader(unescape_payload(data[payload:end]))
                )
                pic = PictureIndex(
                    picture_type=ph.picture_type,
                    temporal_reference=ph.temporal_reference,
                    forward_f_code=ph.forward_f_code,
                    backward_f_code=ph.backward_f_code,
                    alternate_scan=ph.alternate_scan,
                    header_payload_start=payload,
                    header_payload_end=end,
                )
                gop.pictures.append(pic)
            elif code == GROUP_START_CODE:
                return gop, hit
            elif code == SEQUENCE_END_CODE:
                break
            elif code == SEQUENCE_HEADER_CODE:
                raise StreamIndexError("repeated sequence header unsupported")
            else:
                raise StreamIndexError(f"unexpected start code 0x{code:02X}")
        return gop, None


class PulledGops(Sequence[GopIndex]):
    """A stream's GOPs, scanned off an :class:`IndexCursor` as they are
    first read and kept: reading GOP ``k`` scans up to GOP ``k`` only,
    and iterating yields each GOP as soon as it is scanned.  ``len()``,
    a negative index and a slice scan the rest of the stream.

    A scan fault is kept and raised again by every later read that
    needs a GOP past it: the cursor's generator is finished once it has
    raised, and would otherwise read as the stream's end.
    """

    def __init__(self, cursor: IndexCursor) -> None:
        self._scan: Iterator[GopIndex] | None = iter(cursor)
        self._gops: list[GopIndex] = []
        self._fault: Exception | None = None

    @property
    def scanned(self) -> int:
        """GOPs scanned so far."""
        return len(self._gops)

    def _more(self) -> bool:
        """Scan one more GOP; false at the stream's end."""
        if self._fault is not None:
            raise self._fault
        if self._scan is None:
            return False
        try:
            gop = next(self._scan, None)
        except Exception as fault:
            self._fault = fault
            raise
        if gop is None:
            self._scan = None
            return False
        self._gops.append(gop)
        return True

    def _drained(self) -> list[GopIndex]:
        while self._more():
            pass
        return self._gops

    def __iter__(self) -> Iterator[GopIndex]:
        i = 0
        while i < len(self._gops) or self._more():
            yield self._gops[i]
            i += 1

    def __len__(self) -> int:
        return len(self._drained())

    def __getitem__(self, i):
        if isinstance(i, slice) or i < 0:
            return self._drained()[i]
        while i >= len(self._gops) and self._more():
            pass
        return self._gops[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def cursor_index(data: bytes) -> StreamIndex:
    """The stream's :class:`StreamIndex`, scanned as it is read: the
    sequence prefix now (a fault in it raises here), each GOP when
    :class:`PulledGops` is first asked for it."""
    cursor = IndexCursor(data)
    return StreamIndex(cursor.sequence_header, PulledGops(cursor), len(data))


def build_index(data: bytes) -> StreamIndex:
    """The whole stream's :class:`StreamIndex`: the drained
    :class:`IndexCursor`.

    This is the computational content of the paper's scan process; its
    cost model charges cycles per byte scanned (Table 2).  The decoders
    pull the cursor a GOP at a time instead.
    """
    cursor = IndexCursor(data, window=len(data))
    return StreamIndex(cursor.sequence_header, list(cursor), len(data))


@contextmanager
def scan_faults_first(gops: Iterable[GopIndex]) -> Iterator[None]:
    """Report a decode's failure as a whole-stream scan would.

    A decode fails at the first fault it reaches, but the verdict on a
    stream is the one a decoder that scanned it all before decoding
    would give: a malformed GOP anywhere.  On a failure inside the
    block the rest of ``gops`` (the decode's scan) is read, and a scan
    fault found there is raised in the decode's place."""
    try:
        yield
    except Exception as exc:
        try:
            for _gop in gops:
                pass
        except Exception as fault:
            if fault is not exc:
                raise fault from exc
        raise
