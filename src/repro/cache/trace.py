"""Memory-reference trace generation from the instrumented decoder.

:class:`AccessRecorder` receives the logical access events the
macroblock layer emits (see ``PictureCodingContext.trace``);
:class:`AddressSpaceLayout` resolves them to word-granular addresses
over a realistic data layout: the compressed stream buffer, the shared
VLC/quantization tables, per-processor private coefficient buffers,
and a rotating pool of frame stores holding references and the output
picture.  Word granularity (4-byte) matters: the spatial-locality
result (Fig. 13 — miss rate halves per line-size doubling) only
emerges if sequential runs are visible to the cache at sub-line size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.kernel import reference_frames

WORD = 4
TABLE_REGION_BYTES = 8192
COEFF_REGION_BYTES = 1024


class AccessRecorder:
    """Collects the logical access events of one slice decode."""

    __slots__ = ("events", "_stream_offset")

    def __init__(self, stream_offset: int = 0) -> None:
        self.events: list[tuple] = []
        self._stream_offset = stream_offset

    # duck-typed interface called from repro.mpeg2.macroblock ----------
    def stream_read(self, nbytes: int) -> None:
        self.events.append(("stream", self._stream_offset, nbytes))
        self._stream_offset += nbytes

    def table_lookups(self, n: int) -> None:
        if n > 0:
            self.events.append(("tables", n))

    def coeff_blocks(self, n_blocks: int) -> None:
        self.events.append(("coeffs", n_blocks))

    def ref_read(self, which: str, plane: str, y: int, x: int, h: int, w: int) -> None:
        self.events.append(("ref", which, plane, y, x, h, w))

    def out_write(self, plane: str, y: int, x: int, h: int, w: int) -> None:
        self.events.append(("out", plane, y, x, h, w))


@dataclass(frozen=True)
class _PlaneRegion:
    base: int
    stride: int
    height: int


@dataclass
class AddressSpaceLayout:
    """Simulated address space of the decoder's data structures."""

    coded_width: int
    coded_height: int
    stream_bytes: int
    processors: int
    frame_buffers: int = 4

    stream_base: int = 0
    tables_base: int = field(init=False)
    coeff_bases: list[int] = field(init=False)
    _planes: dict[tuple[int, str], _PlaneRegion] = field(init=False)
    total_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        cursor = _align(self.stream_base + self.stream_bytes)
        self.tables_base = cursor
        cursor = _align(cursor + TABLE_REGION_BYTES)
        self.coeff_bases = []
        for _ in range(self.processors):
            self.coeff_bases.append(cursor)
            cursor = _align(cursor + COEFF_REGION_BYTES)
        self._planes = {}
        cw, ch = self.coded_width, self.coded_height
        for b in range(self.frame_buffers):
            for plane, (w, h) in (
                ("y", (cw, ch)),
                ("cb", (cw // 2, ch // 2)),
                ("cr", (cw // 2, ch // 2)),
            ):
                self._planes[(b, plane)] = _PlaneRegion(
                    base=cursor, stride=w, height=h
                )
                cursor = _align(cursor + w * h)
        self.total_bytes = cursor

    def plane(self, buffer_id: int, plane: str) -> _PlaneRegion:
        return self._planes[(buffer_id, plane)]

    # ------------------------------------------------------------------
    # event expansion (word-granular address arrays)
    # ------------------------------------------------------------------
    def rect_words(
        self, buffer_id: int, plane: str, y: int, x: int, h: int, w: int
    ) -> np.ndarray:
        region = self.plane(buffer_id, plane)
        x0 = (x // WORD) * WORD
        cols = np.arange(x0, x + w, WORD, dtype=np.int64)
        rows = (y + np.arange(h, dtype=np.int64)) * region.stride
        return (region.base + rows[:, None] + cols[None, :]).ravel()

    def stream_words(self, offset: int, nbytes: int) -> np.ndarray:
        start = (offset // WORD) * WORD
        return self.stream_base + np.arange(
            start, offset + nbytes, WORD, dtype=np.int64
        )

    def table_words(self, n: int) -> np.ndarray:
        # Table lookups hit a small hot region; a strided walk touches
        # several of its lines with heavy reuse across macroblocks.
        k = np.arange(n, dtype=np.int64)
        return self.tables_base + (k * 68) % TABLE_REGION_BYTES // WORD * WORD

    def coeff_words(self, processor: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """(addresses, is_write) of coefficient-buffer traffic.

        Each coded block writes its 64 x 2-byte levels then reads them
        back for inverse quantization + IDCT.
        """
        words_per_block = 64 * 2 // WORD
        base = self.coeff_bases[processor]
        one = base + np.arange(words_per_block, dtype=np.int64) * WORD
        addrs = np.concatenate([one, one])  # write pass, read pass
        writes = np.zeros(2 * words_per_block, dtype=bool)
        writes[:words_per_block] = True
        if n_blocks == 1:
            return addrs, writes
        return np.tile(addrs, n_blocks), np.tile(writes, n_blocks)


def _align(addr: int, boundary: int = 4096) -> int:
    return (addr + boundary - 1) // boundary * boundary


@dataclass
class MemoryTrace:
    """A word-granular multi-processor reference trace."""

    addr: np.ndarray  # int64 byte addresses (word aligned)
    write: np.ndarray  # bool
    proc: np.ndarray  # int16 processor ids
    processors: int
    layout: AddressSpaceLayout

    def __len__(self) -> int:
        return len(self.addr)

    @property
    def read_count(self) -> int:
        return int((~self.write).sum())

    @property
    def write_count(self) -> int:
        return int(self.write.sum())


def _expand_slice_events(
    recorder: AccessRecorder,
    layout: AddressSpaceLayout,
    processor: int,
    buffers: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve one slice's events to (addr, write) arrays."""
    addr_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []

    def emit(addrs: np.ndarray, is_write: bool) -> None:
        addr_parts.append(addrs)
        write_parts.append(np.full(len(addrs), is_write, dtype=bool))

    for ev in recorder.events:
        kind = ev[0]
        if kind == "stream":
            emit(layout.stream_words(ev[1], ev[2]), False)
        elif kind == "tables":
            emit(layout.table_words(ev[1]), False)
        elif kind == "coeffs":
            addrs, writes = layout.coeff_words(processor, ev[1])
            addr_parts.append(addrs)
            write_parts.append(writes)
        elif kind == "ref":
            _, which, plane, y, x, h, w = ev
            emit(layout.rect_words(buffers[which], plane, y, x, h, w), False)
        elif kind == "out":
            _, plane, y, x, h, w = ev
            emit(layout.rect_words(buffers["out"], plane, y, x, h, w), True)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown event kind {kind!r}")
    if not addr_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    return np.concatenate(addr_parts), np.concatenate(write_parts)


def _interleave(
    per_proc: list[tuple[np.ndarray, np.ndarray]], chunk: int = 64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin merge of per-processor streams in ``chunk`` units.

    Models the concurrent progress of workers decoding slices of the
    same picture: their reference streams interleave at fine grain.
    """
    addr_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    proc_parts: list[np.ndarray] = []
    offsets = [0] * len(per_proc)
    live = True
    while live:
        live = False
        for p, (addrs, writes) in enumerate(per_proc):
            o = offsets[p]
            if o >= len(addrs):
                continue
            live = True
            end = min(o + chunk, len(addrs))
            addr_parts.append(addrs[o:end])
            write_parts.append(writes[o:end])
            proc_parts.append(np.full(end - o, p, dtype=np.int16))
            offsets[p] = end
    if not addr_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool), np.empty(0, dtype=np.int16)
    return (
        np.concatenate(addr_parts),
        np.concatenate(write_parts),
        np.concatenate(proc_parts),
    )


def generate_decode_trace(
    data: bytes,
    processors: int = 1,
    max_pictures: int | None = None,
    frame_buffers: int = 4,
    assignment: str = "static",
) -> MemoryTrace:
    """Decode ``data`` and capture its memory-reference trace.

    With ``processors > 1`` the trace models the slice-level parallel
    decoder: slices of each picture are assigned to processors and
    their access streams interleave (the configuration of the paper's
    Figs. 13-15 right-hand panels).  With one processor it models the
    GOP-level worker (left-hand panels).

    ``assignment`` controls task-to-processor locality — the question
    the paper raises in Section 7.2 ("we make no attempt to ensure that
    the processor decoding a given slice is also assigned slices from
    later frames which reference that slice"):

    * ``"static"`` — slice row r always goes to processor ``r % P``,
      so motion-compensation reads mostly hit lines the same processor
      wrote in the reference picture;
    * ``"rotating"`` — the mapping shifts every picture, destroying
      producer-consumer locality and raising sharing misses.
    """
    if assignment not in ("static", "rotating"):
        raise ValueError(f"unknown assignment policy {assignment!r}")
    decoder = SequenceDecoder(data)
    seq = decoder.seq
    layout = AddressSpaceLayout(
        coded_width=((seq.width + 15) // 16) * 16,
        coded_height=((seq.height + 15) // 16) * 16,
        stream_bytes=len(data),
        processors=processors,
        frame_buffers=frame_buffers,
    )

    addr_all: list[np.ndarray] = []
    write_all: list[np.ndarray] = []
    proc_all: list[np.ndarray] = []
    stream_offset = 0
    decoded = 0

    for gop in decoder.index.gops:
        # Per coding position: the decoded frame and the frame buffer
        # it lives in (the lowest one not holding one of its refs).
        frames: list = []
        bufs: list[int] = []
        for pic, refs in zip(gop.pictures, gop.references()):
            if max_pictures is not None and decoded >= max_pictures:
                break
            fwd, bwd = reference_frames(refs, frames)
            fwd_b, bwd_b = reference_frames(refs, bufs)
            out_buf = min(
                b for b in range(layout.frame_buffers) if b not in (fwd_b, bwd_b)
            )
            ctx = decoder.make_context(pic, fwd, bwd)
            per_proc: list[list[tuple[np.ndarray, np.ndarray]]] = [
                [] for _ in range(processors)
            ]
            buffers = {"fwd": fwd_b, "bwd": bwd_b, "out": out_buf}
            for si, sl in enumerate(pic.slices):
                recorder = AccessRecorder(stream_offset=stream_offset)
                ctx.trace = recorder
                from repro.mpeg2.macroblock import decode_slice

                decode_slice(decoder.slice_payload(sl), sl.vertical_position, ctx)
                shift = decoded if assignment == "rotating" else 0
                p = (si + shift) % processors
                per_proc[p].append(
                    _expand_slice_events(recorder, layout, p, buffers)
                )
                stream_offset += sl.payload_end - sl.payload_start
            merged = [
                (
                    np.concatenate([a for a, _ in chunks])
                    if chunks
                    else np.empty(0, dtype=np.int64),
                    np.concatenate([w for _, w in chunks])
                    if chunks
                    else np.empty(0, dtype=bool),
                )
                for chunks in per_proc
            ]
            a, w, p = _interleave(merged)
            addr_all.append(a)
            write_all.append(w)
            proc_all.append(p)
            decoded += 1
            frames.append(ctx.out)
            bufs.append(out_buf)
        else:
            continue
        break

    return MemoryTrace(
        addr=np.concatenate(addr_all),
        write=np.concatenate(write_all),
        proc=np.concatenate(proc_all),
        processors=processors,
        layout=layout,
    )
