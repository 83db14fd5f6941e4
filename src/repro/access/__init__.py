"""Random access: seek, reverse, fast-forward, I-only trick modes.

The paper's GOP-grain parallelism rests on closed GOPs being
self-contained (Section 5.1): no coded state crosses a closed-GOP
boundary, so any closed GOP decodes bit-identically whether reached
linearly or jumped to.  This module turns that property into a
random-access subsystem: the scan index maps byte offsets and display
indices to GOP/picture coordinates (``StreamIndex.locate_offset`` /
``join_point``), and the trick modes below re-plan *which* pictures to
decode while reusing the scalar/batched engines and the multiprocess
GOP decoder unchanged: a decoder is handed the stream's own bytes and,
where it should see only some GOPs, an index *view* restricted to them
(``replace(index, gops=...)``) — never a spliced copy scanned again.

Modes (:data:`TRICK_MODES`):

``seek``
    Enter at the closed GOP owning a target display index and decode
    linearly to the end, emitting frames at or after the target.
``reverse``
    Decode GOPs last-to-first and emit each GOP's frames in reverse
    display order — global reverse playback.
``ff2`` / ``ff4``
    N-times fast-forward: process every (N/2)-th GOP and decode only
    its reference pictures (I/P).  Skipping B pictures is exact because
    B's never enter the two-slot reference chain; the emitted I/P
    frames are bit-identical to the linear decode.
``iframes``
    I-only scrub: each GOP contributes exactly its intra picture,
    decoded with no references at all.

Every mode returns ``(display_index, frame)`` pairs whose frames must
be bit-identical to ``frames[display_index]`` of a full linear decode —
the golden-vector suite pins digests per mode for the whole corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.mpeg2.constants import PictureType
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.frame import Frame
from repro.mpeg2.index import (
    GopIndex,
    StreamIndex,
    StreamIndexError,
    build_index,
)
from repro.mpeg2.kernel import reference_frames


class AccessError(Exception):
    """Raised when a trick-play request cannot be served exactly."""


class SeekError(AccessError):
    """Raised on seeks that have no exact entry point (open GOP, EOF)."""


TRICK_MODES = ("seek", "reverse", "ff2", "ff4", "iframes")

#: GOP stride per fast-forward rate: ffN plays reference pictures only,
#: visiting every (N/2)-th GOP, so ff2 sheds B's and ff4 additionally
#: skips alternate GOPs.
FF_GOP_STRIDE = {2: 1, 4: 2}


@dataclass(frozen=True)
class TrickPlan:
    """A trick-mode decode plan: which GOPs, which frames, what engine work.

    ``emissions`` lists ``(gop, display_rank)`` in emission order;
    the global display index of an emission is
    ``index.gop_display_base(gop) + display_rank``.  ``refs_only``
    marks plans whose GOPs only need their I/P chain decoded.
    """

    mode: str
    emissions: tuple[tuple[int, int], ...]
    refs_only: bool

    def gops(self) -> list[int]:
        """Distinct GOP numbers in first-emission order."""
        seen: list[int] = []
        for gop, _rank in self.emissions:
            if not seen or seen[-1] != gop:
                if gop in seen:
                    raise AccessError(f"plan revisits GOP {gop}")
                seen.append(gop)
        return seen

    def display_indices(self, index: StreamIndex) -> list[int]:
        return [
            index.gop_display_base(gop) + rank for gop, rank in self.emissions
        ]


def _require_closed(index: StreamIndex, gop: int, *, context: str) -> GopIndex:
    g = index.gops[gop]
    if not g.closed_gop:
        raise SeekError(
            f"{context}: GOP {gop} is open; exact random access needs a "
            "closed GOP (no coded state may cross the entry boundary)"
        )
    return g


def plan_trick(
    index: StreamIndex, mode: str, target: int = 0
) -> TrickPlan:
    """Build the emission plan for ``mode`` over ``index``.

    ``target`` is a display index (``seek``) and is ignored by the
    other modes.  Raises :class:`SeekError` for seeks past EOF or into
    an open GOP, :class:`AccessError` for unknown modes.
    """
    if mode == "seek":
        if not 0 <= target < index.picture_count:
            raise SeekError(
                f"seek target {target} past EOF "
                f"(stream has {index.picture_count} pictures)"
            )
        entry = index.gop_for_display_index(target)
        _require_closed(index, entry, context=f"seek to {target}")
        emissions: list[tuple[int, int]] = []
        for gop in range(entry, len(index.gops)):
            base = index.gop_display_base(gop)
            for rank in range(len(index.gops[gop].pictures)):
                if base + rank >= target:
                    emissions.append((gop, rank))
        return TrickPlan(mode=mode, emissions=tuple(emissions), refs_only=False)

    if mode == "reverse":
        emissions = []
        for gop in reversed(range(len(index.gops))):
            _require_closed(index, gop, context="reverse play")
            for rank in reversed(range(len(index.gops[gop].pictures))):
                emissions.append((gop, rank))
        return TrickPlan(mode=mode, emissions=tuple(emissions), refs_only=False)

    if mode in ("ff2", "ff4"):
        stride = FF_GOP_STRIDE[int(mode[2:])]
        emissions = []
        for gop in range(0, len(index.gops), stride):
            g = _require_closed(index, gop, context=mode)
            ranks = g.display_ranks()
            for pos in sorted(
                (p for p, pic in enumerate(g.pictures)
                 if pic.picture_type.is_reference),
                key=lambda p: ranks[p],
            ):
                emissions.append((gop, ranks[pos]))
        return TrickPlan(mode=mode, emissions=tuple(emissions), refs_only=True)

    if mode == "iframes":
        emissions = []
        for gop in range(len(index.gops)):
            g = _require_closed(index, gop, context="I-only scrub")
            for pos, pic in enumerate(g.pictures):
                if pic.picture_type is PictureType.I:
                    emissions.append((gop, g.display_ranks()[pos]))
                    break
            else:
                raise AccessError(f"GOP {gop} has no I picture")
        return TrickPlan(mode=mode, emissions=tuple(emissions), refs_only=True)

    raise AccessError(f"unknown trick mode {mode!r}; expected one of {TRICK_MODES}")


def _decode_gop_subset(
    dec: SequenceDecoder,
    gop: GopIndex,
    ranks: set[int],
    refs_only: bool,
    counters: WorkCounters | None,
) -> dict[int, Frame]:
    """Decode the frames of ``gop`` at display ranks ``ranks``.

    ``refs_only`` plans walk the I/P coding chain directly — B pictures
    are neither decoded nor charged, which is the whole point of the
    fast-forward modes — and stop as soon as every requested rank is
    in hand.  Full plans reuse the engine's GOP decode and subset it.
    """
    if not refs_only:
        frames = list(dec.decode_gop(gop, counters))
        return {rank: frames[rank] for rank in ranks}
    out: dict[int, Frame] = {}
    decoded: dict[int, Frame] = {}
    display_ranks = gop.display_ranks()
    for pos, (pic, refs) in enumerate(zip(gop.pictures, gop.references())):
        if not pic.picture_type.is_reference:
            continue
        frame = decoded[pos] = dec.decode_picture(
            pic, *reference_frames(refs, decoded), counters
        )
        if display_ranks[pos] in ranks:
            out[display_ranks[pos]] = frame
            if len(out) == len(ranks):
                break
    missing = ranks - set(out)
    if missing:
        raise AccessError(f"GOP ranks {sorted(missing)} are not reference pictures")
    return out


def trick_decode(
    data: bytes,
    mode: str,
    target: int = 0,
    index: StreamIndex | None = None,
    engine: str = "batched",
    resilient: bool = False,
    counters: WorkCounters | None = None,
) -> list[tuple[int, Frame]]:
    """Run trick mode ``mode`` with an in-process engine.

    Returns ``(display_index, frame)`` pairs in emission order; each
    frame is bit-identical to the same display index of a linear
    decode.
    """
    idx = index if index is not None else build_index(data)
    plan = plan_trick(idx, mode, target)
    dec = SequenceDecoder(data, index=idx, resilient=resilient, engine=engine)
    per_gop: dict[int, dict[int, Frame]] = {}
    for gop in plan.gops():
        ranks = {rank for g, rank in plan.emissions if g == gop}
        per_gop[gop] = _decode_gop_subset(
            dec, idx.gops[gop], ranks, plan.refs_only, counters
        )
    return [
        (idx.gop_display_base(gop) + rank, per_gop[gop][rank])
        for gop, rank in plan.emissions
    ]


def trick_decode_mp(
    data: bytes,
    mode: str,
    target: int = 0,
    index: StreamIndex | None = None,
    workers: int = 0,
    resilient: bool = False,
    counters: WorkCounters | None = None,
) -> list[tuple[int, Frame]]:
    """Run trick mode ``mode`` through the multiprocess GOP decoder.

    The selected GOPs are handed to :class:`~repro.parallel.mp.
    MPGopDecoder` as an index *view* — the stream's own bytes and scan,
    restricted to those GOPs, exactly the scan product GOP-level
    workers consume — and the emitted frames are then subset to the
    plan.  ``workers=0`` decodes in-process deterministically.
    """
    from repro.parallel.mp import MPGopDecoder

    idx = index if index is not None else build_index(data)
    plan = plan_trick(idx, mode, target)
    selected = sorted(plan.gops())
    decoded: dict[int, list[Frame]] = {}
    mp_dec = MPGopDecoder(
        data,
        index=replace(idx, gops=[idx.gops[g] for g in selected]),
        workers=workers,
        resilient=resilient,
    )
    for view_gop, frames in mp_dec.iter_gops(counters):
        decoded.setdefault(selected[view_gop], []).extend(frames)
    return [
        (idx.gop_display_base(gop) + rank, decoded[gop][rank])
        for gop, rank in plan.emissions
    ]


def default_seek_targets(index: StreamIndex) -> list[int]:
    """Deterministic seek targets used by the golden vectors and tests.

    Start, one-third, two-thirds, and last picture — deduplicated and
    filtered to targets whose entry GOP is closed (all corpus streams
    are fully closed, so nothing is filtered there).
    """
    n = index.picture_count
    targets = sorted({0, n // 3, (2 * n) // 3, n - 1})
    out = []
    for t in targets:
        if index.gops[index.gop_for_display_index(t)].closed_gop:
            out.append(t)
    return out
