"""Random access: seek, reverse, fast-forward, I-only trick modes.

The paper's GOP-grain parallelism rests on closed GOPs being
self-contained (Section 5.1): no coded state crosses a closed-GOP
boundary, so any closed GOP decodes bit-identically whether reached
linearly or jumped to.  This module turns that property into a
random-access subsystem: the scan index maps byte offsets and display
indices to GOP/picture coordinates (``StreamIndex.locate_offset`` /
``join_point``), and :func:`plan_trick` turns a mode into an index
*view* — the GOPs the mode visits, each narrowed to the pictures it
shows plus the I/P pictures those predict from.  Every decoder (the
scalar/batched engines, the multiprocess GOP decoder, the decode
service) runs over the stream's own bytes and that view unchanged,
and never sees a spliced copy scanned again.

Modes (:data:`TRICK_MODES`):

``seek``
    Enter at the closed GOP owning a target display index and emit
    from the target to the end, decoding the tail plus the pictures it
    predicts from.
``reverse``
    Decode GOPs last-to-first and emit each GOP's frames in reverse
    display order — global reverse playback.
``ff2`` / ``ff4``
    N-times fast-forward from the join at the target: every (N/2)-th
    GOP, its reference pictures (I/P) only.  Skipping B pictures is
    exact because B's never enter the two-slot reference chain.
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
    """A trick-mode decode plan: what to show and the index view to decode.

    ``emissions`` lists ``(gop, display_rank)`` in emission order;
    the global display index of an emission is
    ``index.gop_display_base(gop) + display_rank``.  ``view`` is the
    decode input: the source index narrowed to the GOPs the plan
    visits, in first-emission order, and within each GOP to its
    emitted pictures plus their closure under
    :meth:`~repro.mpeg2.index.GopIndex.references`.  ``sources`` is,
    per view picture in the order a decoder emits it, its source
    display index, or ``None`` for a picture decoded only to predict
    from.
    """

    mode: str
    emissions: tuple[tuple[int, int], ...]
    view: StreamIndex
    sources: tuple[int | None, ...]

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


def _plan(
    index: StreamIndex, mode: str, emissions: list[tuple[int, int]]
) -> TrickPlan:
    """The plan for ``emissions``, with its index view.

    Dropping pictures outside the reference closure leaves every kept
    picture's ``(fwd, bwd)`` unchanged — B pictures never predict, and
    a kept picture's references are kept — so every decoder run over
    the view reproduces the linear decode's pixels for the emissions.
    """
    if not emissions:
        raise AccessError(f"{mode}: the stream has nothing to show")
    shown: dict[int, set[int]] = {}
    for gop, rank in emissions:
        shown.setdefault(gop, set()).add(rank)
    gops: list[GopIndex] = []
    sources: list[int | None] = []
    for gop, ranks in shown.items():
        g = index.gops[gop]
        display_ranks = g.display_ranks()
        keep = {pos for pos, r in enumerate(display_ranks) if r in ranks}
        table = g.references()
        # References point back in coding order: one backward sweep
        # closes the set.
        for pos in reversed(range(len(g.pictures))):
            if pos in keep:
                keep.update(r for r in table[pos] if r is not None)
        coded = sorted(keep)
        gops.append(replace(g, pictures=[g.pictures[p] for p in coded]))
        base = index.gop_display_base(gop)
        for pos in sorted(coded, key=display_ranks.__getitem__):
            rank = display_ranks[pos]
            sources.append(base + rank if rank in ranks else None)
    return TrickPlan(
        mode=mode,
        emissions=tuple(emissions),
        view=replace(index, gops=gops),
        sources=tuple(sources),
    )


def plan_trick(
    index: StreamIndex, mode: str, target: int = 0
) -> TrickPlan:
    """Build the plan for ``mode`` over ``index``.

    ``target`` is a display index: ``seek`` emits from it on, the
    fast-forward modes join at the first closed GOP from the one owning
    it (``index.join_point(index.gop_for_display_index(target))``, the
    rule :class:`~repro.serve.session.StreamSession` applies to
    ``start_gop``), and ``reverse`` / ``iframes`` ignore it.
    Raises :class:`SeekError` for targets past EOF or entries into an
    open GOP, :class:`AccessError` for unknown modes.
    """
    if mode in ("seek", "ff2", "ff4"):
        if not 0 <= target < index.picture_count:
            raise SeekError(
                f"seek target {target} past EOF "
                f"(stream has {index.picture_count} pictures)"
            )
        entry = index.gop_for_display_index(target)

    if mode == "seek":
        _require_closed(index, entry, context=f"seek to {target}")
        emissions: list[tuple[int, int]] = []
        for gop in range(entry, len(index.gops)):
            base = index.gop_display_base(gop)
            for rank in range(len(index.gops[gop].pictures)):
                if base + rank >= target:
                    emissions.append((gop, rank))
        return _plan(index, mode, emissions)

    if mode == "reverse":
        emissions = []
        for gop in reversed(range(len(index.gops))):
            _require_closed(index, gop, context="reverse play")
            for rank in reversed(range(len(index.gops[gop].pictures))):
                emissions.append((gop, rank))
        return _plan(index, mode, emissions)

    if mode in ("ff2", "ff4"):
        stride = FF_GOP_STRIDE[int(mode[2:])]
        try:
            join = index.join_point(entry) if entry else 0
        except StreamIndexError as exc:
            raise SeekError(f"{mode} from {target}: {exc}") from None
        emissions = []
        for gop in range(join, len(index.gops), stride):
            g = _require_closed(index, gop, context=mode)
            emissions.extend(
                (gop, rank)
                for rank, pic in zip(g.display_ranks(), g.pictures)
                if pic.picture_type.is_reference
            )
        return _plan(index, mode, emissions)

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
        return _plan(index, mode, emissions)

    raise AccessError(f"unknown trick mode {mode!r}; expected one of {TRICK_MODES}")


def _shown(
    plan: TrickPlan, index: StreamIndex, frames: list[Frame]
) -> list[tuple[int, Frame]]:
    """A decode of ``plan.view`` as ``(source display index, frame)``
    pairs in emission order."""
    by_source = {
        d: frame for d, frame in zip(plan.sources, frames, strict=True)
        if d is not None
    }
    return [(d, by_source[d]) for d in plan.display_indices(index)]


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
    dec = SequenceDecoder(data, index=plan.view, resilient=resilient, engine=engine)
    return _shown(plan, idx, dec.decode_all(counters))


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

    The decoder gets the plan's index view — the scan product GOP-level
    workers consume, narrowed to what the plan shows and predicts from.
    ``workers=0`` decodes in-process deterministically.
    """
    from repro.parallel.mp import MPGopDecoder

    idx = index if index is not None else build_index(data)
    plan = plan_trick(idx, mode, target)
    dec = MPGopDecoder(data, index=plan.view, workers=workers, resilient=resilient)
    return _shown(plan, idx, dec.decode_all(counters))


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
