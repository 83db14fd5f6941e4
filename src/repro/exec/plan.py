"""Planners: the two partitions of a scanned stream, as data.

The paper's GOP-level and slice-level decoders are one scan -> workers
-> display structure that differs only in the task queue.  This module
is where that difference lives: each planner lowers a
:class:`~repro.mpeg2.index.StreamIndex` into the units of work and the
edges between them, and the one parent loop
(:mod:`repro.exec.dispatch`) dispatches whichever it is handed.

* **GOP grain** (:func:`add_gop_chain`; over the whole stream
  :func:`plan_gop_graph`) — the paper's 1-D queue.  A node per
  picture, with its reference edges, and a GOP's nodes one *chain*
  sent to one worker as one :class:`GopTask` (the GOP's scan entry).
  Closed GOPs share no coded state, so there are **no cross-GOP
  edges**.
* **Slice grain** (:func:`scan_gop_pictures`, :func:`add_slice_picture`;
  over the whole stream :func:`scan_slice_tasks`,
  :func:`plan_slice_graph`) — the 2-D picture/slice queue.  Each
  picture is at most ``workers`` batch nodes of consecutive slices
  (parse and reconstruct fused: one node is one message) plus one
  parent-run ``publish`` node that waits for them.  A picture's
  batches carry a **ref edge** from the ``publish`` of every picture
  it predicts from (:attr:`PicturePlan.dependencies`); the *simple*
  policy adds one **barrier edge** from the previous picture's
  ``publish``, the *improved* policy adds none — which is all the two
  variants differ in.  The adder plans one picture onto a live graph,
  so a scan may plan as it goes: the simulated 2-D queue adds a
  picture at a time, the real one a GOP at a time as its frame window
  reaches the GOP.

The multi-stream service plans nothing of its own: a serve task is one
whole picture whose edges are that picture's
:attr:`PicturePlan.dependencies` — the improved slice plan's ref edges
— picked by the weighted-fair scheduler
(:mod:`repro.serve.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.exec.graph import TaskGraph, TaskNode
from repro.mpeg2.headers import PictureHeader
from repro.mpeg2.index import GopIndex, StreamIndex
from repro.mpeg2.kernel import check_closed, check_references, last_in_row


# ======================================================================
# GOP grain
# ======================================================================
@dataclass(frozen=True)
class GopTask:
    """The one message of a GOP's chain: its entry in the parent's scan
    — offsets into the one shared arena, so a worker neither copies nor
    re-scans the bytes — the coding order of its first picture, and the
    frame-pool slot of each picture by coding position, assigned when
    the chain is dispatched."""

    gop: int
    index: GopIndex
    base: int = 0
    slots: tuple[int, ...] = ()


def plan_gop_graph(index: StreamIndex) -> TaskGraph:
    """GOP-grain plan of a scanned stream: :func:`add_gop_chain` for
    every GOP, in stream order.  One chain — one message — per GOP
    whatever the team size: a round trip costs well under a millisecond
    against a GOP's tens to hundreds of milliseconds of decode, so
    grouping GOPs saves nothing."""
    graph = TaskGraph()
    for gi, gop in enumerate(index.gops):
        add_gop_chain(graph, gi, gop, graph.planned)
    return graph


def add_gop_chain(
    graph: TaskGraph, gi: int, gop: GopIndex, base: int
) -> list[TaskNode]:
    """Plan GOP ``gi`` (its first picture is coding order ``base``) onto
    a graph — live or not — as one node per picture, in coding order;
    returns them.  A node's tid is its coding order and its edges are
    its references (:attr:`PicturePlan.dependencies`, from the picture
    types); each carries the GOP's :class:`GopTask`, sent once for the
    whole chain.  Closed GOPs share no edge, so a decoder may plan a GOP
    at a time, as its frame window reaches the GOP.
    """
    task = GopTask(gi, gop, base)
    return [
        graph.add(
            TaskNode(
                base + pos, "reconstruct", gop=gi, order=base + pos,
                deps=tuple(base + r for r in refs if r is not None),
                payload=task,
            )
        )
        for pos, refs in enumerate(gop.references())
    ]


# ======================================================================
# slice grain
# ======================================================================
class SlicePlan(NamedTuple):
    """One slice task: wire byte range + static reconstruction flag.

    A named tuple ``(vertical_position, payload_start, payload_end,
    reconstruct)``: a slice task ships bare tuples, a few bytes each,
    and the worker names them again with ``SlicePlan._make``.
    ``reconstruct`` is the kernel's :func:`~repro.mpeg2.kernel.last_in_row`
    tag: ``True`` for exactly one slice per macroblock row, the
    bitstream-*last* one, so duplicated slices resolve without any
    concurrent-write hazard (every other duplicate is parse-only: its
    work counters still accrue, its pixels never land).
    """

    vertical_position: int
    payload_start: int
    payload_end: int
    reconstruct: bool


@dataclass(frozen=True)
class PicturePlan:
    """Scan product for one picture: everything a worker or the
    scheduler needs, no pixels, fully picklable."""

    #: Global coding-order number.
    order: int
    #: GOP number and coding position within it (diagnostics).
    gop: int
    #: Global display-order number across the stream.
    display_index: int
    header: PictureHeader
    #: Coding-order numbers of the forward / backward reference
    #: pictures, or ``None`` (I has neither, P no backward).
    fwd: int | None
    bwd: int | None
    slices: tuple[SlicePlan, ...]

    @property
    def dependencies(self) -> tuple[int, ...]:
        return tuple(d for d in (self.fwd, self.bwd) if d is not None)

    @property
    def is_reference(self) -> bool:
        return self.header.picture_type.is_reference


def scan_gop_pictures(gop: GopIndex, gi: int, base: int) -> list[PicturePlan]:
    """The picture plans of GOP ``gi`` (its first picture is coding
    order ``base``), in coding order.

    Validates upfront what the sequential decoder validates lazily —
    a closed GOP, references present — raising the kernel's
    :class:`~repro.mpeg2.kernel.DecodeError` with the sequential
    decoder's messages, so malformed streams are rejected identically.
    Closed GOPs keep every reference inside the GOP, so a decoder may
    build these a GOP at a time, as it reaches each GOP.
    """
    check_closed(gop)
    ranks = gop.display_ranks()
    plans: list[PicturePlan] = []
    for pos, (pic, (fwd, bwd)) in enumerate(zip(gop.pictures, gop.references())):
        check_references(pic.picture_type, fwd is not None, bwd is not None)
        finals = last_in_row([sl.vertical_position for sl in pic.slices])
        plans.append(
            PicturePlan(
                order=base + pos,
                gop=gi,
                display_index=base + ranks[pos],
                header=pic.header(),
                fwd=base + fwd if fwd is not None else None,
                bwd=base + bwd if bwd is not None else None,
                slices=tuple(
                    SlicePlan(
                        sl.vertical_position, sl.payload_start,
                        sl.payload_end, final,
                    )
                    for sl, final in zip(pic.slices, finals)
                ),
            )
        )
    return plans


def scan_slice_tasks(index: StreamIndex) -> list[PicturePlan]:
    """Flatten the whole scan index into coding-order picture plans:
    :func:`scan_gop_pictures` for every GOP, in stream order."""
    plans: list[PicturePlan] = []
    for gi, gop in enumerate(index.gops):
        plans += scan_gop_pictures(gop, gi, len(plans))
    return plans


def add_slice_picture(
    graph: TaskGraph,
    order: int,
    count: int,
    deps: Sequence[int],
    mode: str = "improved",
    workers: int = 1,
) -> tuple:
    """Plan picture ``order`` (``count`` slices, predicting from
    pictures ``deps``) onto a graph — live or not — that holds every
    earlier picture.

    It becomes batch nodes ``p<o>.s<first slice>`` of ``ceil(count /
    workers)`` consecutive slices each (payload: the slice-index range;
    one slice per node when ``workers == count``), so every worker can
    take a share of the same picture, and a ``p<o>.publish`` node that
    waits for them.  A zero-slice picture is its ``publish`` node
    alone, which then carries the picture's gating edges itself.
    Returns the batch nodes' tids, in slice order.
    """
    for d in deps:
        if not 0 <= d < order:
            raise ValueError(
                f"picture {order} depends on {d}: dependencies must "
                "be earlier in coding order"
            )
    refs = tuple(dict.fromkeys(f"p{d}.publish" for d in deps))
    previous = f"p{order - 1}.publish"
    barriers = (
        (previous,)
        if mode == "simple" and order and previous not in refs
        else ()
    )
    gate = refs + barriers
    per = -(-count // max(workers, 1))
    batches = tuple(
        graph.add(
            TaskNode(
                f"p{order}.s{start}", "reconstruct", order=order,
                deps=gate, barriers=barriers,
                payload=range(start, min(count, start + per)),
            )
        ).tid
        for start in range(0, count, per or 1)
    )
    graph.add(
        TaskNode(
            f"p{order}.publish", "publish", order=order,
            deps=batches or gate, barriers=() if batches else barriers,
        )
    )
    return batches


def plan_slice_graph(
    index: StreamIndex, mode: str = "improved", workers: int = 1
) -> TaskGraph:
    """Slice-grain plan of a scanned stream: :func:`add_slice_picture`
    for every picture of :func:`scan_slice_tasks`, in coding order — P
    waits on its forward reference's publish, B on both references', I
    on nothing (plus, under ``simple``, the per-picture barrier)."""
    graph = TaskGraph()
    for plan in scan_slice_tasks(index):
        add_slice_picture(
            graph, plan.order, len(plan.slices), plan.dependencies,
            mode, workers,
        )
    return graph
