"""Cross-boundary trace propagation: one timeline across the socket.

PR-3 gave every process a Chrome-trace tracer and PR-7 put the decoder
on a wire — but a picture's life now spans two processes and none of it
lines up in one view.  This module is the glue:

* ``new_trace_id`` mints the id a client sends in ``HELLO`` and the
  server echoes in ``ACCEPT`` so both sides tag their spans with the
  same session identity.
* ``ClockSync`` is the NTP-style two-timestamp handshake: the client
  stamps ``t_ns`` into HELLO, the server stamps receive/send times into
  ACCEPT, and the client stamps arrival.  ``offset_ns`` estimates
  ``server_clock - client_clock`` with error bounded by ``rtt_ns / 2``.
  On one host both sides read the same CLOCK_MONOTONIC, so the estimate
  collapses to ~0 and the rtt bound is the honest uncertainty.
* ``merge_traces`` joins independently exported Chrome docs (each
  carrying the ``baseTimeNs`` absolute timebase written by
  ``Tracer.to_chrome``) into ONE doc, shifting every client shard onto
  the server clock by the offset recorded in its ``clock.sync`` event.
* ``validate_joins`` proves the stitch: every client per-picture span
  must join a server wire span for the same ``(session, pic)``.
* ``waterfall`` aggregates the per-picture end-to-end stages
  (``decode → pace → wire → reassemble → conceal → deadline``) into the
  latency table obs_report prints in ``--merged`` mode.

Everything here is pure functions over trace documents — no sockets,
no clocks read at merge time — so the whole layer is testable from
committed fixtures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .metrics import percentile
from .trace import to_chrome

# Category shared by every cross-boundary span so obs_report can pick
# the end-to-end story out of a trace that also holds kernel spans.
E2E_CATEGORY = "e2e"

# Server-side per-picture stages.
SPAN_DECODE = "e2e.decode"  # submit/prev-ready -> frame ready at the sink
SPAN_PACE = "e2e.pace"  # sink ready -> display-rate send slot
SPAN_WIRE = "e2e.wire"  # first SLICE write -> PIC_DONE written

# Client-side per-picture stages.
SPAN_REASSEMBLE = "e2e.reassemble"  # first band arrival -> picture committed
SPAN_CONCEAL = "e2e.conceal"  # concealment of rows lost on the wire

# Client-side instants.
EVENT_DEADLINE = "e2e.deadline"  # display deadline hit; args carry late_ms
EVENT_CLOCK_SYNC = "clock.sync"  # handshake result; args carry offset/rtt

# Ordered stages of the per-picture waterfall (server then client).
WATERFALL_STAGES = (
    SPAN_DECODE,
    SPAN_PACE,
    SPAN_WIRE,
    SPAN_REASSEMBLE,
    SPAN_CONCEAL,
)


def new_trace_id() -> str:
    """Mint a 16-hex-char trace id for one client session."""

    return os.urandom(8).hex()


@dataclass(frozen=True)
class ClockSync:
    """Two-timestamp clock-offset handshake (client perspective).

    ``t_client_send_ns`` is stamped into HELLO, the server echoes its
    receive/send monotonic times in ACCEPT, and ``t_client_recv_ns`` is
    stamped when ACCEPT lands.  Standard NTP algebra then bounds the
    offset estimate by half the round trip.
    """

    t_client_send_ns: int
    t_server_recv_ns: int
    t_server_send_ns: int
    t_client_recv_ns: int

    @property
    def offset_ns(self) -> int:
        """Estimated ``server_clock - client_clock`` in nanoseconds."""

        forward = self.t_server_recv_ns - self.t_client_send_ns
        backward = self.t_server_send_ns - self.t_client_recv_ns
        return (forward + backward) // 2

    @property
    def rtt_ns(self) -> int:
        """Round-trip time excluding server hold time; always >= 0."""

        total = self.t_client_recv_ns - self.t_client_send_ns
        held = self.t_server_send_ns - self.t_server_recv_ns
        return max(0, total - held)

    @property
    def error_bound_ns(self) -> int:
        """Worst-case ``|true offset - offset_ns|``: half the rtt."""

        return self.rtt_ns // 2 + 1

    def to_json(self) -> dict[str, int]:
        return {
            "offset_ns": self.offset_ns,
            "rtt_ns": self.rtt_ns,
            "error_bound_ns": self.error_bound_ns,
        }


class TraceJoinError(ValueError):
    """A merged trace failed cross-boundary join validation."""


def _require_base(doc: Mapping[str, Any], label: str) -> int:
    base = doc.get("baseTimeNs")
    if not isinstance(base, int):
        raise ValueError(
            f"trace {label!r} has no baseTimeNs — it was exported before "
            "trace propagation existed and cannot be merged; re-record it"
        )
    return base


def doc_clock_offset_ns(doc: Mapping[str, Any]) -> int:
    """Clock offset recorded in a shard's ``clock.sync`` events.

    A client shard carries one ``clock.sync`` instant per session; the
    mean of their offsets maps the shard onto the server clock.  A doc
    with no sync events (the server's own shard, or an in-process run
    where both sides already share a tracer) shifts by zero.
    """

    offsets = [
        int(event.get("args", {}).get("offset_ns", 0))
        for event in doc.get("traceEvents", ())
        if event.get("name") == EVENT_CLOCK_SYNC and event.get("ph") == "i"
    ]
    if not offsets:
        return 0
    return sum(offsets) // len(offsets)


def merge_traces(docs: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge exported Chrome docs into one on the first doc's clock.

    The first document is the reference (by convention the server
    shard); every subsequent document is shifted onto the reference
    clock by the offset its own ``clock.sync`` events recorded.  Each
    doc must carry ``baseTimeNs`` (written by ``Tracer.to_chrome``) so
    its relative microsecond timestamps can be restored to absolute
    nanoseconds before merging.
    """

    if not docs:
        raise ValueError("merge_traces needs at least one trace document")
    raw: list[dict[str, Any]] = []
    for index, doc in enumerate(docs):
        base = _require_base(doc, f"doc[{index}]")
        shift = 0 if index == 0 else doc_clock_offset_ns(doc)
        for event in doc.get("traceEvents", ()):
            out = dict(event)
            if out.get("ph") != "M":
                out["ts"] = base + float(out.get("ts", 0)) * 1000.0 + shift
                if "dur" in out:
                    out["dur"] = float(out["dur"]) * 1000.0
            raw.append(out)
    return to_chrome(raw)


def e2e_events(doc: Mapping[str, Any], name: str) -> list[dict[str, Any]]:
    """All events of one e2e span/instant name in a trace doc."""

    return [
        event
        for event in doc.get("traceEvents", ())
        if event.get("name") == name and event.get("cat") == E2E_CATEGORY
    ]


def _pic_key(event: Mapping[str, Any]) -> tuple[Any, Any]:
    args = event.get("args", {})
    return (args.get("session"), args.get("pic"))


def validate_joins(doc: Mapping[str, Any]) -> dict[str, Any]:
    """Check every client picture span joins a server wire span.

    Returns a summary dict on success; raises :class:`TraceJoinError`
    listing the orphaned ``(session, pic)`` keys otherwise.  The merged
    trace must contain at least one client span to validate — a trace
    with no ``e2e.reassemble`` spans fails loudly rather than passing
    vacuously.
    """

    server_keys = {_pic_key(e) for e in e2e_events(doc, SPAN_WIRE)}
    client_spans = e2e_events(doc, SPAN_REASSEMBLE)
    if not client_spans:
        raise TraceJoinError(
            "merged trace holds no client e2e.reassemble spans — nothing "
            "crossed the boundary, so there is no join to validate"
        )
    orphans = sorted(
        {_pic_key(e) for e in client_spans if _pic_key(e) not in server_keys},
        key=repr,
    )
    if orphans:
        raise TraceJoinError(
            f"{len(orphans)} client picture span(s) have no matching "
            f"server e2e.wire span: {orphans[:8]}"
        )
    client_pids = {e.get("pid") for e in client_spans}
    server_pids = {e.get("pid") for e in e2e_events(doc, SPAN_WIRE)}
    return {
        "client_spans": len(client_spans),
        "server_spans": len(server_keys),
        "joined": len({_pic_key(e) for e in client_spans}),
        "client_pids": sorted(client_pids),
        "server_pids": sorted(server_pids),
    }


def _stage_stats(durs_ms: list[float]) -> dict[str, float]:
    durs_ms.sort()
    count = len(durs_ms)
    return {
        "count": count,
        "mean_ms": sum(durs_ms) / count if count else 0.0,
        "p50_ms": percentile(durs_ms, 0.50),
        "p99_ms": percentile(durs_ms, 0.99),
        "max_ms": durs_ms[-1] if count else 0.0,
    }


def waterfall(doc: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    """Aggregate per-picture stage durations across a merged trace.

    Maps each e2e stage name to ``{count, mean_ms, p50_ms, p99_ms,
    max_ms}``; the pseudo-stage ``deadline.lateness`` aggregates the
    ``late_ms`` args of ``e2e.deadline`` instants (clamped at 0 for
    early pictures, so it reads as lateness, not slack).
    """

    table: dict[str, dict[str, float]] = {}
    for stage in WATERFALL_STAGES:
        durs = [e.get("dur", 0) / 1000.0 for e in e2e_events(doc, stage)]
        if durs:
            table[stage] = _stage_stats(durs)
    late = [
        max(0.0, float(e.get("args", {}).get("late_ms", 0.0)))
        for e in e2e_events(doc, EVENT_DEADLINE)
    ]
    if late:
        table["deadline.lateness"] = _stage_stats(late)
    return table


def clock_syncs(doc: Mapping[str, Any]) -> list[dict[str, Any]]:
    """All ``clock.sync`` handshake results recorded in a trace doc."""

    return [
        dict(event.get("args", {}))
        for event in doc.get("traceEvents", ())
        if event.get("name") == EVENT_CLOCK_SYNC and event.get("ph") == "i"
    ]


def sessions_in(doc: Mapping[str, Any]) -> list[Any]:
    """Distinct session ids appearing in e2e events, sorted."""

    found = {
        e.get("args", {}).get("session")
        for e in doc.get("traceEvents", ())
        if e.get("cat") == E2E_CATEGORY
    }
    found.discard(None)
    return sorted(found, key=repr)
