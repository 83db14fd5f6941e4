"""Streaming client: reassembly, concealment, deadline measurement.

The client is the far edge of the loss story.  Slices arrive as
droppable ``SLICE`` band messages; the reliable ``PIC_DONE`` commit
tells the client a picture is over, and any row that never arrived is
concealed with the *same* primitives the resilient decoders use
(:func:`repro.mpeg2.reconstruct.conceal_rows`): temporal from the
previously displayed picture when one exists, spatial row-copy
otherwise.  Every picture therefore ends *delivered or concealed* —
the invariant the network benchmarks gate on.

Measurement mirrors the serve layer: a
:class:`~repro.parallel.pacing.Pacer` on wall seconds anchors at the
first commit and records per-picture lateness; concealment time lands in a
:class:`~repro.obs.stalls.StallTable` under the ``conceal.*`` reasons.

PR-8 telemetry: the client mints a trace id, performs the clock-offset
handshake over HELLO/ACCEPT (:class:`repro.obs.propagate.ClockSync`)
and — when tracing is enabled — emits the client half of the
per-picture end-to-end spans (``e2e.reassemble``, ``e2e.conceal``, the
``e2e.deadline`` instant) plus a ``clock.sync`` instant carrying the
measured offset, which is what lets its trace shard merge onto the
server's clock.  Server-pushed ``STATS`` frames (live SLO snapshots)
are collected on :attr:`ClientResult.server_stats`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.mpeg2.frame import Frame
from repro.mpeg2.reconstruct import conceal_rows
from repro.net.protocol import (
    MSG_ACCEPT,
    MSG_BYE,
    MSG_HELLO,
    MSG_PIC_DONE,
    MSG_RATE,
    MSG_REJECT,
    MSG_SEEK,
    MSG_SLICE,
    MSG_STATS,
    ProtocolError,
    band_into,
    encode_message,
    read_message,
)
from repro.obs.propagate import (
    E2E_CATEGORY,
    EVENT_CLOCK_SYNC,
    EVENT_DEADLINE,
    SPAN_CONCEAL,
    SPAN_REASSEMBLE,
    ClockSync,
    new_trace_id,
)
from repro.obs.stalls import StallTable, record_concealment
from repro.obs.trace import trace_complete, trace_instant
from repro.parallel.pacing import Pacer


@dataclass
class PictureReceipt:
    """Per-picture delivery record."""

    pic: int
    bands: int               # band messages that arrived
    rows: int                # bands the picture needs
    concealed_temporal: int = 0
    concealed_spatial: int = 0
    shed: bool = False       # server degraded it away (no bands sent)
    late_s: float = 0.0

    @property
    def concealed(self) -> int:
        return self.concealed_temporal + self.concealed_spatial


@dataclass
class ClientResult:
    """Outcome of one streamed session."""

    stream: str
    status: str = "pending"  # done | rejected:<reason> | disconnected
    pictures: int = 0        # server-announced picture count
    receipts: list[PictureReceipt] = field(default_factory=list)
    frames: list[Frame] = field(default_factory=list)
    stalls: StallTable = field(default_factory=StallTable)
    pacer: Pacer = field(default_factory=Pacer)
    reject_reason: str | None = None
    late_slices: int = 0     # bands that arrived after their commit
    session: str | None = None   # server-assigned session id
    trace_id: str | None = None  # client-minted, echoed by ACCEPT
    clock: ClockSync | None = None
    server_stats: list[dict] = field(default_factory=list)
    rate: int = 1                # server-confirmed trick-play rate
    join_gop: int = 0            # closed GOP the session joined at
    join_display_base: int = 0   # source display index of picture 0

    @property
    def slo(self) -> dict | None:
        """Most recent server-pushed SLO snapshot (None before one)."""
        for header in reversed(self.server_stats):
            if header.get("slo") is not None:
                return header["slo"]
        return None

    @property
    def delivered(self) -> int:
        """Pictures fully delivered (every band arrived, not shed)."""
        return sum(
            1 for r in self.receipts if not r.shed and r.concealed == 0
        )

    @property
    def concealed_pictures(self) -> int:
        return sum(1 for r in self.receipts if r.concealed > 0)

    @property
    def concealed_slices(self) -> int:
        return sum(r.concealed for r in self.receipts)

    @property
    def shed_pictures(self) -> int:
        return sum(1 for r in self.receipts if r.shed)

    @property
    def abandoned(self) -> int:
        """Pictures whose commit never arrived (disconnect)."""
        return max(0, self.pictures - len(self.receipts))

    @property
    def complete(self) -> bool:
        """Every announced picture delivered, concealed, or shed."""
        return self.status == "done" and self.abandoned == 0

    def to_json(self) -> dict:
        return {
            "stream": self.stream,
            "status": self.status,
            "pictures": self.pictures,
            "delivered": self.delivered,
            "concealed_pictures": self.concealed_pictures,
            "concealed_slices": self.concealed_slices,
            "shed_pictures": self.shed_pictures,
            "abandoned": self.abandoned,
            "late_slices": self.late_slices,
            "lateness": self.pacer.summary() if self.pacer.enabled else None,
            # Fixed percentiles, not the raw per-picture CDF knots —
            # keeps BENCH_net.json small (readers accept both shapes).
            "lateness_cdf": (
                self.pacer.lateness_percentiles()
                if self.pacer.enabled
                else None
            ),
            "session": self.session,
            "rate": self.rate,
            "join_gop": self.join_gop,
            "join_display_base": self.join_display_base,
            "trace_id": self.trace_id,
            "clock": self.clock.to_json() if self.clock else None,
            "slo": self.slo,
            "server_stats_pushes": len(self.server_stats),
        }


async def stream_session(
    host: str,
    port: int,
    stream: str,
    keep_frames: bool = False,
    send_stats: bool = True,
    disconnect_after: int | None = None,
    timeout_s: float = 60.0,
    seek: int | None = None,
    rate: int = 1,
) -> ClientResult:
    """Stream one session and return its :class:`ClientResult`.

    ``disconnect_after=k`` hangs up abruptly after ``k`` picture
    commits (the misbehaving-client fixture the disconnect tests use).
    ``seek=p`` requests a mid-stream join at the closed GOP owning
    source picture ``p``; ``rate`` in (2, 4) requests fast-forward —
    both travel as reliable SEEK/RATE frames right after HELLO.
    """
    result = ClientResult(stream=stream)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await asyncio.wait_for(
            _run(result, reader, writer, stream, keep_frames,
                 send_stats, disconnect_after, seek=seek, rate=rate),
            timeout=timeout_s,
        )
    except (ConnectionError, ProtocolError, asyncio.TimeoutError):
        result.status = "disconnected"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    return result


async def _run(
    result, reader, writer, stream, keep_frames, send_stats,
    disconnect_after, seek=None, rate=1,
) -> None:
    seq = 0
    result.trace_id = new_trace_id()
    t_send_ns = time.monotonic_ns()
    controls = (0 if seek is None else 1) + (0 if rate == 1 else 1)
    writer.write(
        encode_message(
            MSG_HELLO, seq,
            {"stream": stream, "trace": result.trace_id, "t_ns": t_send_ns,
             "controls": controls},
        )
    )
    seq += 1
    # Trick-play controls ride the reliable channel, announced by
    # HELLO's ``controls`` count so the server reads exactly these
    # before admission.
    if seek is not None:
        writer.write(encode_message(MSG_SEEK, seq, {"picture": int(seek)}))
        seq += 1
    if rate != 1:
        writer.write(encode_message(MSG_RATE, seq, {"rate": int(rate)}))
        seq += 1
    await writer.drain()
    first = await read_message(reader)
    t_recv_ns = time.monotonic_ns()
    if first is None:
        result.status = "disconnected"
        return
    if first.type == MSG_REJECT:
        reason = first.header.get("reason", "unknown")
        result.status = f"rejected:{reason}"
        result.reject_reason = reason
        return
    if first.type != MSG_ACCEPT:
        raise ProtocolError(f"expected ACCEPT, got {first.type_name}")
    width = first.header["width"]
    height = first.header["height"]
    result.pictures = first.header["pictures"]
    result.session = first.header.get("session", stream)
    result.rate = int(first.header.get("rate", 1))
    result.join_gop = int(first.header.get("join_gop", 0))
    result.join_display_base = int(first.header.get("join_display_base", 0))
    fps = first.header["fps"]
    result.pacer = Pacer(
        1.0 / fps if fps else None, first.header.get("preroll", 0)
    )
    clock = first.header.get("clock")
    if clock is not None:
        result.clock = ClockSync(
            t_client_send_ns=t_send_ns,
            t_server_recv_ns=clock["recv_ns"],
            t_server_send_ns=clock["send_ns"],
            t_client_recv_ns=t_recv_ns,
        )
        # Recorded into the trace so the shard carries its own mapping
        # onto the server clock (repro.obs.propagate.merge_traces).
        trace_instant(
            EVENT_CLOCK_SYNC, E2E_CATEGORY,
            session=result.session,
            trace=result.trace_id,
            **result.clock.to_json(),
        )

    bands: dict[int, dict[int, bytes]] = {}
    first_band_ns: dict[int, int] = {}
    finalized: set[int] = set()
    prev_frame: Frame | None = None

    while len(finalized) < result.pictures:
        msg = await read_message(reader)
        if msg is None:
            result.status = "disconnected"
            return
        if msg.type == MSG_SLICE:
            pic = msg.header["pic"]
            if pic in finalized:
                result.late_slices += 1
                continue
            if pic not in first_band_ns:
                first_band_ns[pic] = time.monotonic_ns()
            bands.setdefault(pic, {})[msg.header["row"]] = msg.payload
            continue
        if msg.type == MSG_STATS:
            # Server-side telemetry push (live SLO + metrics digest).
            result.server_stats.append(msg.header)
            continue
        if msg.type == MSG_BYE:
            # Early BYE: server gave up (decode failure) — everything
            # uncommitted is abandoned.
            result.status = "disconnected"
            return
        if msg.type != MSG_PIC_DONE:
            raise ProtocolError(f"unexpected {msg.type_name} mid-stream")

        pic = msg.header["pic"]
        rows = msg.header["rows"]
        finalized.add(pic)
        got = bands.pop(pic, {})
        receipt = PictureReceipt(
            pic=pic, bands=len(got), rows=rows,
            shed=bool(msg.header.get("shed", False)),
        )
        if receipt.shed:
            # Degraded away server-side: display holds the previous
            # picture; nothing to conceal.
            result.receipts.append(receipt)
            receipt.late_s = result.pacer.on_emit(pic, time.monotonic())
            trace_instant(
                EVENT_DEADLINE, E2E_CATEGORY,
                session=result.session, pic=pic, shed=True,
                late_ms=receipt.late_s * 1e3,
            )
            continue
        assemble_start_ns = first_band_ns.pop(pic, time.monotonic_ns())
        frame = Frame.blank(width, height)
        missing = []
        for row in range(rows):
            payload = got.get(row)
            if payload is None:
                missing.append(row)
            else:
                band_into(frame, row, payload)
        if missing:
            t0 = time.perf_counter()
            conceal_start_ns = time.monotonic_ns()
            n_t, n_s = conceal_rows(frame, prev_frame, missing)
            record_concealment(
                result.stalls, "client", n_t, n_s,
                time.perf_counter() - t0,
            )
            trace_complete(
                SPAN_CONCEAL, E2E_CATEGORY,
                conceal_start_ns,
                time.monotonic_ns() - conceal_start_ns,
                session=result.session, pic=pic,
                temporal=n_t, spatial=n_s,
            )
            receipt.concealed_temporal = n_t
            receipt.concealed_spatial = n_s
        trace_complete(
            SPAN_REASSEMBLE, E2E_CATEGORY,
            assemble_start_ns,
            time.monotonic_ns() - assemble_start_ns,
            session=result.session, pic=pic,
            bands=receipt.bands, rows=rows,
            concealed=receipt.concealed,
        )
        receipt.late_s = result.pacer.on_emit(pic, time.monotonic())
        trace_instant(
            EVENT_DEADLINE, E2E_CATEGORY,
            session=result.session, pic=pic,
            late_ms=receipt.late_s * 1e3,
        )
        result.receipts.append(receipt)
        prev_frame = frame
        if keep_frames:
            result.frames.append(frame)
        if send_stats:
            writer.write(
                encode_message(
                    MSG_STATS, seq,
                    {
                        "pic": pic,
                        "bands": receipt.bands,
                        "rows": rows,
                        "concealed_temporal": receipt.concealed_temporal,
                        "concealed_spatial": receipt.concealed_spatial,
                        "late_ms": receipt.late_s * 1e3,
                    },
                )
            )
            seq += 1
            await writer.drain()
        if (
            disconnect_after is not None
            and len(result.receipts) >= disconnect_after
        ):
            # Abrupt hangup mid-stream: the server must cancel us
            # without disturbing its other sessions.
            result.status = "disconnected"
            return
    result.status = "done"
