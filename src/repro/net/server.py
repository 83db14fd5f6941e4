"""Asyncio TCP streaming server over the dynamic decode service.

One :class:`NetServer` owns a :class:`~repro.serve.service.
DecodeService` running :meth:`~repro.serve.service.DecodeService.
run_forever` on a dedicated thread, plus an asyncio acceptor.  Each
client connection:

1. sends ``HELLO {stream, fps?}`` naming one of the server's published
   streams;
2. passes two admission gates — the bandwidth gate
   (:func:`repro.analysis.bandwidth.admissible_sessions` over the
   *peak* rates of the admitted sessions plus the newcomer, from
   :func:`repro.analysis.bandwidth.profile_stream`) and the service's
   own capacity gate;
3. receives ``ACCEPT`` with the stream geometry, then display-ordered
   pictures: one droppable ``SLICE`` message per MB-row band followed
   by a reliable ``PIC_DONE`` (a shed picture: the ``PIC_DONE`` alone),
   the first as soon as it is decoded and picture ``k`` at the
   session's own deadline (``sess.pacer.deadline(k)``);
4. may send ``STATS`` receipts upstream (per-picture concealment and
   lateness), which land in the server report.

A client that disconnects mid-stream triggers
:meth:`~repro.serve.service.DecodeService.request_cancel` — its
session is shed without poisoning the shared worker pool.  The
optional :class:`~repro.net.impair.ImpairmentProfile` applies the
seeded loss/reorder/jitter/bandwidth shim to every connection's
outgoing slice traffic (CI's stand-in for a lossy network).

PR-8 telemetry at the net edge:

* the ``HELLO``/``ACCEPT`` exchange carries the trace id and the
  clock-offset handshake (:mod:`repro.obs.propagate`), ``SLICE``/
  ``PIC_DONE`` carry server send timestamps, and — when tracing is on
  — the server emits the server half of the per-picture end-to-end
  spans (``e2e.decode``, ``e2e.pace``, ``e2e.wire``);
* ``metrics_port=`` starts a Prometheus-exposition
  :class:`~repro.obs.export.MetricsExporter` side port for live
  scraping, and ``stats_push_pictures=N`` pushes a ``STATS`` frame to
  each client every N pictures with the live SLO snapshot (none after
  the last picture: ``BYE`` follows it);
* every connection owns an :class:`~repro.obs.slo.SLOTracker` fed
  from client receipts — the one SLO judge; its snapshot lands in the
  report and in ``BENCH_net.json``, and a burnout triggers one
  flight-recorder dump (:mod:`repro.obs.flightrec`) alongside the
  fail/cancel dumps the service itself performs.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.analysis.bandwidth import (
    BandwidthProfile,
    admissible_sessions,
    profile_stream,
)
from repro.net.impair import ImpairedSender, ImpairmentProfile, ImpairmentSchedule
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
    band_bytes,
    encode_message,
    read_message,
)
from repro.obs.export import MetricsExporter
from repro.obs.metrics import metrics
from repro.obs.propagate import (
    E2E_CATEGORY,
    SPAN_DECODE,
    SPAN_PACE,
    SPAN_WIRE,
)
from repro.obs.slo import SLOPolicy, SLOTracker
from repro.obs.trace import trace_complete
from repro.access import AccessError, plan_trick
from repro.mpeg2.index import StreamIndex, StreamIndexError, build_index
from repro.serve.service import DecodeService
from repro.serve.session import SessionStatus


class NetServer:
    """TCP front end: ``streams`` is the published name -> bytes map."""

    def __init__(
        self,
        streams: dict[str, bytes],
        workers: int = 0,
        fps: float = 30.0,
        capacity: int | None = None,
        resilient: bool = True,
        link_bps: float | None = None,
        impairment: ImpairmentProfile | None = None,
        preroll_pictures: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = None,
        slo: SLOPolicy | None = None,
        stats_push_pictures: int = 0,
        flight_dir: str | None = None,
        **service_kwargs,
    ) -> None:
        if fps <= 0:
            raise ValueError(f"fps must be > 0, got {fps}")
        if stats_push_pictures < 0:
            raise ValueError("stats_push_pictures must be >= 0")
        if link_bps is not None and not link_bps > 0:
            raise ValueError(f"link_bps must be > 0, got {link_bps}")
        self.streams = dict(streams)
        self.fps = fps
        self.link_bps = link_bps
        self.impairment = impairment
        self.preroll_pictures = preroll_pictures
        self.slo_policy = slo or SLOPolicy()
        #: 0 disables server->client STATS pushes.
        self.stats_push_pictures = stats_push_pictures
        self.metrics_port = metrics_port
        self.exporter: MetricsExporter | None = None
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.profiles: dict[str, BandwidthProfile] = {}
        #: name -> error class for streams whose scan/profile failed.
        #: A poison entry in ``streams`` must not take the server down;
        #: its sessions are refused at HELLO with ``scan-failed``.
        self.profile_errors: dict[str, str] = {}
        #: name -> scan index; drives SEEK target -> GOP resolution.
        self.indexes: dict[str, StreamIndex] = {}
        for name, data in self.streams.items():
            try:
                index = build_index(data)
                self.indexes[name] = index
                self.profiles[name] = profile_stream(
                    data, fps=fps, index=index
                )
            except Exception as exc:
                self.profile_errors[name] = type(exc).__name__
        self.service = DecodeService(
            workers=workers,
            fps=fps,
            capacity=capacity,
            resilient=resilient,
            preroll_pictures=preroll_pictures,
            flight_dir=flight_dir,
            **service_kwargs,
        )
        self._slo_trackers: dict[int, SLOTracker] = {}
        self.connections: list[dict] = []
        self._next_conn = 0
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._service_thread: threading.Thread | None = None
        self._service_report: dict | None = None
        #: sid -> profile of currently-admitted sessions (bandwidth gate).
        self._admitted: dict[str, BandwidthProfile] = {}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the service thread and start accepting connections."""
        self._service_thread = threading.Thread(
            target=self._run_service, name="decode-service", daemon=True
        )
        self._service_thread.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host,
            port=self._requested_port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self.exporter = MetricsExporter(
                host=self.host, port=self.metrics_port
            )
            self.metrics_port = self.exporter.start()

    def _run_service(self) -> None:
        self._service_report = self.service.run_forever()

    async def aclose(self, drain: bool = False) -> dict:
        """Stop accepting, shut the service down, return the report."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            # Let in-flight handlers settle before pulling the service.
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=10.0
            )
            for task in pending:
                task.cancel()
        self.service.shutdown(drain=drain)
        if self._service_thread is not None:
            await asyncio.to_thread(self._service_thread.join, 30.0)
        if self.exporter is not None:
            self.exporter.stop()
        return self.report()

    # ------------------------------------------------------------------
    def _bandwidth_admit(self, sid: str, profile: BandwidthProfile) -> bool:
        """Peak-rate link budget: admit if
        :func:`~repro.analysis.bandwidth.admissible_sessions` admits
        the newcomer after the sessions already admitted."""
        if self.link_bps is None:
            return True
        offered = [*self._admitted.values(), profile]
        if admissible_sessions(offered, self.link_bps) < len(offered):
            return False
        self._admitted[sid] = profile
        return True

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        conn_id = self._next_conn
        self._next_conn += 1
        record: dict = {"conn": conn_id, "status": "handshake", "stats": []}
        self.connections.append(record)
        sid: str | None = None
        try:
            await self._serve_client(conn_id, record, reader, writer)
        except (
            ConnectionError, ProtocolError, asyncio.IncompleteReadError,
            BrokenPipeError, TimeoutError,
        ) as exc:
            record["status"] = "disconnected"
            record["error"] = f"{type(exc).__name__}: {exc}"
            sid = record.get("session")
            if sid is not None:
                # The cancel path: shed the session, keep the pool clean.
                self.service.flight.record(
                    sid, "net.disconnected", conn=conn_id,
                    error=record["error"],
                )
                # Dump here, not just from the service's cancel path: a
                # fast in-process decode often finishes (DONE) before
                # the wire notices the hangup, and a done session no
                # longer cancels — but the broken connection is still
                # worth an autopsy.
                self.service.flight_dump(sid, "net-disconnected")
                self.service.request_cancel(sid)
                metrics().counter("net.sessions.cancelled").inc()
        finally:
            tracker = self._slo_trackers.pop(conn_id, None)
            if tracker is not None and tracker.pictures:
                record["slo"] = tracker.snapshot()
            sid = record.get("session")
            if sid is not None:
                self._admitted.pop(sid, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _serve_client(self, conn_id, record, reader, writer) -> None:
        hello = await read_message(reader)
        hello_recv_ns = time.monotonic_ns()
        if hello is None or hello.type != MSG_HELLO:
            raise ProtocolError("expected HELLO")
        name = hello.header.get("stream")
        trace_id = hello.header.get("trace")
        if trace_id is not None:
            record["trace_id"] = trace_id
        seq = 0

        async def reject(reason: str) -> None:
            nonlocal seq
            record["status"] = f"rejected:{reason}"
            metrics().counter("net.sessions.rejected").inc()
            writer.write(
                encode_message(MSG_REJECT, seq, {"reason": reason})
            )
            await writer.drain()

        if name not in self.streams:
            await reject("unknown-stream")
            return
        data = self.streams[name]
        profile = self.profiles.get(name)
        if profile is None:
            await reject("scan-failed")
            return
        # Trick-play control handshake: HELLO announced ``controls: N``
        # reliable SEEK/RATE frames which we read *before* admission —
        # the request shapes the session (join GOP, served picture
        # set), so it must be part of the handshake, not a race with
        # slice traffic.
        controls = hello.header.get("controls") or 0
        if type(controls) is not int or controls < 0:
            await reject("bad-request")
            return
        seek_picture = None
        rate = 1
        for _ in range(controls):
            ctrl = await read_message(reader)
            if ctrl is None:
                raise ProtocolError("EOF during trick-play handshake")
            if ctrl.type == MSG_SEEK:
                seek_picture = ctrl.header.get("picture", 0)
            elif ctrl.type == MSG_RATE:
                rate = ctrl.header.get("rate", 1)
            else:
                raise ProtocolError(
                    f"expected SEEK/RATE in handshake, got {ctrl.type_name}"
                )
        if seek_picture is not None and type(seek_picture) is not int:
            await reject("bad-request")
            return
        if type(rate) is not int or rate not in (1, 2, 4):
            await reject("bad-rate")
            return
        index = self.indexes[name]
        start_gop = 0
        if seek_picture is not None:
            try:
                # The session joins at the next *closed* GOP at/after
                # the one owning the target (StreamSession.join_point).
                start_gop = index.gop_for_display_index(seek_picture)
            except StreamIndexError:
                await reject("seek-past-eof")
                return
        plan = None
        if rate > 1:
            # Fast-forward decodes the ffN plan's index view, joined by
            # the same rule: the session holds only the pictures it
            # shows, numbered contiguously, so the k-th is due at k/fps
            # — exactly N-times content speed.
            try:
                plan = plan_trick(index, f"ff{rate}", seek_picture or 0)
            except AccessError:
                await reject("bad-rate")
                return
        sid = f"{name}#{conn_id}"
        if not self._bandwidth_admit(sid, profile):
            await reject("bandwidth")
            return
        record["session"] = sid
        self.service.flight.record(
            sid, "net.hello", conn=conn_id, stream=name, trace=trace_id,
            seek=seek_picture, rate=rate,
        )

        loop = asyncio.get_running_loop()
        frames: asyncio.Queue = asyncio.Queue()

        def sink(display_index, frame) -> None:
            # Runs on the service thread; hop to the event loop.  The
            # ready timestamp is taken here, on the decode side of the
            # hop, so the e2e.decode span ends when the picture was
            # actually produced, not when the loop got around to it.
            try:
                loop.call_soon_threadsafe(
                    frames.put_nowait,
                    (display_index, frame, time.monotonic_ns()),
                )
            except RuntimeError:  # pragma: no cover - loop tearing down
                pass

        sess = await asyncio.to_thread(
            self.service.submit_dynamic, sid, data,
            on_frame=sink,
            start_gop=start_gop if plan is None else 0,
            index=index if plan is None else plan.view,
        )
        if sess.status is SessionStatus.REJECTED:
            await reject("capacity")
            return
        if sess.status is SessionStatus.FAILED:
            await reject("scan-failed")
            return
        join_gop = sess.join_gop if plan is None else plan.emissions[0][0]
        pictures = sess.picture_count
        mb_height = sess.index.mb_height
        header = {
            "session": sid,
            "stream": name,
            "width": sess.seq.width,
            "height": sess.seq.height,
            "mb_height": mb_height,
            "pictures": pictures,
            "rate": rate,
            "join_gop": join_gop,
            "join_display_base": index.gop_display_base(join_gop),
            "fps": self.fps,
            "preroll": self.preroll_pictures,
            "profile": {
                "mean_bps": profile.mean_bps,
                "peak_bps": profile.peak_bps,
                "burstiness": profile.burstiness,
            },
            # Clock-offset handshake: the client sent t_ns in HELLO;
            # it closes the NTP-style exchange with these two stamps.
            "clock": {
                "recv_ns": hello_recv_ns,
                "send_ns": time.monotonic_ns(),
            },
        }
        if trace_id is not None:
            header["trace"] = trace_id
        writer.write(encode_message(MSG_ACCEPT, seq, header))
        seq += 1
        await writer.drain()
        record["status"] = "streaming"
        metrics().counter("net.sessions.accepted").inc()
        tracker = SLOTracker(self.slo_policy, session=sid)
        self._slo_trackers[conn_id] = tracker
        self.service.flight.record(sid, "net.accept", conn=conn_id)

        schedule = (
            ImpairmentSchedule(self.impairment)
            if self.impairment is not None
            else None
        )
        sender = ImpairedSender(writer, schedule)
        stats_task = asyncio.ensure_future(
            self._read_stats(reader, record, tracker)
        )
        try:
            await self._stream_pictures(
                record, sess, frames, sender, seq, pictures, mb_height,
                tracker,
            )
            # BYE is out.  The client may close as soon as it has every
            # picture, and a close with BYE unread resets the socket:
            # the stats reader ending here, by EOF or by a reset, ends
            # a delivered session, not a broken one.
            try:
                await asyncio.wait_for(stats_task, timeout=5.0)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
        finally:
            if not stats_task.done():
                stats_task.cancel()
            record["impair"] = sender.stats.to_json()
        record["status"] = "done"
        self.service.flight.record(sid, "net.done", conn=conn_id)

    async def _stream_pictures(
        self, record, sess, frames, sender, seq, pictures, mb_height,
        tracker,
    ) -> None:
        """Send display-ordered pictures as slice bands: the first on
        arrival, picture ``k`` no earlier than the session's own
        deadline for it, ``sess.pacer.deadline(k)`` on the service
        clock (the session's first emission anchored that schedule
        before it reached this queue; a shed picture is never first)."""
        clock = self.service.clock
        sent_pics = 0
        sid = record.get("session")
        # Decode-span anchor: the pipeline is busy on this picture from
        # the moment the previous one was ready (or from stream start).
        prev_ready_ns = time.monotonic_ns()
        while sent_pics < pictures:
            try:
                display_index, frame, ready_ns = await asyncio.wait_for(
                    frames.get(), timeout=0.5
                )
            except asyncio.TimeoutError:
                if sess.terminal and frames.empty():
                    # Decode failed server-side mid-stream: tell the
                    # client how far we got instead of going silent.
                    await sender.flush()
                    await sender.send(
                        encode_message(
                            MSG_BYE, seq,
                            {"pictures": sent_pics, "error": "decode-failed"},
                        ),
                        droppable=False, seq=seq,
                    )
                    return
                continue
            trace_complete(
                SPAN_DECODE, E2E_CATEGORY,
                prev_ready_ns, max(0, ready_ns - prev_ready_ns),
                session=sid, pic=display_index,
            )
            prev_ready_ns = ready_ns
            if sent_pics:
                while (wait := sess.pacer.deadline(display_index) - clock()) > 0:
                    await asyncio.sleep(wait)
            wire_start_ns = time.monotonic_ns()
            trace_complete(
                SPAN_PACE, E2E_CATEGORY,
                ready_ns, max(0, wire_start_ns - ready_ns),
                session=sid, pic=display_index,
            )
            # A picture shed by degradation is its reliable commit
            # alone, zero bands; it counts as a deadline miss — the
            # viewer never saw it.
            bands = 0
            for row in range(mb_height if frame is not None else 0):
                ok = await sender.send(
                    encode_message(
                        MSG_SLICE, seq,
                        {"pic": display_index, "row": row,
                         "ts": time.monotonic_ns()},
                        band_bytes(frame, row),
                    ),
                    droppable=True, seq=seq,
                )
                seq += 1
                if ok:
                    bands += 1
            shed = {"shed": True} if frame is None else {}
            await sender.send(
                encode_message(
                    MSG_PIC_DONE, seq,
                    {"pic": display_index, "bands": bands,
                     "rows": mb_height, **shed, "ts": time.monotonic_ns()},
                ),
                droppable=False, seq=seq,
            )
            seq += 1
            sent_pics += 1
            if frame is None:
                tracker.observe(shed=True)
            else:
                trace_complete(
                    SPAN_WIRE, E2E_CATEGORY,
                    wire_start_ns, max(0, time.monotonic_ns() - wire_start_ns),
                    session=sid, pic=display_index, bands=bands,
                )
                metrics().counter("net.pictures.sent").inc()
            # No push after the last picture: BYE follows it.
            if (
                self.stats_push_pictures
                and sent_pics % self.stats_push_pictures == 0
                and sent_pics < pictures
            ):
                seq = await self._push_stats(
                    sender, seq, sid, display_index, tracker
                )
        await sender.flush()
        await sender.send(
            encode_message(
                MSG_BYE, seq,
                {"pictures": sent_pics,
                 "dropped_messages": sender.stats.dropped},
            ),
            droppable=False, seq=seq,
        )

    async def _push_stats(self, sender, seq, sid, pic, tracker) -> int:
        """Push one server->client STATS frame (live SLO + metrics)."""
        snapshot = metrics().snapshot()
        digest = {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if name.startswith("net.")
        }
        await sender.send(
            encode_message(
                MSG_STATS, seq,
                {
                    "src": "server",
                    "session": sid,
                    "pic": pic,
                    "slo": tracker.snapshot(),
                    "metrics": digest,
                },
            ),
            droppable=False, seq=seq,
        )
        metrics().counter("net.stats.pushed").inc()
        return seq + 1

    async def _read_stats(self, reader, record, tracker) -> None:
        """Drain client STATS receipts until EOF, feeding the SLO."""
        sid = record.get("session")
        # One burnout dump per connection, not one per late receipt.
        dumped = False
        while True:
            msg = await read_message(reader)
            if msg is None:
                return
            if msg.type == MSG_STATS:
                record["stats"].append(msg.header)
                hdr = msg.header
                concealed = hdr.get("concealed_temporal", 0) + hdr.get(
                    "concealed_spatial", 0
                )
                tracker.observe(
                    late_s=max(0.0, hdr.get("late_ms", 0.0)) / 1e3,
                    concealed_rows=concealed,
                    rows=hdr.get("rows", 0),
                )
                if tracker.burned_out and not dumped and sid:
                    dumped = True
                    self.service.flight.record(
                        sid, "slo.burnout",
                        breaches=tracker.breaches(),
                        burn_rate=tracker.burn_rate,
                    )
                    self.service.flight_dump(sid, "slo-burnout")

    # ------------------------------------------------------------------
    def report(self) -> dict:
        service = self._service_report or self.service.report()
        concealed = sum(
            s.get("concealed_temporal", 0) + s.get("concealed_spatial", 0)
            for c in self.connections
            for s in c["stats"]
        )
        return {
            "fps": self.fps,
            "link_bps": self.link_bps,
            "streams": sorted(self.streams),
            "connections": self.connections,
            "client_concealed_slices": concealed,
            "slo_policy": self.slo_policy.to_json(),
            "metrics_port": self.metrics_port,
            "flight_dumps": list(self.service.flight_dumps),
            "service": service,
        }
