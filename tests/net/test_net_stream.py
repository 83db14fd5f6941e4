"""End-to-end streaming: server + client over real localhost sockets.

The tentpole invariants:

* **Transparency** — on a clean link the client's reassembled frames
  are bit-identical to the pinned golden digests (the same pixels the
  scalar oracle produces); the network edge adds zero drift.
* **Delivered-or-concealed** — under packet loss every announced
  picture still ends in a receipt: complete, concealed (with the
  shared ``conceal_rows`` primitives), or explicitly shed; sessions
  never fail from slice loss.
* **Containment** — rejects (unknown stream, capacity, bandwidth) are
  explicit wire messages; a client disconnect cancels only its own
  session and the server keeps serving everyone else.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import struct

import pytest

from repro.access import plan_trick
from repro.mpeg2.index import build_index
from repro.net.client import stream_session
from repro.net.impair import ImpairmentProfile
from repro.net.protocol import (
    MSG_ACCEPT,
    MSG_HELLO,
    MSG_PIC_DONE,
    MSG_RATE,
    MSG_REJECT,
    MSG_SEEK,
    decode_body,
    encode_message,
    read_message,
)
from repro.net.server import NetServer
from repro.obs.metrics import metrics
from repro.obs.slo import SLOPolicy
from repro.obs.stalls import REASON_CONCEAL_SPATIAL, REASON_CONCEAL_TEMPORAL
from repro.serve import DegradePolicy, SessionStatus

pytestmark = pytest.mark.net

VECTOR_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "vectors"
)

with open(os.path.join(VECTOR_DIR, "digests.json")) as _fh:
    DIGESTS = json.load(_fh)["streams"]


def load(name: str) -> bytes:
    with open(os.path.join(VECTOR_DIR, f"{name}.m2v"), "rb") as fh:
        return fh.read()


def run(coro):
    return asyncio.run(coro)


def _long_stream() -> bytes:
    """48 pictures: at 30 fps a client that hangs up after two of them
    leaves the session more than a second of pictures short."""
    from repro.mpeg2.encoder import EncoderConfig, encode_sequence
    from repro.video.synthetic import SyntheticVideo

    video = SyntheticVideo(width=48, height=32, seed=19).frames(48)
    return encode_sequence(video, EncoderConfig(gop_size=4, qscale_code=3))


def _slow_stream() -> bytes:
    """455 pictures of 176x120 (one 13-picture GOP encoded once, then
    repeated): about 1.5 s of in-process decode, seconds longer than a
    second client's handshake takes."""
    from repro.mpeg2.encoder import EncoderConfig, encode_sequence
    from repro.video.synthetic import SyntheticVideo

    from tests.parallel.test_mp_gop_window import tile

    video = SyntheticVideo(width=176, height=120, seed=19).frames(13)
    return tile(encode_sequence(video, EncoderConfig(gop_size=13, qscale_code=3)), 35)


STREAMS = {
    "ipb": load("ipb_64x48_gop13"),
    "two_gop": load("two_gop_48x32"),
    "long": _long_stream(),
}


async def _serve_one(server_kwargs, client_kwargs):
    srv = NetServer(STREAMS, workers=0, **server_kwargs)
    await srv.start()
    try:
        result = await stream_session(
            "127.0.0.1", srv.port, **client_kwargs
        )
    finally:
        report = await srv.aclose()
    return result, report


class TestCleanLink:
    @pytest.mark.parametrize(
        "stream,vector",
        [("ipb", "ipb_64x48_gop13"), ("two_gop", "two_gop_48x32")],
    )
    def test_frames_bit_identical_to_golden(self, stream, vector):
        result, report = run(
            _serve_one(
                {"fps": 240.0},
                {"stream": stream, "keep_frames": True},
            )
        )
        assert result.complete
        assert result.concealed_slices == 0 and result.late_slices == 0
        assert [f.digest() for f in result.frames] == (
            DIGESTS[vector]["frame_digests"]
        )
        assert report["service"]["status_counts"] == {"done": 1}

    def test_lateness_is_measured_per_picture(self):
        result, _ = run(
            _serve_one({"fps": 240.0}, {"stream": "two_gop"})
        )
        assert result.pacer.emitted == result.pictures
        assert result.to_json()["lateness"] is not None


class TestLossyLink:
    def test_delivered_or_concealed_under_loss(self):
        # 20% loss: enough that some slice in 8 pictures x 2 rows
        # virtually always drops, and every picture must still settle.
        result, report = run(
            _serve_one(
                {
                    "fps": 240.0,
                    "impairment": ImpairmentProfile(loss=0.2, seed=11),
                },
                {"stream": "two_gop"},
            )
        )
        assert result.complete, result.to_json()
        assert len(result.receipts) == result.pictures
        assert result.concealed_slices > 0
        impair = report["connections"][0]["impair"]
        assert impair["dropped"] > 0
        # Conservation across the wire: bands received + dropped =
        # bands sent (rows per picture x pictures that sent bands).
        sent_bands = sum(r.rows for r in result.receipts if not r.shed)
        got_bands = sum(r.bands for r in result.receipts)
        assert got_bands + impair["dropped"] == sent_bands
        # The client's STATS receipts made it back into the report.
        assert report["client_concealed_slices"] == result.concealed_slices

    def test_concealment_uses_canonical_stall_reasons(self):
        result, _ = run(
            _serve_one(
                {
                    "fps": 240.0,
                    "impairment": ImpairmentProfile(loss=0.3, seed=5),
                },
                {"stream": "ipb"},
            )
        )
        assert result.complete
        reasons = set(result.stalls.by_reason())
        assert reasons <= {REASON_CONCEAL_TEMPORAL, REASON_CONCEAL_SPATIAL}
        assert reasons, "30% loss produced no concealment stalls"

    def test_reorder_and_jitter_alone_need_no_concealment(self):
        result, _ = run(
            _serve_one(
                {
                    "fps": 240.0,
                    "impairment": ImpairmentProfile(
                        reorder=0.4, jitter_ms=0.5, seed=3
                    ),
                },
                {"stream": "two_gop", "keep_frames": True},
            )
        )
        assert result.complete
        assert result.concealed_slices == 0
        assert [f.digest() for f in result.frames] == (
            DIGESTS["two_gop_48x32"]["frame_digests"]
        )

    def test_bandwidth_cap_delays_but_delivers(self):
        result, report = run(
            _serve_one(
                {
                    "fps": 240.0,
                    "impairment": ImpairmentProfile(
                        bandwidth_bps=20e6, seed=1
                    ),
                },
                {"stream": "two_gop"},
            )
        )
        assert result.complete and result.concealed_slices == 0
        assert report["connections"][0]["impair"]["delayed"] > 0


class TestAdmission:
    def test_unknown_stream_rejected(self):
        result, _ = run(
            _serve_one({"fps": 240.0}, {"stream": "nope"})
        )
        assert result.status == "rejected:unknown-stream"

    def test_capacity_gate_rejects_overload(self):
        # The first session holds the only capacity slot while it
        # decodes (seconds); the second HELLO goes out only once that
        # session is ACTIVE.  Degradation is out of reach, so no shed
        # picture shortens the decode however late the fast pacing
        # makes it.
        streams = {"slow": _slow_stream(), "two_gop": STREAMS["two_gop"]}
        never = DegradePolicy(drop_b_after=10**6, skip_gop_after=10**6)

        async def scenario():
            srv = NetServer(
                streams, workers=0, fps=1000.0, capacity=1, max_queue=0,
                policy=never,
            )
            await srv.start()
            try:
                first = asyncio.ensure_future(
                    stream_session("127.0.0.1", srv.port, "slow")
                )
                while not any(
                    s.status is SessionStatus.ACTIVE
                    for s in list(srv.service.sessions.values())
                ):
                    assert not first.done(), first.result().status
                    await asyncio.sleep(0.005)
                second = await stream_session(
                    "127.0.0.1", srv.port, "two_gop"
                )
                return await first, second
            finally:
                await srv.aclose()

        first, second = run(scenario())
        assert first.complete
        assert second.status == "rejected:capacity"

    def test_bandwidth_gate_rejects_second_session(self):
        async def scenario():
            srv = NetServer(
                STREAMS, workers=0, fps=30.0, capacity=4,
                link_bps=1.0,  # below any stream's peak: 1 admit max
            )
            await srv.start()
            try:
                first = asyncio.ensure_future(
                    stream_session("127.0.0.1", srv.port, "ipb")
                )
                await asyncio.sleep(0.1)
                second = await stream_session(
                    "127.0.0.1", srv.port, "two_gop"
                )
                return await first, second
            finally:
                await srv.aclose()

        first, second = run(scenario())
        # First always admitted (degrades on the wire, never refused).
        assert first.complete
        assert second.status == "rejected:bandwidth"

    def test_bandwidth_slot_freed_after_session_ends(self):
        async def scenario():
            srv = NetServer(STREAMS, workers=0, fps=240.0, link_bps=1.0)
            await srv.start()
            try:
                a = await stream_session("127.0.0.1", srv.port, "ipb")
                b = await stream_session("127.0.0.1", srv.port, "ipb")
                return a, b
            finally:
                await srv.aclose()

        a, b = run(scenario())
        assert a.complete and b.complete

    @pytest.mark.parametrize("link_bps", [0, -1.0])
    def test_non_positive_link_budget_refused_at_construction(self, link_bps):
        with pytest.raises(ValueError, match="link_bps"):
            NetServer(STREAMS, workers=0, link_bps=link_bps)


def _pictures_decoded() -> float:
    return metrics().snapshot()["counters"].get("serve.worker.pictures", 0)


class TestTrickPlay:
    """SEEK/RATE over the socket: the wire carries the ffN plan, and
    the service decodes exactly the pictures it sends."""

    @pytest.mark.parametrize(
        "seek,rate,join_gop,join_display_base",
        [(None, 2, 0, 0), (None, 4, 0, 0), (5, 2, 1, 4)],
    )
    def test_fast_forward_sends_the_plan(
        self, seek, rate, join_gop, join_display_base
    ):
        index = build_index(STREAMS["two_gop"])
        shown = plan_trick(index, f"ff{rate}", seek or 0).display_indices(index)
        before = _pictures_decoded()
        result, report = run(
            _serve_one(
                {"fps": 240.0},
                {"stream": "two_gop", "keep_frames": True,
                 "seek": seek, "rate": rate},
            )
        )
        assert result.complete
        assert (result.pictures, result.rate) == (len(shown), rate)
        assert (result.join_gop, result.join_display_base) == (
            join_gop, join_display_base,
        )
        linear = DIGESTS["two_gop_48x32"]["frame_digests"]
        assert [f.digest() for f in result.frames] == [linear[d] for d in shown]
        assert report["service"]["status_counts"] == {"done": 1}
        assert _pictures_decoded() - before == len(result.receipts) == len(shown)

    @pytest.mark.parametrize(
        "hello,controls,reason",
        [
            ({"controls": "two"}, [], "bad-request"),
            ({"controls": 1}, [(MSG_SEEK, {"picture": "x"})], "bad-request"),
            ({"controls": 1}, [(MSG_RATE, {"rate": "fast"})], "bad-rate"),
        ],
    )
    def test_malformed_handshake_rejected(self, hello, controls, reason):
        async def scenario():
            srv = NetServer(STREAMS, workers=0, fps=240.0)
            await srv.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                writer.write(
                    encode_message(MSG_HELLO, 0, {"stream": "two_gop", **hello})
                )
                for seq, (kind, header) in enumerate(controls, start=1):
                    writer.write(encode_message(kind, seq, header))
                await writer.drain()
                reply = await asyncio.wait_for(read_message(reader), 5.0)
                writer.close()
                await writer.wait_closed()
                return reply
            finally:
                scenario.report = await srv.aclose()

        reply = run(scenario())
        assert reply is not None and reply.type == MSG_REJECT
        assert reply.header["reason"] == reason
        (conn,) = scenario.report["connections"]
        assert conn["status"] == f"rejected:{reason}"
        assert "session" not in conn


class TestDisconnectContainment:
    def test_disconnect_cancels_only_own_session(self):
        async def scenario():
            srv = NetServer(STREAMS, workers=0, fps=60.0, capacity=4)
            await srv.start()
            try:
                quitter = asyncio.ensure_future(
                    stream_session(
                        "127.0.0.1", srv.port, "ipb", disconnect_after=2
                    )
                )
                stayer = asyncio.ensure_future(
                    stream_session("127.0.0.1", srv.port, "two_gop")
                )
                q, s = await asyncio.gather(quitter, stayer)
                # A third client connects *after* the hangup: the
                # server is still healthy.
                late = await stream_session(
                    "127.0.0.1", srv.port, "ipb", keep_frames=True
                )
                return q, s, late
            finally:
                report = await srv.aclose()
                scenario.report = report

        q, s, late = run(scenario())
        assert q.status == "disconnected"
        assert len(q.receipts) == 2
        assert s.complete
        assert late.complete
        assert [f.digest() for f in late.frames] == (
            DIGESTS["ipb_64x48_gop13"]["frame_digests"]
        )
        counts = scenario.report["service"]["status_counts"]
        # The quitter's session either finished decoding before the
        # hangup landed (tiny stream) or was cancelled — never failed.
        assert counts.get("failed", 0) == 0
        assert counts.get("done", 0) >= 2

    def test_lossy_multi_client_all_settle(self):
        async def scenario():
            srv = NetServer(
                STREAMS, workers=0, fps=120.0, capacity=4,
                impairment=ImpairmentProfile(loss=0.05, seed=42),
            )
            await srv.start()
            try:
                results = await asyncio.gather(*[
                    stream_session(
                        "127.0.0.1", srv.port,
                        "ipb" if i % 2 == 0 else "two_gop",
                    )
                    for i in range(4)
                ])
                return results
            finally:
                report = await srv.aclose()
                scenario.report = report

        results = run(scenario())
        assert all(r.complete for r in results), [
            r.to_json() for r in results
        ]
        counts = scenario.report["service"]["status_counts"]
        assert counts == {"done": 4}

    @pytest.mark.parametrize("stats_push", [0, 4])
    def test_close_with_bye_unread_is_done(self, tmp_path, stats_push):
        # A client may close as soon as it has every PIC_DONE.  This one
        # reads the socket frame by frame, so what the server sends
        # after the last PIC_DONE (BYE; a STATS push before it, if
        # ``stats_push`` divides the picture count) stays unread in the
        # kernel, and the close resets the connection.
        async def recv_exactly(loop, sock, n):
            buf = b""
            while len(buf) < n:
                chunk = await loop.sock_recv(sock, n - len(buf))
                assert chunk, "server closed early"
                buf += chunk
            return buf

        async def recv_message(loop, sock):
            (length,) = struct.unpack("!I", await recv_exactly(loop, sock, 4))
            return decode_body(await recv_exactly(loop, sock, length))

        async def scenario():
            srv = NetServer(
                STREAMS, workers=0, fps=240.0, flight_dir=str(tmp_path),
                stats_push_pictures=stats_push,
            )
            await srv.start()
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setblocking(False)
            try:
                await loop.sock_connect(sock, ("127.0.0.1", srv.port))
                await loop.sock_sendall(
                    sock, encode_message(MSG_HELLO, 0, {"stream": "two_gop"})
                )
                accept = await recv_message(loop, sock)
                assert accept.type == MSG_ACCEPT
                pictures = accept.header["pictures"]
                done = 0
                while done < pictures:
                    done += (await recv_message(loop, sock)).type == MSG_PIC_DONE
                await asyncio.sleep(0.05)
            finally:
                sock.close()
                scenario.report = await srv.aclose()

        run(scenario())
        report = scenario.report
        (conn,) = report["connections"]
        assert conn["status"] == "done", conn.get("error")
        assert not [p for p in report["flight_dumps"] if "net-disconnected" in p]
        assert report["service"]["status_counts"] == {"done": 1}


class TestTelemetry:
    """PR-8: trace propagation, STATS pushes, SLO, flight recorder."""

    def test_clock_handshake_offset_within_error_bound(self):
        result, _ = run(_serve_one({"fps": 120.0}, {"stream": "two_gop"}))
        assert result.complete
        clock = result.clock
        assert clock is not None
        # Both sides read the same CLOCK_MONOTONIC on localhost, so the
        # true offset is 0 and the estimate must sit inside its own
        # declared error bound (rtt/2).
        assert abs(clock.offset_ns) <= clock.error_bound_ns
        assert clock.rtt_ns >= 0

    def test_accept_echoes_client_trace_id(self):
        result, report = run(
            _serve_one({"fps": 120.0}, {"stream": "two_gop"})
        )
        assert result.trace_id and len(result.trace_id) == 16
        (conn,) = report["connections"]
        assert conn["trace_id"] == result.trace_id

    def test_traced_lossy_session_produces_joinable_merged_trace(
        self, tmp_path
    ):
        from repro.obs import disable_tracing, enable_tracing, get_tracer
        from repro.obs.propagate import (
            merge_traces,
            validate_joins,
            waterfall,
        )

        enable_tracing(process_name="net-test")
        try:
            result, _ = run(
                _serve_one(
                    {
                        "fps": 120.0,
                        "impairment": ImpairmentProfile(loss=0.1, seed=7),
                    },
                    {"stream": "two_gop"},
                )
            )
            doc = get_tracer().write_chrome(str(tmp_path / "t.json"))
        finally:
            disable_tracing()
        assert result.complete
        # In-process run: one shard holding both halves; the merge and
        # join validation must still hold (shift 0).
        merged = merge_traces([doc])
        stats = validate_joins(merged)
        assert stats["joined"] == result.pictures
        stages = waterfall(merged)
        for stage in ("e2e.decode", "e2e.wire", "e2e.reassemble"):
            assert stages[stage]["count"] >= result.pictures
        assert "deadline.lateness" in stages

    def test_server_pushes_stats_with_slo_snapshot(self):
        result, report = run(
            _serve_one(
                {"fps": 120.0, "stats_push_pictures": 3},
                {"stream": "two_gop"},
            )
        )
        assert result.complete
        assert result.server_stats, "no STATS frames pushed"
        for push in result.server_stats:
            assert push["src"] == "server"
            assert push["session"] == result.session
        slo = result.slo
        assert slo is not None
        assert slo["pictures"] > 0
        assert "burn_rate" in slo and "budget_spent" in slo
        # The server's connection record carries the final SLO verdict.
        (conn,) = report["connections"]
        assert conn["slo"]["pictures"] == result.pictures

    def test_push_off_by_default(self):
        result, _ = run(_serve_one({"fps": 120.0}, {"stream": "two_gop"}))
        assert result.server_stats == []

    def test_disconnect_dumps_flight_ring(self, tmp_path):
        async def scenario():
            srv = NetServer(
                STREAMS, workers=0, fps=30.0, flight_dir=str(tmp_path)
            )
            await srv.start()
            try:
                return await stream_session(
                    "127.0.0.1", srv.port, "long", disconnect_after=2,
                )
            finally:
                scenario.report = await srv.aclose()

        result = run(scenario())
        assert result.status == "disconnected"
        dumps = scenario.report["flight_dumps"]
        assert dumps, "no flight dump after forced disconnect"
        import json as _json

        with open(dumps[0]) as fh:
            doc = _json.load(fh)
        # The ring is discarded when a session completes cleanly, and a
        # fast decode can finish before the wire notices the hangup —
        # so only the disconnect event itself is guaranteed.
        kinds = [e["kind"] for e in doc["events"]]
        assert "net.disconnected" in kinds

    def test_one_burnout_dump_per_session(self, tmp_path):
        # The edge's tracker, fed by client receipts, is the only SLO
        # judge: a session far behind a 2000 fps schedule burns its
        # budget once and leaves one dump.
        result, report = run(
            _serve_one(
                {
                    "fps": 2000.0,
                    "slo": SLOPolicy(min_pictures=1, deadline_miss_budget=0.01),
                    "flight_dir": str(tmp_path),
                },
                {"stream": "ipb"},
            )
        )
        assert result.complete
        burnouts = [p for p in report["flight_dumps"] if "slo-burnout" in p]
        assert len(burnouts) == 1, report["flight_dumps"]
        assert report["connections"][0]["slo"]["burned_out"]

    def test_wire_pictures_leave_at_the_session_deadlines(self):
        # The edge sends the first picture on arrival and picture k at
        # the session's own deadline for it, read on the service clock
        # (time.monotonic here, the clock the spans' stamps come from).
        from repro.obs import disable_tracing, enable_tracing, get_tracer
        from repro.obs.propagate import SPAN_WIRE

        async def scenario():
            srv = NetServer(STREAMS, workers=0, fps=120.0)
            await srv.start()
            try:
                result = await stream_session("127.0.0.1", srv.port, "ipb")
                return result, srv.service.sessions[result.session]
            finally:
                await srv.aclose()

        enable_tracing(process_name="net-test")
        try:
            result, sess = run(scenario())
            events = list(get_tracer().events)
        finally:
            disable_tracing()
        assert result.complete
        sent = {
            e["args"]["pic"]: e["ts"]
            for e in events
            if e["name"] == SPAN_WIRE and e["args"]["session"] == result.session
        }
        assert len(sent) == result.pictures - result.shed_pictures
        assert min(sent) == 0
        for pic, ts_ns in sent.items():
            if pic:
                # 1 us: float seconds against integer nanoseconds.
                assert ts_ns / 1e9 >= sess.pacer.deadline(pic) - 1e-6, pic

    def test_report_carries_slo_policy_and_metrics_port(self):
        async def scenario():
            srv = NetServer(STREAMS, workers=0, fps=120.0, metrics_port=0)
            await srv.start()
            try:
                import urllib.request

                from repro.obs.export import parse_exposition

                await stream_session("127.0.0.1", srv.port, "two_gop")
                url = f"http://127.0.0.1:{srv.metrics_port}/metrics"
                body = await asyncio.to_thread(
                    lambda: urllib.request.urlopen(url, timeout=5)
                    .read()
                    .decode()
                )
                return parse_exposition(body)
            finally:
                scenario.report = await srv.aclose()

        series = run(scenario())
        # The registry is process-global (other tests in this run also
        # feed it), so assert presence/floor, not exact counts.
        assert series["repro_net_pictures_sent_total"] > 0
        assert series["repro_net_sessions_accepted_total"] >= 1
        policy = scenario.report["slo_policy"]
        assert policy["deadline_miss_budget"] == 0.05
