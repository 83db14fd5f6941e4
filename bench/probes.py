"""Per-layer probes: one number per layer, timed from outside.

Each probe calls only importable public functions of one layer, on the
same seeded clips the workloads use, and returns ``{metric: value}``.
Probes are isolated from each other and from the end-to-end run: a
probe whose import, call or digest check raises reports its metrics as
``None`` and is listed under ``probe_errors``.  A probe that decodes
must reproduce the scalar-oracle digests before its times count.

Probe inputs are short (the decode-side probes tile the clip to 4
GOPs); the numbers are for comparing two commits, not for quoting.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass

from bench import streams
from bench.spans import NullRecorder
from bench.workloads import (
    GopParallel,
    NetPaced,
    SeqDecode,
    SliceParallel,
    worker_count,
)

MB = 1e6


@dataclass
class ProbeContext:
    seed: int
    smoke: bool
    workers: int
    big: streams.BuiltStream     # the decode workloads' clip
    small: streams.BuiltStream   # the network workload's clip
    rec: object                  # span recorder for the probe calls

    @property
    def reps(self) -> int:
        return 1 if self.smoke else 3

    @property
    def gops(self) -> int:
        return 2 if self.smoke else 4


def make_context(seed: int, smoke: bool, rec=None) -> ProbeContext:
    small = streams.build(streams.NET_CLIP, seed)
    big = small if smoke else streams.build(streams.DECODE_CLIP, seed)
    return ProbeContext(
        seed=seed, smoke=smoke, workers=worker_count(),
        big=big, small=small, rec=rec or NullRecorder(),
    )


def _timed(ctx: ProbeContext, name: str, fn, reps: int | None = None):
    """Median seconds of ``fn()`` over ``reps`` calls, and its last result."""
    times = []
    result = None
    for _ in range(reps or ctx.reps):
        with ctx.rec.span(name):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _check(frames, expected: list[str], what: str) -> None:
    got = [f.digest() for f in frames]
    if got != expected:
        raise AssertionError(f"{what}: output differs from the scalar oracle")


# ----------------------------------------------------------------------
# bitstream
# ----------------------------------------------------------------------
def probe_bitstream(ctx: ProbeContext) -> dict:
    from repro.bitstream.emulation import unescape_payload
    from repro.bitstream.startcodes import find_start_codes
    from repro.mpeg2.index import build_index

    data = ctx.big.tiled(ctx.gops)
    scan_s, hits = _timed(ctx, "bitstream.find_start_codes",
                          lambda: find_start_codes(data))
    index = build_index(data)
    spans = [
        (sl.payload_start, sl.payload_end)
        for gop in index.gops for pic in gop.pictures for sl in pic.slices
    ]

    def unescape_all():
        for start, end in spans:
            unescape_payload(data[start:end])

    unescape_s, _ = _timed(ctx, "bitstream.unescape_payload", unescape_all)
    payload_bytes = sum(end - start for start, end in spans)
    return {
        "bitstream.scan_mb_per_s": len(data) / MB / scan_s,
        "bitstream.unescape_mb_per_s": payload_bytes / MB / unescape_s,
        "bitstream.start_codes": len(hits),
    }


# ----------------------------------------------------------------------
# mpeg2 (and the encoder, which only set-up pays for)
# ----------------------------------------------------------------------
def _stage_times(ctx: ProbeContext, stream: streams.BuiltStream) -> dict:
    """Re-assemble the batched GOP pipeline stage by stage.

    Mirrors ``SequenceDecoder._decode_gop_batched``: unescape + parse
    every slice, assemble each picture, one dequant+IDCT over the GOP,
    then motion compensation + scatter per picture in coding order.
    """
    from repro.bitstream.emulation import unescape_payload
    from repro.mpeg2.batched import (
        assemble_picture,
        gop_dequant_idct,
        mc_scatter,
        parse_slice,
    )
    from repro.mpeg2.counters import WorkCounters
    from repro.mpeg2.decoder import SequenceDecoder
    from repro.mpeg2.frame import Frame
    from repro.mpeg2.index import build_index

    data = stream.base
    index_s, index = _timed(ctx, "mpeg2.build_index", lambda: build_index(data))
    seq = index.sequence_header
    gop = index.gops[0]
    mbw, mbh = index.mb_width, index.mb_height
    stages = {"unescape": [], "parse": [], "assemble": [], "dequant_idct": [],
              "mc_scatter": [], "whole": [], "residual": []}
    decoder = SequenceDecoder(data, index=index, engine="batched")
    clock = time.perf_counter
    # Three repetitions even in smoke mode: the first pays for lazy
    # set-up inside the layer.  Each repetition times the stages and
    # then the whole decode, so a change of machine speed between
    # repetitions does not pass for a residual.
    for _ in range(max(ctx.reps, 3)):
        t_unescape = t_parse = 0.0
        parsed = []
        have_ref = False
        with ctx.rec.span("mpeg2.parse_slice"):
            for pic in gop.pictures:
                header = pic.header()
                has_fwd = have_ref or not header.picture_type.is_reference
                slices = []
                for sl in pic.slices:
                    t0 = clock()
                    payload = unescape_payload(
                        data[sl.payload_start : sl.payload_end]
                    )
                    t1 = clock()
                    slices.append(
                        parse_slice(payload, sl.vertical_position, header,
                                    mbw, mbh, has_fwd)
                    )
                    t2 = clock()
                    t_unescape += t1 - t0
                    t_parse += t2 - t1
                parsed.append((pic, header, slices))
                have_ref = have_ref or header.picture_type.is_reference
        with ctx.rec.span("mpeg2.assemble_picture"):
            t0 = clock()
            assemblies = [assemble_picture(s) for _, _, s in parsed]
            t_assemble = clock() - t0
        with ctx.rec.span("mpeg2.gop_dequant_idct"):
            t0 = clock()
            blocks_per_pic = gop_dequant_idct(assemblies, seq)
            t_dqidct = clock() - t0
        with ctx.rec.span("mpeg2.mc_scatter"):
            t0 = clock()
            ref_old = ref_new = None
            decoded = []
            for (pic, header, _), asm, blocks in zip(
                parsed, assemblies, blocks_per_pic
            ):
                out = Frame.blank(seq.width, seq.height)
                out.temporal_reference = pic.temporal_reference
                if header.picture_type.is_reference:
                    mc_scatter(asm, blocks, out, ref_new, None)
                    ref_old, ref_new = ref_new, out
                else:
                    mc_scatter(asm, blocks, out, ref_old, ref_new)
                decoded.append(out)
            t_mc = clock() - t0
        decoded.sort(key=lambda f: f.temporal_reference)
        _check(decoded, stream.digests, "stage re-assembly")
        whole_s, frames = _timed(ctx, "mpeg2.decode_all",
                                 decoder.decode_all, 1)
        _check(frames, stream.digests, "batched decode_all")
        staged_s = t_unescape + t_parse + t_assemble + t_dqidct + t_mc
        for key, value in (
            ("unescape", t_unescape), ("parse", t_parse),
            ("assemble", t_assemble), ("dequant_idct", t_dqidct),
            ("mc_scatter", t_mc), ("whole", whole_s),
            ("residual", abs(staged_s - whole_s) / whole_s),
        ):
            stages[key].append(value)

    counters = WorkCounters()
    decoder.decode_all(counters)
    out = {k: statistics.median(v) for k, v in stages.items()}
    out.update(index=index_s, counters=counters)
    return out


def probe_mpeg2(ctx: ProbeContext) -> dict:
    n = streams.GOP_SIZE
    big = _stage_times(ctx, ctx.big)
    small = big if ctx.small is ctx.big else _stage_times(ctx, ctx.small)

    def stage_sum(t):
        return (t["unescape"] + t["parse"] + t["assemble"]
                + t["dequant_idct"] + t["mc_scatter"])

    return {
        "mpeg2.index_ms_per_picture": big["index"] / n * 1e3,
        "mpeg2.parse_ms_per_picture": big["parse"] / n * 1e3,
        "mpeg2.assemble_ms_per_picture": big["assemble"] / n * 1e3,
        "mpeg2.dequant_idct_ms_per_picture": big["dequant_idct"] / n * 1e3,
        "mpeg2.mc_scatter_ms_per_picture": big["mc_scatter"] / n * 1e3,
        "mpeg2.parse_share": big["parse"] / stage_sum(big),
        "mpeg2.parse_share_176x120": small["parse"] / stage_sum(small),
        "mpeg2.stage_residual_frac": big["residual"],
        "mpeg2.coded_blocks_per_picture": big["counters"].idct_blocks / n,
        "mpeg2.bits_per_picture": big["counters"].bits / n,
        "mpeg2.scalar_ms_per_picture": ctx.big.oracle_s / n * 1e3,
    }


def probe_video(ctx: ProbeContext) -> dict:
    return {
        "video.encode_ms_per_picture":
            ctx.big.encode_s / streams.GOP_SIZE * 1e3,
    }


# ----------------------------------------------------------------------
# exec: shared memory and planning, no decode
# ----------------------------------------------------------------------
def probe_exec(ctx: ProbeContext) -> dict:
    from repro.analysis.bandwidth import profile_stream
    from repro.exec.auto import AutoGranularity
    from repro.exec.plan import plan_gop_graph, plan_slice_graph
    from repro.exec.shm import FrameLayout, SharedFramePool, StreamArena
    from repro.mpeg2.index import build_index

    frames = ctx.big.frames
    layout = FrameLayout.for_display(ctx.big.clip.width, ctx.big.clip.height)
    pool = SharedFramePool(layout, slots=len(frames))
    try:
        def write_all():
            for slot, frame in enumerate(frames):
                pool.write_frame(slot, frame)

        def read_all():
            return [
                pool.read_frame(slot, f.temporal_reference)
                for slot, f in enumerate(frames)
            ]

        write_s, _ = _timed(ctx, "exec.write_frame", write_all)
        read_s, back = _timed(ctx, "exec.read_frame", read_all)
        _check(back, ctx.big.digests, "shared frame pool round trip")
    finally:
        pool.close()
        pool.unlink()

    data = ctx.big.tiled(ctx.gops)
    publish = []
    for _ in range(ctx.reps):
        with ctx.rec.span("exec.StreamArena"):
            t0 = time.perf_counter()
            arena = StreamArena(data)
            publish.append(time.perf_counter() - t0)
        arena.close()
        arena.unlink()

    index = build_index(data)
    profile = profile_stream(data, index=index)

    def plan():
        plan_gop_graph(index)
        plan_slice_graph(index)
        AutoGranularity(profile=profile, workers=ctx.workers).decide()

    plan_s, _ = _timed(ctx, "exec.plan", plan)
    return {
        "exec.shm_write_ms_per_frame": write_s / len(frames) * 1e3,
        "exec.shm_read_ms_per_frame": read_s / len(frames) * 1e3,
        "exec.arena_publish_ms": statistics.median(publish) * 1e3,
        "exec.plan_ms": plan_s * 1e3,
    }


# ----------------------------------------------------------------------
# parallel: the decompositions against the sequential decoder
# ----------------------------------------------------------------------
def _passes(ctx: ProbeContext, workload, count: int) -> list:
    out = []
    for i in range(count):
        result = workload.run_pass(ctx.rec, i)
        if result.failures:
            raise AssertionError(f"{workload.name}: {result.failures}")
        out.append(result)
    return out


def _pps(passes) -> float:
    return statistics.median(p.rate for p in passes)


def _cpu_per_picture(passes) -> float:
    return statistics.median(p.cpu_s / p.delivered for p in passes)


def probe_parallel(ctx: ProbeContext) -> dict:
    from repro.exec import TaskGraphExecutor
    from repro.exec.backend import shutdown_persistent_pools

    def attached(cls, **attrs):
        workload = cls(ctx.seed, ctx.smoke)
        workload.attach(ctx.big, ctx.gops)
        for key, value in attrs.items():
            setattr(workload, key, value)
        return workload

    warm = 1 if ctx.smoke else 3
    few = 1 if ctx.smoke else 2
    shutdown_persistent_pools()     # so the first GOP pass pays the fork
    try:
        seq = _passes(ctx, attached(SeqDecode), few)
        gop_wl = attached(GopParallel)
        cold = _passes(ctx, gop_wl, 1)[0]
        gop = _passes(ctx, gop_wl, warm)
        inproc = _passes(ctx, attached(GopParallel, workers=0), 1)
        improved = _passes(ctx, attached(SliceParallel), few)
        simple = _passes(ctx, attached(SliceParallel, mode="simple"), few)

        def auto():
            return TaskGraphExecutor(
                gop_wl.data, grain="auto", engine="auto", workers=ctx.workers
            ).decode_all()

        auto_s, frames = _timed(ctx, "exec.TaskGraphExecutor.auto", auto, few)
        _check(frames, gop_wl.expected, "auto-granularity decode")
    finally:
        shutdown_persistent_pools()

    gop_wall = statistics.median(p.wall_s for p in gop)
    gop_stalls = gop[-1].extra["stalls"]
    improved_stalls = improved[-1].extra["stalls"]
    simple_stalls = simple[-1].extra["stalls"]
    speedup = _pps(gop) / _pps(seq)
    return {
        "parallel.gop.speedup": speedup,
        "parallel.gop.efficiency": speedup / ctx.workers,
        "parallel.gop.cpu_inflation":
            _cpu_per_picture(gop) / _cpu_per_picture(seq),
        "parallel.gop.workers0_ratio": _pps(inproc) / _pps(seq),
        "parallel.gop.stall.queue_get": gop_stalls.get("queue.get", 0.0),
        "parallel.gop.stall.merge_reorder":
            gop_stalls.get("merge.reorder", 0.0),
        "parallel.slice_improved.speedup": _pps(improved) / _pps(seq),
        "parallel.slice_improved.cpu_inflation":
            _cpu_per_picture(improved) / _cpu_per_picture(seq),
        "parallel.slice_simple.speedup": _pps(simple) / _pps(seq),
        # The improved policy has no barrier by construction; the
        # barrier share is the simple policy's.
        "parallel.slice.stall.barrier": simple_stalls.get("barrier", 0.0),
        "parallel.slice.stall.ref_publish":
            improved_stalls.get("ref.publish", 0.0),
        "parallel.slice.stall.queue_get":
            improved_stalls.get("queue.get", 0.0),
        "parallel.first_picture_ratio":
            statistics.median(p.first_s[0] for p in gop)
            / statistics.median(p.first_s[0] for p in improved),
        "exec.pool_cold_start_ms": (cold.wall_s - gop_wall) * 1e3,
        "exec.frame_pool_mb": gop[-1].extra["pool_bytes"] / 2**20,
        "exec.auto_vs_gop_ratio": auto_s / gop_wall,
    }


# ----------------------------------------------------------------------
# serve: scheduling and the session service, unpaced
# ----------------------------------------------------------------------
def probe_serve(ctx: ProbeContext) -> dict:
    from repro.parallel.mp import MPGopDecoder
    from repro.serve.scheduler import Scheduler
    from repro.serve.service import DecodeService
    from repro.serve.session import StreamSession

    gops = 2 if ctx.smoke else 3
    data = ctx.small.tiled(gops)
    expected = ctx.small.expected(gops * streams.GOP_SIZE)
    sessions = ctx.workers
    tasks = StreamSession("probe", data).tasks()

    def schedule():
        scheduler = Scheduler(capacity=1)
        scheduler.submit("probe", tasks)
        while (task := scheduler.next_task()) is not None:
            scheduler.complete(task)

    sched_s, _ = _timed(ctx, "serve.Scheduler", schedule, 20)

    submits = 8
    idle = DecodeService(workers=0, fps=None, capacity=submits)
    t0 = time.perf_counter()
    with ctx.rec.span("serve.submit"):
        for i in range(submits):
            idle.submit(f"s{i}", data)
    submit_s = (time.perf_counter() - t0) / submits

    service = DecodeService(workers=ctx.workers, fps=None, capacity=sessions)
    shown: dict[str, list] = {f"s{i}": [] for i in range(sessions)}
    for name, sink in shown.items():
        service.submit(name, data, on_frame=lambda _i, f, sink=sink: sink.append(f))
    with ctx.rec.span("serve.DecodeService.run"):
        t0 = time.perf_counter()
        report = service.run()
        multi_s = time.perf_counter() - t0
    if report["status_counts"] != {"done": sessions}:
        raise AssertionError(f"sessions ended {report['status_counts']}")
    shed = 0
    for frames in shown.values():
        shed += sum(1 for f in frames if f is None)
        _check([f for f in frames if f is not None], expected, "serve session")
    stalls = service.stall_breakdown()

    def direct():
        for _ in range(sessions):
            frames = MPGopDecoder(data, workers=ctx.workers).decode_all()
        return frames

    try:
        direct()                    # fork the persistent pool first
        direct_s, frames = _timed(ctx, "parallel.MPGopDecoder.direct", direct)
        _check(frames, expected, "direct GOP decode")
    finally:
        from repro.exec.backend import shutdown_persistent_pools

        shutdown_persistent_pools()
    pictures = sessions * len(expected)
    return {
        "serve.sched_us_per_task": sched_s / len(tasks) * 1e6,
        "serve.submit_ms": submit_s * 1e3,
        "serve.multi.pictures_per_s": pictures / multi_s,
        "serve.vs_exec_ratio": direct_s / multi_s,
        "serve.stall.queue_get": stalls.get("queue.get", 0.0),
        "serve.stall.admission_queued":
            stalls.get("degrade.admission_wait", 0.0),
        "serve.pictures_shed": shed,
    }


# ----------------------------------------------------------------------
# net: wire codec micro-costs, then a short paced run
# ----------------------------------------------------------------------
def probe_net(ctx: ProbeContext) -> dict:
    from repro.mpeg2.frame import Frame
    from repro.mpeg2.reconstruct import conceal_rows
    from repro.net.protocol import (
        MSG_SLICE,
        StreamFramer,
        band_bytes,
        band_into,
        encode_message,
    )

    frame, previous = ctx.small.frames[1], ctx.small.frames[0]
    rows = frame.mb_height
    loops = 5 if ctx.smoke else 40

    def serialise():
        return [band_bytes(frame, row) for _ in range(loops) for row in range(rows)]

    bands_s, bands = _timed(ctx, "net.band_bytes", serialise)

    def encode():
        return [
            encode_message(MSG_SLICE, seq, {"pic": 1, "row": seq % rows, "ts": seq},
                           band)
            for seq, band in enumerate(bands)
        ]

    encode_s, messages = _timed(ctx, "net.encode_message", encode)
    wire = b"".join(messages)

    def frame_all():
        framer = StreamFramer()
        count = 0
        for at in range(0, len(wire), 65536):
            count += len(framer.feed(wire[at : at + 65536]))
        return count

    framer_s, count = _timed(ctx, "net.StreamFramer.feed", frame_all)
    if count != len(messages):
        raise AssertionError("framer lost messages")

    target = Frame.blank(frame.display_width, frame.display_height)

    def scatter():
        for i, band in enumerate(bands):
            band_into(target, i % rows, band)

    into_s, _ = _timed(ctx, "net.band_into", scatter)
    if not target.same_pixels(frame):
        raise AssertionError("band round trip changed pixels")

    def conceal():
        for _ in range(loops):
            for row in range(rows):
                conceal_rows(target, previous, [row])

    conceal_s, _ = _timed(ctx, "net.conceal_rows", conceal)

    paced = NetPaced(ctx.seed, ctx.smoke)
    try:
        paced.setup(stream=ctx.small)
        rounds = _passes(ctx, paced, 1 if ctx.smoke else 3)
    finally:
        paced.close()
    pictures = sum(p.delivered for p in rounds)
    lateness = sorted(s for p in rounds for s in p.extra["lateness_s"])
    dropped = sum(p.extra["slices_dropped"] for p in rounds)
    concealed = sum(p.extra["slices_concealed"] for p in rounds)
    return {
        "net.encode_us_per_msg": encode_s / len(messages) * 1e6,
        "net.framer_mb_per_s": len(wire) / MB / framer_s,
        "net.band_bytes_us_per_row": bands_s / len(bands) * 1e6,
        "net.band_into_us_per_row": into_s / len(bands) * 1e6,
        "net.conceal_us_per_row": conceal_s / (loops * rows) * 1e6,
        "net.wire_bytes_per_picture":
            sum(p.extra["wire_bytes"] for p in rounds) / pictures,
        "net.slices_dropped": dropped,
        "net.slices_concealed": concealed,
        "net.lateness_p50_ms": _percentile(lateness, 0.50) * 1e3,
        "net.lateness_p95_ms": _percentile(lateness, 0.95) * 1e3,
        "net.lateness_samples": len(lateness),
        "net.edge_cpu_ms_per_picture":
            sum(p.cpu_own_s for p in rounds) / pictures * 1e3,
        "net.decode_cpu_ms_per_picture":
            sum(p.cpu_children_s for p in rounds) / pictures * 1e3,
    }


def _percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# access
# ----------------------------------------------------------------------
def probe_access(ctx: ProbeContext) -> dict:
    from repro.access import plan_trick, trick_decode
    from repro.mpeg2.index import build_index

    data = ctx.big.tiled(ctx.gops)
    index = build_index(data)
    digests = ctx.big.digests
    # Into the last GOP, so the call decodes exactly one GOP: the
    # time from a seek request to its first picture.
    target = index.picture_count - streams.GOP_SIZE // 2

    plan_s, _ = _timed(ctx, "access.plan_trick",
                       lambda: plan_trick(index, "seek", target), 20)

    def check(pairs, what):
        for display_index, frame in pairs:
            if frame.digest() != digests[display_index % streams.GOP_SIZE]:
                raise AssertionError(f"{what}: picture {display_index} differs")

    seek_s, pairs = _timed(
        ctx, "access.trick_decode.seek",
        lambda: trick_decode(data, "seek", target, index=index),
    )
    check(pairs, "seek")
    ff_s, pairs = _timed(
        ctx, "access.trick_decode.ff4",
        lambda: trick_decode(data, "ff4", index=index),
    )
    check(pairs, "ff4")
    return {
        "access.plan_us": plan_s * 1e6,
        "access.seek_first_picture_ms": seek_s * 1e3,
        "access.ff4_pictures_per_s": len(pairs) / ff_s,
    }


# ----------------------------------------------------------------------
# obs: what the program's own tracer costs
# ----------------------------------------------------------------------
def probe_obs(ctx: ProbeContext) -> dict:
    from repro.mpeg2.decoder import SequenceDecoder
    from repro.obs.trace import (
        disable_tracing,
        enable_tracing,
        get_tracer,
        trace_span,
    )

    data = ctx.big.tiled(2)
    pictures = 2 * streams.GOP_SIZE

    def decode():
        t0 = time.perf_counter()
        SequenceDecoder(data, engine="batched").decode_all()
        return time.perf_counter() - t0

    off, on, events = [], [], 0
    decode()
    for _ in range(max(ctx.reps, 2)):
        with ctx.rec.span("obs.tracing_off"):
            off.append(decode())
        with ctx.rec.span("obs.tracing_on"):
            enable_tracing(process_name="bench obs probe")
            try:
                on.append(decode())
                events = len(get_tracer().events)
            finally:
                disable_tracing()

    loops = 20_000 if ctx.smoke else 200_000
    t0 = time.perf_counter()
    for _ in range(loops):
        with trace_span("bench.probe"):
            pass
    span_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(loops):
        pass
    empty_s = time.perf_counter() - t0
    return {
        "obs.trace_overhead_frac":
            (statistics.median(on) - statistics.median(off))
            / statistics.median(off),
        "obs.trace_events_per_picture": events / pictures,
        "obs.disabled_span_ns": (span_s - empty_s) / loops * 1e9,
    }


# ----------------------------------------------------------------------
#: (probe, the metrics it owns).  BENCHMARK.json's per_layer list is
#: these names plus the ``bench.*`` metrics of the traced passes.
PROBES = (
    (probe_bitstream, (
        "bitstream.scan_mb_per_s", "bitstream.unescape_mb_per_s",
        "bitstream.start_codes",
    )),
    (probe_mpeg2, (
        "mpeg2.index_ms_per_picture", "mpeg2.parse_ms_per_picture",
        "mpeg2.assemble_ms_per_picture", "mpeg2.dequant_idct_ms_per_picture",
        "mpeg2.mc_scatter_ms_per_picture", "mpeg2.parse_share",
        "mpeg2.parse_share_176x120", "mpeg2.stage_residual_frac",
        "mpeg2.coded_blocks_per_picture", "mpeg2.bits_per_picture",
        "mpeg2.scalar_ms_per_picture",
    )),
    (probe_video, ("video.encode_ms_per_picture",)),
    (probe_exec, (
        "exec.shm_write_ms_per_frame", "exec.shm_read_ms_per_frame",
        "exec.arena_publish_ms", "exec.plan_ms",
    )),
    (probe_parallel, (
        "parallel.gop.speedup", "parallel.gop.efficiency",
        "parallel.gop.cpu_inflation", "parallel.gop.workers0_ratio",
        "parallel.gop.stall.queue_get", "parallel.gop.stall.merge_reorder",
        "parallel.slice_improved.speedup",
        "parallel.slice_improved.cpu_inflation",
        "parallel.slice_simple.speedup", "parallel.slice.stall.barrier",
        "parallel.slice.stall.ref_publish", "parallel.slice.stall.queue_get",
        "parallel.first_picture_ratio", "exec.pool_cold_start_ms",
        "exec.frame_pool_mb", "exec.auto_vs_gop_ratio",
    )),
    (probe_serve, (
        "serve.sched_us_per_task", "serve.submit_ms",
        "serve.multi.pictures_per_s", "serve.vs_exec_ratio",
        "serve.stall.queue_get", "serve.stall.admission_queued",
        "serve.pictures_shed",
    )),
    (probe_net, (
        "net.encode_us_per_msg", "net.framer_mb_per_s",
        "net.band_bytes_us_per_row", "net.band_into_us_per_row",
        "net.conceal_us_per_row", "net.wire_bytes_per_picture",
        "net.slices_dropped", "net.slices_concealed", "net.lateness_p50_ms",
        "net.lateness_p95_ms", "net.lateness_samples",
        "net.edge_cpu_ms_per_picture", "net.decode_cpu_ms_per_picture",
    )),
    (probe_access, (
        "access.plan_us", "access.seek_first_picture_ms",
        "access.ff4_pictures_per_s",
    )),
    (probe_obs, (
        "obs.trace_overhead_frac", "obs.trace_events_per_picture",
        "obs.disabled_span_ns",
    )),
)


def probe_metric_names() -> list[str]:
    return [name for _fn, names in PROBES for name in names]


def run_all(ctx: ProbeContext) -> tuple[dict, dict]:
    """Run every probe; return ``(values, errors)``.

    ``values`` has every probe metric, ``None`` where its probe failed;
    ``errors`` maps a failed probe's name to its traceback tail.
    """
    values: dict = {}
    errors: dict = {}
    for fn, names in PROBES:
        try:
            with ctx.rec.span(f"bench.{fn.__name__}"):
                got = fn(ctx)
            missing = set(names) - set(got)
            if missing:
                raise KeyError(f"probe did not report {sorted(missing)}")
            values.update({name: got[name] for name in names})
        except Exception:
            # A probe reaches into internals a later change may remove;
            # its failure must not take the ledger or the run with it.
            values.update({name: None for name in names})
            errors[fn.__name__] = traceback.format_exc(limit=3)
    return values, errors
