"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``encode``    synthesize a test clip and encode it to an .m2v file
``info``      scan a stream and print its structure (the scan process)
``decode``    decode a stream; optionally dump frames as PGM files
``serve``     decode many streams concurrently on one shared worker pool
``net-serve`` publish streams over TCP (paced slices, optional loss shim)
``net-client`` stream one session from a net-serve and report delivery
``simulate``  run a parallel decoder on the simulated multiprocessor
"""

from __future__ import annotations

import argparse
import os
import sys


def _write_trace(path: str) -> None:
    """Write the run's Chrome trace (``--trace``) and stop tracing."""
    from repro.obs import disable_tracing, get_tracer

    doc = get_tracer().write_chrome(path)
    disable_tracing()
    print(
        f"wrote {len(doc['traceEvents'])} trace events to {path} "
        f"(open in https://ui.perfetto.dev or chrome://tracing)"
    )


def _read_streams(
    specs: list[str], weighted: bool = False
) -> list[tuple[str, bytes, float]]:
    """``--streams`` as ``(name, bytes, weight)``: each file named after
    its basename, a repeat of a name as ``name#2``, ``name#3``, ...
    With ``weighted``, a ``PATH=W`` spec that is not itself a file sets
    a weight, which must be a number > 0 (``ValueError`` otherwise)."""
    streams: list[tuple[str, bytes, float]] = []
    names: set[str] = set()
    for spec in specs:
        path, weight = spec, 1.0
        if weighted and "=" in spec and not os.path.exists(spec):
            path, _, w = spec.rpartition("=")
            bad = ValueError(f"weight in {spec!r} must be a number > 0")
            try:
                weight = float(w)
            except ValueError:
                raise bad from None
            if not weight > 0:
                raise bad
        name = base = os.path.splitext(os.path.basename(path))[0]
        n = 2
        while name in names:
            name = f"{base}#{n}"
            n += 1
        names.add(name)
        with open(path, "rb") as fh:
            streams.append((name, fh.read(), weight))
    return streams


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.mpeg2.encoder import EncoderConfig, encode_sequence
    from repro.video.synthetic import SyntheticVideo

    try:
        video = SyntheticVideo(
            width=args.width, height=args.height, seed=args.seed
        )
        config = EncoderConfig(
            gop_size=args.gop_size,
            qscale_code=args.qscale,
            target_bits_per_picture=(
                int(args.bit_rate / 30.0) if args.bit_rate else None
            ),
            bit_rate=args.bit_rate or 5_000_000,
        )
        config.check_frame_count(args.frames)
    except ValueError as exc:
        # Frame size, quantiser and GOP-multiple errors are usage errors.
        print(f"encode: {exc}", file=sys.stderr)
        return 2
    frames = video.frames(args.frames)
    data = encode_sequence(frames, config)
    with open(args.output, "wb") as fh:
        fh.write(data)
    rate = len(data) * 8 * 30 / len(frames)
    print(
        f"encoded {len(frames)} pictures {args.width}x{args.height} -> "
        f"{args.output} ({len(data):,} bytes, {rate/1e6:.2f} Mb/s at 30 pics/s)"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis import TextTable
    from repro.mpeg2.index import build_index

    with open(args.input, "rb") as fh:
        data = fh.read()
    idx = build_index(data)
    seq = idx.sequence_header
    print(
        f"{args.input}: {seq.width}x{seq.height} @ {seq.frame_rate} pics/s, "
        f"{seq.bit_rate/1e6:.2f} Mb/s nominal, {len(data):,} bytes"
    )
    print(
        f"{len(idx.gops)} GOPs, {idx.picture_count} pictures, "
        f"{idx.slice_count} slices ({idx.slices_per_picture}/picture)"
    )
    table = TextTable(["GOP", "pictures", "types (coding order)", "bytes"])
    for gi, gop in enumerate(idx.gops[: args.max_gops]):
        types = "".join(p.picture_type.letter for p in gop.pictures)
        table.add_row(gi, len(gop.pictures), types, gop.wire_bytes)
    print(table.render())
    if len(idx.gops) > args.max_gops:
        print(f"... ({len(idx.gops) - args.max_gops} more GOPs)")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    from repro.mpeg2.counters import WorkCounters
    from repro.mpeg2.decoder import SequenceDecoder
    from repro.obs import (
        enable_tracing,
        format_stall_breakdown,
        metrics,
        reset_metrics,
    )

    with open(args.input, "rb") as fh:
        data = fh.read()
    if args.trace:
        enable_tracing(process_name="main (scan+merge)")
    reset_metrics()
    counters = WorkCounters()
    mp_decoder = None
    trick = (
        args.seek is not None
        or args.rate != 1
        or args.reverse
        or args.iframes
    )
    if trick:
        from repro.access import trick_decode, trick_decode_mp

        if sum(map(bool, (args.reverse, args.iframes, args.rate != 1))) > 1:
            print(
                "decode: --reverse, --iframes and --rate are exclusive",
                file=sys.stderr,
            )
            return 2
        if args.reverse:
            mode = "reverse"
        elif args.iframes:
            mode = "iframes"
        elif args.rate != 1:
            # With --seek, fast-forward joins at the closed GOP owning
            # the target, the way the net server does.
            mode = f"ff{args.rate}"
        else:
            mode = "seek"
        target = args.seek or 0
        if args.workers is not None:
            pairs = trick_decode_mp(
                data, mode, target=target, workers=args.workers,
                resilient=args.resilient, counters=counters,
            )
        else:
            engine = "batched" if args.engine == "auto" else args.engine
            pairs = trick_decode(
                data, mode, target=target, engine=engine,
                resilient=args.resilient, counters=counters,
            )
        frames = [f for _, f in pairs]
        # Dump under the *display* index so a seek tail diffs 1:1
        # against the same files from a linear decode.
        dump_indices = [d for d, _ in pairs]
        print(
            f"trick-play {mode}: {len(frames)} pictures (display indices "
            f"{min(dump_indices)}..{max(dump_indices)})"
        )
    elif (
        args.grain is not None
        or args.engine == "auto"
        or args.workers is not None
    ):
        # The unified executor path: a live task graph, grain and
        # engine pinned or resolved by the fixed ``auto`` rule.
        from repro.exec import TaskGraphExecutor
        from repro.exec.auto import resolve

        grain = args.grain or "auto"
        try:
            resolve(grain, args.engine)
        except ValueError as exc:
            print(f"decode: {exc}", file=sys.stderr)
            return 2
        ex = TaskGraphExecutor(
            data,
            grain=grain,
            engine=args.engine,
            workers=args.workers,
            mode=args.barrier,
            resilient=args.resilient,
        )
        frames = ex.decode_all(counters)
        mp_decoder = ex
        mode = (
            f"{ex.workers} worker processes"
            if ex.workers
            else "in-process fallback"
        )
        d = ex.decision
        print(
            f"executor decode ({mode}, grain {d.grain}, engine {d.engine}, "
            f"{d.reason})"
        )
    else:
        decoder = SequenceDecoder(
            data, resilient=args.resilient, engine=args.engine
        )
        frames = decoder.decode_all(counters)
    print(
        f"decoded {len(frames)} pictures; {counters.macroblocks:,} macroblocks, "
        f"{counters.coefficients:,} coefficients, {counters.bits:,} bits"
    )
    if counters.concealed_slices:
        print(f"concealed {counters.concealed_slices} corrupt slices")
    if args.trace:
        _write_trace(args.trace)
    if args.stats:
        print()
        print(metrics().render_table())
        if mp_decoder is not None and mp_decoder.last_stalls:
            print()
            print(
                format_stall_breakdown(
                    mp_decoder.stall_breakdown(),
                    title="stall breakdown (% of process time, real mp run)",
                )
            )
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        if not trick:
            dump_indices = range(len(frames))
        for i, frame in zip(dump_indices, frames):
            y, _, _ = frame.display_view()
            path = os.path.join(args.dump_dir, f"frame{i:04d}.pgm")
            with open(path, "wb") as fh:
                fh.write(f"P5\n{y.shape[1]} {y.shape[0]}\n255\n".encode())
                fh.write(y.tobytes())
        print(f"wrote {len(frames)} PGM luma frames to {args.dump_dir}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis import TextTable, format_bytes
    from repro.obs import (
        enable_tracing,
        format_stall_breakdown,
        metrics,
        reset_metrics,
    )
    from repro.serve import DecodeService

    try:
        streams = _read_streams(args.streams, weighted=True)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        enable_tracing(process_name="serve (scheduler+display)")
    reset_metrics()
    svc = DecodeService(
        workers=args.workers,
        fps=args.fps,
        capacity=args.capacity,
        max_queue=args.max_queue,
        max_inflight=args.max_inflight,
        resilient=args.resilient,
        task_timeout_s=args.task_timeout,
        preroll_pictures=args.preroll,
    )
    for name, data, weight in streams:
        svc.submit(name, data, weight=weight)
    report = svc.run()

    table = TextTable(
        ["session", "status", "pictures", "emitted", "dropped",
         "b-shed", "gop-skip", "late", "max late ms"],
        title=(
            f"serve: {len(svc.sessions)} sessions, {svc.workers} workers, "
            f"capacity {svc.capacity}"
            + (f", {args.fps:g} fps deadlines" if args.fps else "")
        ),
    )
    for sess in svc.sessions.values():
        dl = sess.pacer.summary() if sess.pacer.enabled else None
        table.add_row(
            sess.name,
            sess.status.value,
            sess.picture_count,
            sess.emitted_pictures,
            sess.dropped_pictures,
            sess.dropped_b_tasks,
            sess.skipped_gops,
            dl["late_pictures"] if dl else "-",
            round(dl["max_lateness_s"] * 1e3, 1) if dl else "-",
        )
    print(table.render())
    dl = report["deadline"]
    print(
        f"wall {report['wall_seconds']:.2f}s, "
        f"frame pools {format_bytes(report['pool_bytes'])}, "
        f"deadline misses {dl['missed']}/{dl['emitted']} "
        f"({dl['miss_fraction'] * 100:.1f}%)"
    )
    for sess in svc.sessions.values():
        if sess.error is not None:
            print(
                f"  {sess.name}: {sess.error['type']}: "
                f"{sess.error['message']} (contained)"
            )
    if args.trace:
        _write_trace(args.trace)
    if args.stats:
        print()
        print(metrics().render_table())
        if svc.last_stalls:
            print()
            print(
                format_stall_breakdown(
                    svc.stall_breakdown(),
                    title="stall breakdown (% of process time, serve run)",
                )
            )
    if args.report:
        import json

        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"wrote service report to {args.report}")
    failed = sum(
        1 for s in svc.sessions.values() if s.status.value == "failed"
    )
    return 1 if failed == len(svc.sessions) and svc.sessions else 0


def _cmd_net_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.net.impair import ImpairmentProfile
    from repro.net.server import NetServer
    from repro.obs import enable_tracing
    from repro.obs.slo import SLOPolicy

    if args.trace:
        enable_tracing(process_name="net-serve (acceptor+service)")
    streams = {name: data for name, data, _ in _read_streams(args.streams)}

    impairment = None
    if args.loss or args.reorder or args.jitter_ms or args.bandwidth:
        impairment = ImpairmentProfile(
            loss=args.loss,
            reorder=args.reorder,
            jitter_ms=args.jitter_ms,
            bandwidth_bps=args.bandwidth or None,
            seed=args.seed,
        )

    objectives = {
        key: value
        for key, value in (
            ("deadline_miss_budget", args.slo_miss_budget),
            ("p99_lateness_ms", args.slo_p99_ms),
        )
        if value is not None
    }
    slo = SLOPolicy(**objectives) if objectives else None

    async def serve() -> dict:
        srv = NetServer(
            streams,
            workers=args.workers,
            fps=args.fps,
            capacity=args.capacity,
            link_bps=args.link_bps,
            impairment=impairment,
            preroll_pictures=args.preroll,
            host=args.host,
            port=args.port,
            metrics_port=args.metrics_port,
            slo=slo,
            stats_push_pictures=args.stats_push,
            flight_dir=args.flight_dir,
        )
        await srv.start()
        if srv.metrics_port is not None:
            print(
                "metrics exposition on "
                f"http://{srv.host}:{srv.metrics_port}/metrics"
            )
        shim = (
            f", impaired (loss {args.loss:.0%}, reorder {args.reorder:.0%},"
            f" jitter {args.jitter_ms:g}ms"
            + (f", {args.bandwidth / 1e6:g} Mb/s cap" if args.bandwidth else "")
            + ")"
            if impairment
            else ""
        )
        print(
            f"net-serve on {srv.host}:{srv.port} — {len(streams)} streams "
            f"@ {args.fps:g} fps{shim}"
        )
        for name in sorted(streams):
            p = srv.profiles.get(name)
            detail = (
                f"{p.pictures} pictures, mean {p.mean_bps / 1e6:.2f} Mb/s, "
                f"peak {p.peak_bps / 1e6:.2f} Mb/s ({p.burstiness:.2f}x)"
                if p
                else f"UNSCANNABLE ({srv.profile_errors[name]})"
            )
            print(f"  {name}: {detail}")
        try:
            if args.duration:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # Ctrl-C stops the server
        finally:
            report = await srv.aclose()
        return report

    try:
        report = asyncio.run(serve())
    except KeyboardInterrupt:
        print("\ninterrupted")
        return 0
    counts = report["service"]["status_counts"]
    print(
        f"served {len(report['connections'])} connections; "
        f"sessions {counts or '{}'}; client-concealed slices "
        f"{report['client_concealed_slices']}"
    )
    if report.get("flight_dumps"):
        print(
            f"flight-recorder dumps ({len(report['flight_dumps'])}):"
        )
        for path in report["flight_dumps"]:
            print(f"  {path}")
    if args.trace:
        _write_trace(args.trace)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"wrote server report to {args.report}")
    return 0


def _cmd_net_client(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.net.client import stream_session
    from repro.obs import enable_tracing

    if args.trace:
        enable_tracing(process_name=f"net-client ({args.stream})")
    result = asyncio.run(
        stream_session(
            args.host, args.port, args.stream, timeout_s=args.timeout,
            disconnect_after=args.disconnect_after,
            seek=args.seek, rate=args.rate,
        )
    )
    if args.trace:
        _write_trace(args.trace)
    j = result.to_json()
    print(
        f"{args.stream}: {j['status']} — {j['pictures']} pictures "
        f"({j['delivered']} intact, {j['concealed_pictures']} concealed, "
        f"{j['shed_pictures']} shed, {j['abandoned']} abandoned)"
    )
    if j.get("join_gop") or j.get("rate", 1) != 1:
        print(
            f"trick-play: joined at GOP {j['join_gop']} "
            f"(display base {j['join_display_base']}), rate {j['rate']}x"
        )
    if j["concealed_slices"]:
        per = result.stalls.by_reason()
        detail = ", ".join(
            f"{reason} {t * 1e3:.2f}ms" for reason, t in sorted(per.items())
        )
        print(f"concealed {j['concealed_slices']} slices ({detail})")
    if j["lateness"] is not None:
        late = j["lateness"]
        print(
            f"deadlines: {late['late_pictures']}/{late['emitted']} late, "
            f"max {late['max_lateness_s'] * 1e3:.1f} ms"
        )
    if j["slo"] is not None:
        slo = j["slo"]
        breaches = ", ".join(slo["breaches"]) or "none"
        print(
            f"server SLO: budget spent {slo['budget_spent']:.2f}, "
            f"burn rate {slo['burn_rate']:.2f}, breaches: {breaches} "
            f"({j['server_stats_pushes']} pushes)"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(j, fh, indent=2)
        print(f"wrote client report to {args.json}")
    if args.disconnect_after is not None and result.status == "disconnected":
        return 0  # the hangup was the point
    return 0 if result.complete else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis import TextTable, format_bytes
    from repro.parallel import (
        GopLevelDecoder,
        MacroblockLevelDecoder,
        ParallelConfig,
        SliceLevelDecoder,
        SliceMode,
        profile_stream,
    )
    from repro.parallel.profile import tile_profile
    from repro.smp import challenge, dash

    with open(args.input, "rb") as fh:
        data = fh.read()
    profile = profile_stream(data)
    if args.repeat > 1:
        profile = tile_profile(profile, args.repeat)

    if args.machine == "dash":
        machine = dash(max(args.processors, args.workers + 2))
    else:
        machine = challenge(max(args.processors, args.workers + 2))
    config = ParallelConfig(
        workers=args.workers,
        machine=machine,
        display_rate_hz=args.rate,
        display_preroll_pictures=args.preroll,
    )

    if args.decoder == "gop":
        result = GopLevelDecoder(profile).run(config)
    elif args.decoder == "slice-simple":
        result = SliceLevelDecoder(profile).run(config, SliceMode.SIMPLE)
    elif args.decoder == "slice-improved":
        result = SliceLevelDecoder(profile).run(config, SliceMode.IMPROVED)
    elif args.decoder == "macroblock":
        result = MacroblockLevelDecoder(profile).run(config)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.decoder)

    table = TextTable(["metric", "value"], title=f"{args.decoder} decoder, {machine.name}")
    table.add_row("pictures", result.picture_count)
    table.add_row("simulated seconds", round(result.finish_seconds, 2))
    table.add_row("pictures/second", round(result.pictures_per_second, 2))
    table.add_row("peak memory", format_bytes(result.peak_memory))
    table.add_row("mean sync/exec", round(result.mean_sync_ratio, 4))
    if args.rate:
        table.add_row("late pictures", result.late_pictures)
        table.add_row("max lateness s", round(result.max_lateness_seconds, 3))
    print(table.render())
    if args.stats and hasattr(result, "stall_breakdown"):
        from repro.obs import format_stall_breakdown

        print()
        print(
            format_stall_breakdown(
                result.stall_breakdown(),
                title="stall breakdown (% of process time, simulated run)",
            )
        )
    return 0


def _add_run_flags(
    cmd: argparse.ArgumentParser,
    workers: tuple[int | None, str],
    trace: str,
    stats: str | None = None,
    report: str | None = None,
) -> None:
    """The flags every decoding command shares: ``--workers N`` (its
    default and help), ``--trace OUT.json`` and, where the command has
    them, ``--stats`` and ``--report OUT.json``."""
    default, workers_help = workers
    cmd.add_argument("--workers", type=int, default=default, metavar="N",
                     help=workers_help)
    cmd.add_argument("--trace", metavar="OUT.json", help=trace)
    if stats is not None:
        cmd.add_argument("--stats", action="store_true", help=stats)
    if report is not None:
        cmd.add_argument("--report", metavar="OUT.json", help=report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel MPEG-2 decoding reproduction (IPPS 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a synthetic clip")
    enc.add_argument("output")
    enc.add_argument("--width", type=int, default=176)
    enc.add_argument("--height", type=int, default=120)
    enc.add_argument("--frames", type=int, default=26)
    enc.add_argument("--gop-size", type=int, default=13)
    enc.add_argument("--qscale", type=int, default=3)
    enc.add_argument("--seed", type=int, default=0)
    enc.add_argument("--bit-rate", type=int, default=None,
                     help="enable rate control toward this bits/second")
    enc.set_defaults(func=_cmd_encode)

    info = sub.add_parser("info", help="print stream structure")
    info.add_argument("input")
    info.add_argument("--max-gops", type=int, default=8)
    info.set_defaults(func=_cmd_info)

    dec = sub.add_parser("decode", help="decode a stream")
    dec.add_argument("input")
    dec.add_argument("--dump-dir", help="write luma planes as PGM files")
    dec.add_argument("--resilient", action="store_true",
                     help="conceal corrupt slices instead of failing")
    dec.add_argument("--barrier", default="improved",
                     choices=["simple", "improved"],
                     help="slice-level synchronisation: barrier after "
                          "every picture (simple) or only after "
                          "reference pictures (improved)")
    dec.add_argument("--engine", default="batched",
                     choices=["scalar", "batched", "auto"],
                     help="decode engine (bit-identical either way); "
                          "'auto' is batched; slice grain is batched only")
    dec.add_argument("--grain", default=None,
                     choices=["auto", "gop", "slice"],
                     help="parallel decomposition (repro.exec): whole "
                          "closed GOPs (Section 5.1) or slices (Section "
                          "5.2); 'auto' (the default with --workers) is "
                          "GOP grain")
    dec.add_argument("--seek", type=int, default=None, metavar="PIC",
                     help="trick-play: start at the closed GOP owning "
                          "display picture PIC (bit-identical to the "
                          "same tail of a linear decode)")
    dec.add_argument("--rate", type=int, default=1, choices=[1, 2, 4],
                     help="trick-play: fast-forward at Nx (reference "
                          "pictures only, every (N/2)-th GOP); "
                          "composes with --seek")
    dec.add_argument("--reverse", action="store_true",
                     help="trick-play: emit pictures in reverse display "
                          "order (GOPs last-to-first)")
    dec.add_argument("--iframes", action="store_true",
                     help="trick-play: emit only each GOP's I picture")
    _add_run_flags(
        dec,
        workers=(None, "decode on N real worker processes "
                       "(repro.exec; 0 = in-process fallback)"),
        trace="record a Chrome trace-event timeline (spans "
              "from every process; open in Perfetto)",
        stats="print the metrics registry summary table "
              "(histograms, gauges, stall breakdown)",
    )
    dec.set_defaults(func=_cmd_decode)

    srv = sub.add_parser(
        "serve",
        help="decode many streams concurrently on one worker pool",
    )
    srv.add_argument("--streams", nargs="+", required=True,
                     metavar="PATH[=WEIGHT]",
                     help="input .m2v files (repeat a path for identical "
                          "sessions; append =W for a priority weight)")
    srv.add_argument("--fps", type=float, default=None,
                     help="per-session display deadline rate; enables "
                          "deadline tracking and overload degradation")
    srv.add_argument("--capacity", type=int, default=None,
                     help="max concurrently active sessions (default: "
                          "one per worker slot)")
    srv.add_argument("--max-queue", type=int, default=0,
                     help="admission queue depth beyond the capacity")
    srv.add_argument("--max-inflight", type=int, default=2,
                     help="per-session in-flight task bound (backpressure)")
    srv.add_argument("--preroll", type=int, default=0,
                     help="deadline preroll buffer in pictures")
    srv.add_argument("--task-timeout", type=float, default=60.0,
                     help="per-task wall-clock budget before the worker "
                          "is presumed wedged and the task retried")
    srv.add_argument("--resilient", action="store_true",
                     help="conceal corrupt slices instead of failing the "
                          "session")
    _add_run_flags(
        srv,
        workers=(None, "shared decode worker processes (default: CPU "
                       "count; 0 = in-process, deterministic)"),
        trace="record a Chrome trace-event timeline across "
              "the scheduler and every worker",
        stats="print the metrics registry + stall breakdown",
        report="write the full JSON service report",
    )
    srv.set_defaults(func=_cmd_serve)

    nsrv = sub.add_parser(
        "net-serve",
        help="publish streams over TCP with paced slice delivery",
    )
    nsrv.add_argument("--streams", nargs="+", required=True, metavar="PATH",
                      help="input .m2v files, published under their "
                           "basenames")
    nsrv.add_argument("--host", default="127.0.0.1")
    nsrv.add_argument("--port", type=int, default=0,
                      help="TCP port (default: pick a free one)")
    nsrv.add_argument("--fps", type=float, default=30.0,
                      help="display rate pictures are paced onto the wire")
    nsrv.add_argument("--capacity", type=int, default=None,
                      help="max concurrently decoding sessions")
    nsrv.add_argument("--link-bps", type=float, default=None,
                      help="admission budget: reject sessions whose "
                           "summed peak rates exceed this")
    nsrv.add_argument("--preroll", type=int, default=1,
                      help="pictures buffered before pacing starts")
    nsrv.add_argument("--duration", type=float, default=None,
                      help="serve this many seconds then exit "
                           "(default: until Ctrl-C)")
    nsrv.add_argument("--loss", type=float, default=0.0,
                      help="impairment shim: per-slice drop probability")
    nsrv.add_argument("--reorder", type=float, default=0.0,
                      help="impairment shim: per-slice swap probability")
    nsrv.add_argument("--jitter-ms", type=float, default=0.0,
                      help="impairment shim: max per-message delay")
    nsrv.add_argument("--bandwidth", type=float, default=None,
                      help="impairment shim: wire bandwidth cap in bits/s")
    nsrv.add_argument("--seed", type=int, default=0,
                      help="impairment schedule seed (deterministic)")
    _add_run_flags(
        nsrv,
        workers=(0, "decode worker processes (0 = in-process)"),
        trace="record a Chrome trace-event timeline of the "
              "service while serving",
        report="write the JSON server report on exit",
    )
    nsrv.add_argument("--metrics-port", type=int, default=None, metavar="N",
                      help="expose Prometheus metrics on this HTTP port "
                           "(0 = pick a free one)")
    nsrv.add_argument("--stats-push", type=int, default=0, metavar="K",
                      help="push a live STATS frame (SLO snapshot + "
                           "metrics digest) to each client every K "
                           "pictures (0 = off)")
    nsrv.add_argument("--flight-dir", metavar="DIR",
                      help="dump per-session flight-recorder rings here "
                           "on failure/cancel/SLO burnout")
    nsrv.add_argument("--slo-miss-budget", type=float, default=None,
                      help="SLO: allowed deadline-miss fraction "
                           "(default 0.05)")
    nsrv.add_argument("--slo-p99-ms", type=float, default=None,
                      help="SLO: p99 lateness objective in ms "
                           "(default 100)")
    nsrv.set_defaults(func=_cmd_net_serve)

    ncli = sub.add_parser(
        "net-client",
        help="stream one session from a net-serve server",
    )
    ncli.add_argument("stream", help="published stream name to request")
    ncli.add_argument("--host", default="127.0.0.1")
    ncli.add_argument("--port", type=int, required=True)
    ncli.add_argument("--timeout", type=float, default=300.0,
                      help="whole-session wall-clock bound")
    ncli.add_argument("--json", metavar="OUT.json",
                      help="write the client delivery report")
    ncli.add_argument("--trace", metavar="OUT.json",
                      help="record the client's trace shard (merge with "
                           "the server's via obs_report --merged)")
    ncli.add_argument("--disconnect-after", type=int, default=None,
                      metavar="K",
                      help="hang up abruptly after K picture commits "
                           "(exercises server-side cancel + flight dump)")
    ncli.add_argument("--seek", type=int, default=None, metavar="PIC",
                      help="join mid-stream at the closed GOP owning "
                           "display picture PIC (reliable SEEK frame)")
    ncli.add_argument("--rate", type=int, default=1, choices=[1, 2, 4],
                      help="fast-forward at Nx (reliable RATE frame; "
                           "server serves reference pictures only)")
    ncli.set_defaults(func=_cmd_net_client)

    simp = sub.add_parser("simulate", help="simulated parallel decode")
    simp.add_argument("input")
    simp.add_argument("--decoder", default="gop",
                      choices=["gop", "slice-simple", "slice-improved", "macroblock"])
    simp.add_argument("--workers", type=int, default=4)
    simp.add_argument("--machine", default="challenge", choices=["challenge", "dash"])
    simp.add_argument("--processors", type=int, default=16)
    simp.add_argument("--rate", type=float, default=None,
                      help="pace the display at this rate (pics/s)")
    simp.add_argument("--preroll", type=int, default=0,
                      help="paced-playback startup buffer in pictures")
    simp.add_argument("--repeat", type=int, default=1,
                      help="tile the stream's GOPs this many times")
    simp.add_argument("--stats", action="store_true",
                      help="print the per-reason stall breakdown "
                           "(same vocabulary as decode --stats)")
    simp.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
