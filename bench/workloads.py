"""The four workloads, and the pass loop that times them from outside.

A *pass* is one complete run of a workload's input through the program
(for ``net_paced``: one round of concurrent sessions).  Timing,
CPU and memory are read around the public call; every delivered
picture is kept and checked against the scalar oracle after the clock
has stopped, so verification never sits inside a timed region.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import statistics
import time
from dataclasses import dataclass, field

from bench import streams
from bench.procstat import affinity, tree_cpu_seconds, tree_peak_rss_mb
from bench.spans import NullRecorder

FPS = 30.0
PERIOD_S = 1.0 / FPS
#: Deadlines start this many periods after the first picture.
PREROLL_PICTURES = 2
NET_LOSS = 0.02
#: A round's sessions join this far apart.  Joining in the same instant
#: makes first-picture latency depend on whether the kernel happens to
#: have both decode workers on one CPU (they then run the two joins'
#: reference pictures one after the other): 45 ms or 85 ms for the
#: whole life of a server, unrelated to any code.
JOIN_STAGGER_S = 0.25

def nproc() -> int:
    return len(affinity())


def worker_count() -> int:
    return min(nproc(), 4)


def client_slots() -> int:
    return min(nproc(), 2)


@dataclass
class PassResult:
    attempted: int              # pictures the pass should deliver
    delivered: int
    wall_s: float
    rate: float                 # pictures delivered per second
    first_s: list[float]        # time to first picture (one per session)
    #: Real-time start-up delay, one ``(cpu_bound_s, scheduled_s)`` pair
    #: per session: what scales with core speed, and what a pacing
    #: schedule adds on top.
    startup_s: list[tuple[float, float]]
    cpu_own_s: float
    cpu_children_s: float
    peak_rss_mb: float
    late: int                   # pictures missing, shed or past deadline
    failures: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: Machine slowdown just before and just after the pass (see
    #: bench/machine.py); set by run_passes.
    slowdown_before: float = 1.0
    slowdown_after: float = 1.0

    def slowdown_until(self, t_s: float) -> float:
        """Mean slowdown over the pass's first ``t_s`` seconds, taking it
        to move linearly from one bracket to the other."""
        share = min(1.0, max(0.0, t_s / self.wall_s)) / 2.0
        return self.slowdown_before + (
            self.slowdown_after - self.slowdown_before
        ) * share

    @property
    def slowdown(self) -> float:
        """Mean slowdown over the whole pass."""
        return self.slowdown_until(self.wall_s)

    @property
    def cpu_s(self) -> float:
        return self.cpu_own_s + self.cpu_children_s

    @property
    def failed(self) -> int:
        """Any violation fails every picture of the pass."""
        return self.attempted if self.failures else 0


def realtime_startup(ready_s: list[float]) -> float:
    """How long after the request 30 fps playback may start and never
    find a picture missing: ``max(ready[k] - k * period)``."""
    return max(t - k * PERIOD_S for k, t in enumerate(ready_s))


def deadline_misses(ready_s: list[float], attempted: int) -> int:
    """Pictures missing, or ready more than one period past a 30 fps
    deadline anchored at the first picture with a 2-picture preroll."""
    missing = attempted - len(ready_s)
    if not ready_s:
        return attempted
    t0 = ready_s[0]
    late = sum(
        1
        for k, t in enumerate(ready_s)
        if t > t0 + (k + PREROLL_PICTURES) * PERIOD_S + PERIOD_S
    )
    return missing + late


# ----------------------------------------------------------------------
# the three decode workloads
# ----------------------------------------------------------------------
class _DecodeWorkload:
    """Decode one tiled 352x240 stream; subclasses choose the decoder."""

    name = ""
    paced = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.clip = streams.NET_CLIP if smoke else streams.DECODE_CLIP
        self.gops = 2 if smoke else 8
        self.workers = worker_count()

    @property
    def busy_processes(self) -> int:
        """How many processes the workload keeps busy at once."""
        return 1

    def setup(self, lap=lambda: None) -> None:
        """Build the input and warm up; ``lap()`` marks phase ends."""
        self.attach(streams.build(self.clip, self.seed, lap), self.gops)
        warm = self.run_pass(NullRecorder(), -1)
        if warm.failures:
            raise RuntimeError(f"{self.name} warm-up failed: {warm.failures}")
        lap()

    def attach(self, stream: streams.BuiltStream, gops: int) -> None:
        """Use ``stream`` tiled to ``gops`` GOPs as this workload's input."""
        self.stream = stream
        self.data = stream.tiled(gops)
        self.expected = stream.expected(gops * streams.GOP_SIZE)

    def frames(self, rec, parent):
        """Yield display-order frames, spans around each layer call."""
        raise NotImplementedError

    def run_pass(self, rec, pass_id: int) -> PassResult:
        expected = self.expected
        frames: list = []
        ready: list[float] = []
        peak = 0.0
        own0, kids0 = tree_cpu_seconds()
        with rec.span("bench.pass", workload=self.name, pass_id=pass_id) as root:
            t0 = time.perf_counter()
            for frame in self.frames(rec, root):
                ready.append(time.perf_counter() - t0)
                frames.append(frame)
                if len(frames) == len(expected):
                    # Per-run workers are still alive at the last
                    # picture and gone once the iterator returns.
                    peak = tree_peak_rss_mb()
            wall = time.perf_counter() - t0
        own1, kids1 = tree_cpu_seconds()
        peak = max(peak, tree_peak_rss_mb())

        failures = []
        if len(frames) != len(expected):
            failures.append(
                f"{len(frames)} pictures delivered, {len(expected)} expected"
            )
        differ = sum(1 for f, d in zip(frames, expected) if f.digest() != d)
        if differ:
            failures.append(f"{differ} pictures differ from the scalar oracle")
        return PassResult(
            attempted=len(expected),
            delivered=len(frames),
            wall_s=wall,
            rate=len(frames) / wall,
            first_s=ready[:1],
            startup_s=[(realtime_startup(ready), 0.0)] if ready else [],
            cpu_own_s=own1 - own0,
            cpu_children_s=kids1 - kids0,
            peak_rss_mb=peak,
            late=deadline_misses(ready, len(expected)),
            failures=failures,
            extra=self.pass_extra(),
        )

    def pass_extra(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class SeqDecode(_DecodeWorkload):
    name = "seq_decode"

    def frames(self, rec, parent):
        from repro.mpeg2.decoder import SequenceDecoder

        with rec.span("mpeg2.SequenceDecoder", parent):
            dec = SequenceDecoder(self.data, engine="batched")
        for gop in dec.index.gops:
            with rec.span("mpeg2.decode_gop", parent):
                out = dec.decode_gop(gop)
            yield from out


class _ParallelDecode(_DecodeWorkload):
    @property
    def busy_processes(self) -> int:
        return max(1, min(self.workers, nproc()))

    def pass_extra(self) -> dict:
        dec = self.decoder
        return {
            "pool_bytes": dec.last_pool_bytes,
            "stalls": dec.stall_breakdown(),
        }


class GopParallel(_ParallelDecode):
    name = "gop_parallel"

    def frames(self, rec, parent):
        from repro.parallel.mp import MPGopDecoder

        with rec.span("parallel.MPGopDecoder", parent):
            self.decoder = MPGopDecoder(
                self.data, workers=self.workers, engine="batched"
            )
        it = self.decoder.iter_gops()
        while True:
            with rec.span("parallel.iter_gops.next", parent):
                item = next(it, None)
            if item is None:
                return
            yield from item[1]

    def close(self) -> None:
        from repro.exec.backend import shutdown_persistent_pools

        shutdown_persistent_pools()


class SliceParallel(_ParallelDecode):
    name = "slice_parallel"
    mode = "improved"

    def frames(self, rec, parent):
        from repro.parallel.mp_slice import MPSliceDecoder

        with rec.span("parallel.MPSliceDecoder", parent):
            self.decoder = MPSliceDecoder(
                self.data, workers=self.workers, mode=self.mode
            )
        it = self.decoder.iter_frames()
        while True:
            with rec.span("parallel.iter_frames.next", parent):
                frame = next(it, None)
            if frame is None:
                return
            yield frame


# ----------------------------------------------------------------------
# the paced network workload
# ----------------------------------------------------------------------
class NetPaced:
    """Closed loop: each round starts ``slots`` sessions together and
    the next round starts when all of them have ended."""

    name = "net_paced"
    #: A 30 fps schedule, not core speed, sets its rate.  The machine is
    #: mostly idle, so one burst lane stands for it.
    paced = True
    busy_processes = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.gops = 2 if smoke else 3
        self.workers = worker_count()
        self.slots = client_slots()
        self.loop = None
        self.server = None

    def setup(self, lap=lambda: None, stream=None) -> None:
        from repro.net.impair import ImpairmentProfile
        from repro.net.server import NetServer

        self.stream = stream or streams.build(streams.NET_CLIP, self.seed, lap)
        self.pictures = self.gops * streams.GOP_SIZE
        self.loop = asyncio.new_event_loop()
        self.server = NetServer(
            {"clip": self.stream.tiled(self.gops)},
            workers=self.workers,
            fps=FPS,
            capacity=self.slots,
            preroll_pictures=PREROLL_PICTURES,
            impairment=ImpairmentProfile(loss=NET_LOSS, seed=self.seed),
        )
        self.loop.run_until_complete(self.server.start())
        # The service forks its workers on its own thread.  Clients
        # share this process, so a worker forked after a connection
        # opens would inherit both socket ends and the server would
        # never see that client's EOF: connect only once all are up.
        ready_by = time.monotonic() + 30.0
        while len(multiprocessing.active_children()) < self.workers:
            if time.monotonic() > ready_by:
                raise RuntimeError("net_paced: service workers did not start")
            time.sleep(0.005)
        # A whole round, so every slot's path through the server is warm.
        warm = self.run_pass(NullRecorder(), -1)
        if warm.failures:
            raise RuntimeError(f"net_paced warm-up failed: {warm.failures}")
        lap()

    def run_pass(self, rec, pass_id: int) -> PassResult:
        slots = self.slots
        own0, kids0 = tree_cpu_seconds()
        with rec.span("bench.pass", workload=self.name, pass_id=pass_id) as root:
            results, records, wall = self.loop.run_until_complete(
                self._round(rec, root, slots)
            )
        own1, kids1 = tree_cpu_seconds()

        failures: list[str] = []
        first_s: list[float] = []
        startup_s: list[tuple[float, float]] = []
        lateness_s: list[float] = []
        delivered = late = concealed = 0
        rate = 0.0
        for res, connect, session_s in results:
            rate += sum(1 for r in res.receipts if not r.shed) / session_s
            if res.status != "done":
                failures.append(f"client session ended {res.status!r}")
            if len(res.receipts) != self.pictures:
                late += max(0, self.pictures - len(res.receipts))
                failures.append(
                    f"{len(res.receipts)} of {self.pictures} pictures committed"
                )
            if res.pacer.t0 is not None:
                first_s.append(res.pacer.t0 - connect)
                # The server sends picture k at first + (k + preroll)
                # periods; a client clock started that much later,
                # plus the worst lateness, never finds one missing.
                startup_s.append((
                    first_s[-1],
                    PREROLL_PICTURES * PERIOD_S
                    + max((r.late_s for r in res.receipts), default=0.0),
                ))
            shown = iter(res.frames)
            for receipt in res.receipts:
                if receipt.shed:
                    late += 1
                    continue
                frame = next(shown, None)
                if frame is None:
                    failures.append(f"picture {receipt.pic} has no frame")
                    continue
                delivered += 1
                lateness_s.append(receipt.late_s)
                if receipt.late_s > PERIOD_S:
                    late += 1
                concealed += receipt.concealed
                if receipt.concealed == 0 and (
                    frame.digest()
                    != self.stream.digests[receipt.pic % streams.GOP_SIZE]
                ):
                    failures.append(
                        f"picture {receipt.pic} differs from the scalar oracle"
                    )
        if len(records) != slots or any(r["status"] != "done" for r in records):
            failures.append(
                f"server sessions ended {[r['status'] for r in records]}"
            )
        impair = [r.get("impair") or {} for r in records]
        dropped = sum(i.get("dropped", 0) for i in impair)
        if dropped != concealed:
            failures.append(f"{dropped} slices dropped, {concealed} concealed")
        return PassResult(
            attempted=slots * self.pictures,
            delivered=delivered,
            wall_s=wall,
            # Concurrent sessions add up; the stagger between their
            # joins does not count against any of them.
            rate=rate,
            first_s=first_s,
            startup_s=startup_s,
            cpu_own_s=own1 - own0,
            cpu_children_s=kids1 - kids0,
            peak_rss_mb=tree_peak_rss_mb(),
            late=late,
            failures=failures,
            extra={
                "lateness_s": lateness_s,
                "slices_dropped": dropped,
                "slices_concealed": concealed,
                "wire_bytes": sum(i.get("wire_bytes", 0) for i in impair),
            },
        )

    async def _round(self, rec, root, slots: int):
        from repro.net.client import stream_session

        first_record = len(self.server.connections)

        async def session(slot: int):
            await asyncio.sleep(slot * JOIN_STAGGER_S)
            with rec.span("net.stream_session", root, lane=slot + 1):
                # The client's pacer anchors on time.monotonic().
                connect = time.monotonic()
                result = await stream_session(
                    "127.0.0.1", self.server.port, "clip",
                    keep_frames=True, timeout_s=60.0,
                )
                return result, connect, time.monotonic() - connect

        t0 = time.monotonic()
        results = await asyncio.gather(*[session(s) for s in range(slots)])
        wall = time.monotonic() - t0
        # The server finishes a connection (stats drain, impairment
        # ledger) a moment after its client returns.
        settle_by = time.monotonic() + 10.0
        while True:
            records = self.server.connections[first_record:]
            if len(records) >= slots and all(
                r["status"] not in ("handshake", "streaming") for r in records
            ):
                break
            if time.monotonic() > settle_by:
                break
            await asyncio.sleep(0.002)
        return results, records, wall

    def close(self) -> None:
        if self.loop is None:
            return
        try:
            if self.server is not None:
                self.loop.run_until_complete(self.server.aclose())
        finally:
            self.loop.close()
            self.loop = self.server = None


_CLASSES = {
    cls.name: cls for cls in (SeqDecode, GopParallel, SliceParallel, NetPaced)
}


def make(name: str, seed: int, smoke: bool):
    return _CLASSES[name](seed, smoke)


# ----------------------------------------------------------------------
# pass loops and summaries
# ----------------------------------------------------------------------
def run_passes(workload, recorders, seconds: float, min_passes: int, gauge):
    """Run passes, cycling through ``recorders``, for ``seconds``.

    Returns one list of PassResults per recorder.  At least
    ``min_passes`` passes per recorder are made; after that the loop
    stops when another full cycle would overrun the budget.  Bursts of
    ``gauge`` before and after each pass give it its machine slowdown.
    """
    out: list[list[PassResult]] = [[] for _ in recorders]
    # A parallel workload spends part of a pass on one CPU (dispatch,
    # ramp-up, merge) and part on all of them: gauge both.
    lane_counts = sorted({1, workload.busy_processes})

    def slowdown() -> float:
        return statistics.mean(gauge.sample(lanes) for lanes in lane_counts)

    started = time.perf_counter()
    pass_id = 0
    before = slowdown()
    while True:
        cycle_start = time.perf_counter()
        for slot, rec in enumerate(recorders):
            result = workload.run_pass(rec, pass_id)
            after = slowdown()
            result.slowdown_before, result.slowdown_after = before, after
            before = after
            out[slot].append(result)
            pass_id += 1
        now = time.perf_counter()
        if len(out[0]) >= min_passes and (
            now - started + (now - cycle_start) > seconds
        ):
            return out


def _lower_quartile(values) -> float:
    values = sorted(values)
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def _metric(samples: list[tuple[float, float]], unit: str, centre=statistics.median):
    """A metric from its samples, ``(raw, corrected)`` pairs.

    The value is ``centre`` of the machine-speed-corrected samples;
    the same of the raw ones is kept beside it.
    """
    return {
        "value": centre([c for _, c in samples]) if samples else None,
        "unit": unit,
        "samples": len(samples),
        "values": [c for _, c in samples],
        "raw": centre([r for r, _ in samples]) if samples else None,
    }


def summarise(passes: list[PassResult], paced: bool) -> dict:
    """End-to-end metrics (without ``setup_s``) over a list of passes.

    Times are divided by the machine's slowdown over their interval;
    what a 30 fps schedule sets is not: a ``paced`` workload's rate,
    and the scheduled part of its start-up delay.
    Rates and CPU are medians over passes.  The two latencies are
    lower quartiles over sessions: they are short intervals, what
    disturbs them only ever adds to them, and on the network workload
    a quarter of the sessions can be disturbed.
    """
    done = [p for p in passes if p.delivered]
    return {
        "pictures_per_s": _metric(
            [(p.rate, p.rate * (1.0 if paced else p.slowdown)) for p in passes],
            "1/s"),
        "first_picture_ms": _metric(
            [(s * 1e3, s * 1e3 / p.slowdown_until(s))
             for p in passes for s in p.first_s],
            "ms", _lower_quartile),
        "realtime_startup_ms": _metric(
            [((s + scheduled) * 1e3,
              (s / p.slowdown_until(s) + scheduled) * 1e3)
             for p in passes for s, scheduled in p.startup_s],
            "ms", _lower_quartile),
        "cpu_ms_per_picture": _metric(
            [(p.cpu_s / p.delivered * 1e3,
              p.cpu_s / p.delivered * 1e3 / p.slowdown) for p in done],
            "ms"),
        # High-water marks only grow: the run's peak is the largest.
        "peak_rss_mb": {
            "value": max(p.peak_rss_mb for p in passes), "unit": "MB",
            "samples": len(passes),
        },
    }


def tally(passes: list[PassResult]) -> dict:
    """Operations attempted and failed over a list of passes."""
    return {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": sorted({msg for p in passes for msg in p.failures}),
        # Reported beside the metrics, not one of them: it is 0 on a
        # healthy run of three workloads and knife-edged on the fourth.
        "past_deadline": sum(p.late for p in passes),
    }
