"""The one worker main, driven in this process on a plain ``queue.Queue``.

No fork: :func:`repro.exec.backend.worker_main` is fed the wire
protocol by hand — attach, one task of each of the three kinds (GOP,
slice batch, serve picture list), a task that raises, detach,
sentinel — and the test reads what it sent down its result pipe (a
watched stand-in that pickles each message, as a pipe does).  Pins the
``part`` / ``ok`` / ``err`` / ``obs`` message shapes (a GOP or serve
task posts every picture but its last as a part, after the picture is
in the pool), that an error never ends the loop, and that the metrics
shipped with the results add up to exactly what the task bodies
recorded (nothing lost, nothing counted twice).  Real processes check
the two ends of the pipe: a result that does not pickle comes back as
an ``err``, and the worker lives on.

The structural tests at the bottom pin the point of the runtime:
``src/repro`` creates processes in one place, with one target; hands a
team work and takes results and parts back in one place, the parent
loop; and decides when a task may start in one place, the task graph.
"""

from __future__ import annotations

import ast
import inspect
import os
import pickle
import queue
import re
import threading
from dataclasses import replace

import pytest

from repro.exec.backend import (
    GopResult,
    LocalTeam,
    WorkerTeam,
    decode_gop_task,
    worker_main,
)
from repro.exec.plan import plan_serve_tasks, scan_gop_tasks
from repro.exec.shm import FrameLayout, SharedFramePool, StreamArena
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import DecodeError
from repro.obs.metrics import MetricsRegistry, metrics, reset_metrics
from repro.obs.stalls import StallTable
from repro.obs.trace import disable_tracing
from repro.parallel.mp_slice import (
    SliceBatch,
    decode_batch,
    picture_state,
    scan_slice_tasks,
)
from repro.serve.service import decode_pictures

VECTOR = "two_gop_48x32"
WID = 7


@pytest.fixture(autouse=True)
def _clean_observability():
    # worker_main owns the registry and the tracer of "its" process.
    yield
    disable_tracing()
    reset_metrics()


@pytest.fixture
def stream(golden):
    """Shared segments for one stream + helpers to talk to the worker."""
    data, index = golden.data(VECTOR), golden.index(VECTOR)
    seq = index.sequence_header
    layout = FrameLayout.for_display(seq.width, seq.height)
    pool = SharedFramePool(layout, slots=index.picture_count)
    arena = StreamArena(data)

    def attach(sid, body, state):
        return (
            "attach", sid, body, arena.name, arena.size, pool.name,
            layout, state, None,
        )

    try:
        yield data, index, pool, attach
    finally:
        for seg in (pool, arena):
            seg.close()
            seg.unlink()


class WatchedPipe:
    """A result pipe that shows ``watch`` each message as it is sent.

    Like ``Connection.send`` it pickles the message before anything is
    written, so what it keeps is what the parent would read."""

    def __init__(self, watch) -> None:
        self.watch = watch
        self.sent: list[tuple] = []

    def send(self, msg) -> None:
        msg = pickle.loads(pickle.dumps(msg))
        self.watch(msg)
        self.sent.append(msg)


def drive(messages: list, watch=lambda msg: None) -> list[tuple]:
    task_q: queue.Queue = queue.Queue()
    results = WatchedPipe(watch)
    for msg in (*messages, None):
        task_q.put(msg)
    worker_main(WID, task_q, results)
    assert task_q.empty(), "the loop stopped before the sentinel"
    return results.sent


def test_protocol_end_to_end(golden, stream):
    data, index, pool, attach = stream
    frames, _ = golden.scalar(VECTOR)
    plans = scan_slice_tasks(index)
    pictures = picture_state(plans, index, False)
    gop_state = {
        "seq": index.sequence_header,
        "engine": "batched",
        "resilient": False,
    }
    # The second GOP, read by its offsets into the whole-stream arena,
    # parked one slot into the pool.
    gop1 = replace(scan_gop_tasks(index)[1], slot_base=1)
    first = len(index.gops[0].pictures)
    intra = plans[0]  # first coded picture of a closed GOP: no refs
    batch = SliceBatch(0, range(len(intra.slices)), 0, ())
    pictures_g1 = gop1.picture_count
    assert pictures_g1 > 1

    # What the pool holds at the moment each GOP part is posted.
    pooled = []

    def watch(msg):
        if msg[0] == "part":
            part = msg[4]
            (ref,) = part.temporal_references
            pooled.append(pool.read_frame(part.slot_base, ref).digest())

    results = drive([
        attach("g", decode_gop_task, gop_state),
        attach("s", decode_batch, pictures),
        attach("v", decode_pictures, pictures),
        ("task", "g", 0, gop1, None),
        ("task", "s", (0, 0), batch, None),
        ("task", "v", ("ref", 0), (0,), None),
        ("task", "v", ("ref", 9), (len(plans),), None),   # raises
        ("task", "v", ("ref", 0), (0,), None),            # still served
        ("task", "nobody", 1, (), None),                  # never attached
        ("detach", "v"),
        ("task", "v", ("ref", 0), (0,), None),            # late, after detach
        ("detach", "v"),                                   # unknown: ignored
    ], watch)

    # Every message is (kind, wid, sid, key, payload, metrics, stalls).
    assert all(len(r) == 7 and r[1] == WID for r in results)
    assert [(r[0], r[2], r[3]) for r in results] == [
        *[("part", "g", 0)] * (pictures_g1 - 1),
        ("ok", "g", 0),
        ("ok", "s", (0, 0)),
        ("ok", "v", ("ref", 0)),
        ("err", "v", ("ref", 9)),
        ("ok", "v", ("ref", 0)),
        ("err", "nobody", 1),
        ("err", "v", ("ref", 0)),
        ("obs", None, None),
    ]
    parts, results = results[: pictures_g1 - 1], results[pictures_g1 - 1 :]
    payloads = [r[4] for r in results]

    # GOP task: metadata only comes back, one frame per message, and
    # each part's pixels were in the pool before the part was posted.
    runs = [r[4] for r in parts] + [payloads[0]]
    assert all(isinstance(run, GopResult) and run.gop == 1 for run in runs)
    assert [run.slot_base for run in runs] == list(range(1, 1 + pictures_g1))
    assert all(len(run.temporal_references) == 1 for run in runs)
    shown = frames[first : first + pictures_g1]
    assert pooled == [f.digest() for f in shown[:-1]]
    for run, want in zip(runs, shown):
        got = pool.read_frame(run.slot_base, run.temporal_references[0])
        assert got.digest() == want.digest()
    # Parts carry no metrics, stalls or counters; the ok carries all.
    for part in parts:
        assert part[5] is None and part[6] is None
        assert part[4].counters == WorkCounters()
    assert runs[-1].counters.macroblocks > 0
    # Slice batch: (order, slices, counters, corrupt rows).
    order, slices, counters, rows = payloads[1]
    assert (order, slices, rows) == (0, len(intra.slices), [])
    assert isinstance(counters, WorkCounters) and counters.macroblocks > 0
    # Serve pictures: the summed counters; same picture, same pixels.
    assert isinstance(payloads[2], WorkCounters)
    assert payloads[2] == counters
    shown = pool.read_frame(0, intra.header.temporal_reference)
    assert shown.digest() == frames[intra.display_index].digest()
    # Errors are the exception itself, and never end the loop.
    assert isinstance(payloads[3], IndexError)
    assert isinstance(payloads[5], DecodeError)
    assert "not attached" in str(payloads[5])
    assert "not attached" in str(payloads[6])
    assert payloads[7] is None

    # Metrics ride every result and are reset after each: merged, they
    # are exactly what the bodies recorded, and nothing stays behind.
    total = MetricsRegistry()
    for r in results:
        total.merge_snapshot(r[5])
    snap = total.snapshot()
    assert snap["counters"]["serve.worker.tasks"] == 3
    assert snap["counters"]["serve.worker.task_errors"] == 1
    assert snap["counters"]["serve.worker.pictures"] == 2
    assert snap["histograms"]["serve.worker.task_ms"]["count"] == 3
    assert snap["histograms"]["decode.gop_ms"]["count"] == 1
    assert snap["histograms"]["mp.worker.idle_ms"]["count"] <= 7
    assert metrics().snapshot() == MetricsRegistry().snapshot()
    # The idle stall that preceded a task is shipped under the worker's
    # name with the canonical reason.
    for r in results[:-1]:
        assert set(r[6]) <= {f"worker-{WID}"}
        assert all(set(cell) == {"queue.get"} for cell in r[6].values())

    # A serve reference task posts every picture but its last, by
    # coding order, each already in the pool when the part is read.
    (ref_row, *_) = plan_serve_tasks(plans)
    key, _kind, _gop, refs, _deps = ref_row
    assert len(refs) >= 2
    pooled.clear()

    def watch_serve(msg):
        if msg[0] == "part":
            plan = plans[msg[4]]
            got = pool.read_frame(msg[4], plan.header.temporal_reference)
            pooled.append((plan.display_index, got.digest()))

    served = drive([attach("v", decode_pictures, pictures),
                    ("task", "v", key, refs, None)], watch_serve)
    assert [(r[0], r[2], r[3]) for r in served] == [
        *[("part", "v", key)] * (len(refs) - 1),
        ("ok", "v", key),
        ("obs", None, None),
    ]
    assert [r[4] for r in served[:-2]] == list(refs[:-1])
    assert all(r[5] is None and r[6] is None for r in served[:-2])
    assert pooled == [
        (plans[o].display_index, frames[plans[o].display_index].digest())
        for o in refs[:-1]
    ]
    assert served[-2][5]["counters"]["serve.worker.pictures"] == len(refs)


def test_late_attach_is_contained(stream):
    # The parent released the session before the worker got to its
    # attach: the segments are gone, the worker survives, and the
    # session's tasks come back as errors.
    _data, _index, _pool, attach = stream
    gone = list(attach("late", decode_pictures, {}))
    gone[3] = gone[5] = "psm_released_long_ago"
    results = drive([tuple(gone), ("task", "late", 1, (0,), None)])
    assert [(r[0], r[2]) for r in results] == [("err", "late"), ("obs", None)]
    assert isinstance(results[0][4], DecodeError)


def test_local_team_counts_tasks_not_parts(golden):
    # At workers=0 a task runs at submit and its parts queue ahead of
    # its ok: in flight is still one task, as on WorkerTeam.
    name = "ipb_64x48_gop13"
    data, index = golden.data(name), golden.index(name)
    plans = scan_slice_tasks(index)
    seq = index.sequence_header
    (ref_row, *_) = plan_serve_tasks(plans)
    key, _kind, _gop, refs, _deps = ref_row
    assert len(refs) == 5
    team = LocalTeam()
    team.attach(
        "v", decode_pictures, data,
        FrameLayout.for_display(seq.width, seq.height), len(plans),
        picture_state(plans, index, False),
    )
    team.submit(0, "v", key, refs)
    assert [r[0] for r in team.results] == ["part"] * 4 + ["ok"]
    assert (team.in_flight(), team.in_flight("v"), team.in_flight("x")) == (1, 1, 0)
    parts = [team.fetch() for _ in range(4)]
    assert [p[4] for p in parts] == list(refs[:-1])
    assert team.in_flight() == 1 and team.free() == []
    assert team.fetch()[0] == "ok"
    assert team.in_flight() == 0 and team.free() == [0]


class HoldsLock(Exception):
    """Does not pickle: it carries a lock."""

    def __init__(self) -> None:
        super().__init__("holds a lock")
        self.lock = threading.Lock()


class NeedsTwo(Exception):
    """Pickles, but does not load: its constructor wants two arguments."""

    def __init__(self, a, b) -> None:
        super().__init__(f"{a} and {b}")


def raising_body(ctx, key, args):
    if args == "lock":
        raise HoldsLock()
    if args == "two":
        raise NeedsTwo(1, 2)
    return os.getpid()


@pytest.mark.parametrize(
    "args,message",
    [
        ("lock", "HoldsLock: holds a lock"),
        ("two", "unloadable result: TypeError: "),
    ],
)
def test_unpicklable_error_comes_back_as_decode_error(
    args, message, no_shm_leak, watchdog
):
    # A body at workers=1 raises what the pipe cannot carry: the parent
    # still gets that task's err, a DecodeError naming it, and the same
    # worker serves the next task.
    team = WorkerTeam(1)
    try:
        layout = FrameLayout.for_display(16, 16)
        team.attach("u", raising_body, b"\0" * 16, layout, 1, {})
        pid = team.pid(0)
        got = []
        for key, task in ((1, args), (2, None)):
            team.submit(0, "u", key, task)
            got.append(team.fetch(StallTable(), lambda: bool(team.find_lost())))
        (kind, wid, sid, key, error, _snap), ok = got
        assert (kind, wid, sid, key) == ("err", 0, "u", 1)
        assert isinstance(error, DecodeError)
        assert str(error).startswith(message)
        assert ok[0] == "ok" and ok[4] == pid == team.pid(0)
        assert team.in_flight() == 0 and team.find_lost() is None
    finally:
        team.shutdown()


def src_lines():
    """``(path relative to src/repro, line number, line)`` of every
    source line of the package."""
    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    for folder, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    for n, line in enumerate(fh):
                        yield os.path.relpath(path, root), n, line


def test_src_has_one_process_creation_site_and_one_target():
    creation = re.compile(
        r"\.Process\(|\.Pool\(|os\.fork\(|ProcessPoolExecutor|subprocess\."
    )
    lines = list(src_lines())
    sites, targets = [], []
    for i, (rel, _n, line) in enumerate(lines):
        if creation.search(line):
            sites.append(rel)
            call = "".join(text for _, _, text in lines[i : i + 4])
            targets += re.findall(r"target=(\w+)", call)
    assert sites == [os.path.join("exec", "backend.py")]
    assert targets == ["worker_main"]


def test_src_has_one_parent_loop_and_one_readiness_rule():
    # One loop moves work: a team is handed a task, and asked for a
    # result, at exactly one call site each (the definitions in
    # backend.py aside) ...
    calls = {"submit": [], "fetch": []}
    # ... and only the task graph decides that a task's dependencies
    # are complete: the three hand-written gates are gone, and nobody
    # else tests every dependency of something against a completed set.
    gates = re.compile(
        r"\b_available\b|\b_dispatchable\b|\.published\b"
        r"|\ball\(.*\bfor \w+ in .*\b(deps|dependencies)\b"
    )
    gated = set()
    for rel, _n, line in src_lines():
        code = line.split("#")[0]
        for method, sites in calls.items():
            if re.search(rf"\bteam\.{method}\(", code):
                sites.append(rel)
        if gates.search(code):
            gated.add(rel)
    loop = os.path.join("exec", "dispatch.py")
    assert calls == {"submit": [loop], "fetch": [loop]}
    assert gated <= {os.path.join("exec", "graph.py")}


def test_src_worker_results_travel_on_pipes():
    # Worker -> parent is one pipe per worker, written synchronously by
    # ``Connection.send``: no ``multiprocessing.Queue`` (whose feeder
    # thread holds a posted part until it gets the GIL) is on that
    # path; the one queue left is each worker's task queue.  And a part
    # is still told from a result in the parent loop alone.
    backend = os.path.join("exec", "backend.py")
    made = {"Queue(": [], "Pipe(": []}
    for rel, _n, line in src_lines():
        code = line.split("#")[0].strip()
        for call, sites in made.items():
            if rel == backend and call in code:
                sites.append(code)
    assert made == {
        "Queue(": ["task_q = self.ctx.Queue()"],
        "Pipe(": ["conn, writer = self.ctx.Pipe(duplex=False)"],
    }

    def calls(name):
        return lambda node: (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        )

    def in_worker(sites):
        return [s for s in sites if s[0] == backend and s[1].startswith("worker_main")]

    assert in_worker(src_sites(calls("put"))) == []
    assert in_worker(src_sites(calls("send")))
    loop = os.path.join("exec", "dispatch.py")
    assert src_sites(_tests_part) == [(loop, "ParentLoop.drive")]


def _is_part(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "part"


def _tests_part(node) -> bool:
    """A comparison (or match case) against the ``"part"`` kind."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return any(
            _is_part(n)
            or isinstance(n, (ast.Tuple, ast.List, ast.Set))
            and any(map(_is_part, n.elts))
            for n in operands
        )
    return isinstance(node, ast.MatchValue) and _is_part(node.value)


class _Scopes(ast.NodeVisitor):
    """``(path, enclosing class.function)`` of the nodes ``pick`` keeps."""

    def __init__(self, rel: str, pick) -> None:
        self.rel, self.pick, self.scope, self.found = rel, pick, [], []

    def generic_visit(self, node) -> None:
        if self.pick(node):
            self.found.append((self.rel, ".".join(self.scope)))
        named = isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        if named:
            self.scope.append(node.name)
        super().generic_visit(node)
        if named:
            self.scope.pop()


def src_sites(pick) -> list[tuple[str, str]]:
    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    found = []
    for folder, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                visitor = _Scopes(os.path.relpath(path, root), pick)
                visitor.visit(tree)
                found += visitor.found
    return found


def test_src_has_one_route_for_posted_parts():
    # A running task's parts reach the policy through the one parent
    # loop: only ``drive`` tells a part from a result (so ``_result``
    # sees ``ok`` and ``err`` alone), only the two transports give a
    # task its ``post``, and no policy runs a loop of its own.
    def sends_part(node) -> bool:
        return isinstance(node, ast.Tuple) and bool(node.elts) and _is_part(
            node.elts[0]
        )

    def sets_post(node) -> bool:
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Attribute) and t.attr == "post"
            for t in node.targets
        )

    def defines_drive(node) -> bool:
        return isinstance(node, ast.FunctionDef) and node.name == "drive"

    loop = os.path.join("exec", "dispatch.py")
    backend = os.path.join("exec", "backend.py")
    transports = [(backend, "worker_main"), (backend, "LocalTeam.submit")]
    assert src_sites(_tests_part) == [(loop, "ParentLoop.drive")]
    assert src_sites(sends_part) == transports
    assert src_sites(sets_post) == transports
    assert src_sites(defines_drive) == [(loop, "ParentLoop")]


def test_src_simulator_keeps_one_of_each():
    # The simulated decoders share the runtime's pure-logic pieces: one
    # display process (the only place that sleeps to a deadline), one
    # reorder buffer (``DisplayMerger`` — no private heaps), one pacer,
    # and the task graph's start rule (previous test).  The copies that
    # sat beside them must not come back.
    parallel = os.path.join("parallel", "")
    sleepers, pacers = set(), []
    gone = re.compile(
        r"\b(DisplayPacer|WallClockPacer|_GopTask|_DisplayItem"
        r"|gop_substream|gop_byte_ranges|iter_display_indices)\b"
    )
    queue_state = re.compile(r"heapq|\.(unclaimed|remaining|started)\b")
    for rel, _n, line in src_lines():
        code = line.split("#")[0]
        assert not gone.search(code), (rel, line)
        # Every join, rung switch and trick decode is an index view on
        # the one scan; nothing splices a substream to scan it again.
        assert not re.search(r"(?<!def )\bsequence_prefix\(", code), (rel, line)
        if rel.startswith(parallel):
            assert not queue_state.search(code), (rel, line)
            if "SleepUntil" in code:
                sleepers.add(rel)
            pacers += re.findall(r"^class (\w*Pacer)\b", code)
    assert sleepers == {os.path.join("parallel", "simrun.py")}
    assert pacers == ["Pacer"]


def test_src_executor_imports_parallel_lazily():
    # ``repro.parallel.queues`` imports ``repro.exec.plan``; that stays
    # acyclic only while ``repro.exec`` reaches back into
    # ``repro.parallel`` from inside functions, never at import time.
    for rel, _n, line in src_lines():
        if rel.startswith(os.path.join("exec", "")):
            assert not re.match(r"(from|import) repro\.parallel\b", line), (
                rel, line,
            )


def test_src_gop_path_has_one_scan_and_no_substreams():
    # Every GOP-grain and executor decode reads the one attached
    # stream by the offsets of the parent's single scan.  A second
    # ``build_index`` or a ``sequence_prefix`` under ``exec/`` or in the
    # GOP decoder would be the substream route (prefix + copied bytes,
    # scanned again in the worker) coming back beside it.
    watched = (os.path.join("exec", ""), os.path.join("parallel", "mp.py"))
    scans = [
        (rel, line.strip())
        for rel, _n, line in src_lines()
        if rel.startswith(watched)
        and re.search(r"\b(build_index|sequence_prefix)\(", line.split("#")[0])
    ]
    scan_index = (os.path.join("exec", "backend.py"), "index = build_index(data)")
    assert scans == [scan_index]


def test_src_has_one_coefficient_parser_and_one_payload_read():
    # The batched engine's phase 1 is ``batched.parse_slice`` and the
    # scalar oracle's is ``decode_block``; the inlined-cursor block
    # decoder that sat between them (and the switch that selected it)
    # must not come back as a third.  And ``SequenceDecoder`` reads the
    # coded stream at one place, ``slice_payload``, which takes bytes
    # or an arena view alike — no wrapper class in the worker.
    from repro.mpeg2 import blockcoding
    from repro.mpeg2.macroblock import parse_macroblock

    assert not hasattr(blockcoding, "decode_blocks_fast")
    assert "fast" not in inspect.signature(parse_macroblock).parameters
    decoder = os.path.join("mpeg2", "decoder.py")
    reads = 0
    for rel, _n, line in src_lines():
        assert "_SliceBytes" not in line, rel
        reads += rel == decoder and "sl.payload_start" in line.split("#")[0]
    assert reads == 1


def test_src_gop_decode_streams_through_the_picture_path():
    # The GOP decode is the picture path run one reference interval at
    # a time: the GOP-wide mega-batch beside it is gone, the sequential
    # decoder parses a slice at one place, and the transform has one
    # caller — phase 2 of one picture.  (``gop_dequant_idct`` keeps its
    # list signature: the bench's stage probe calls it.)
    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    calls: dict[str, list[tuple[str, str]]] = {
        "parse_slice": [], "gop_dequant_idct": [],
    }
    for rel, _n, line in src_lines():
        assert "_decode_gop_batched" not in line, rel
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in calls
                    ):
                        site = (os.path.relpath(path, root), fn.name)
                        calls[node.func.id].append(site)
    decoder = os.path.join("mpeg2", "decoder.py")
    assert [s for s in calls["parse_slice"] if s[0] == decoder] == [
        (decoder, "_parse_picture")
    ]
    assert calls["gop_dequant_idct"] == [
        (os.path.join("mpeg2", "batched.py"), "reconstruct_slices")
    ]
