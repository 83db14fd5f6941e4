"""The one worker main, driven in this process on a plain ``queue.Queue``.

No fork: :func:`repro.exec.backend.worker_main` is fed the wire
protocol by hand — attach, one task of each of the three kinds (a GOP
chain, a slice batch, a serve picture), a task that raises, detach,
sentinel — and the test reads what it sent down its result pipe (a
watched stand-in that pickles each message, as a pipe does).  Pins the
``ok`` / ``err`` / ``obs`` message shapes (a GOP chain answers each of
its pictures with an ``ok`` of its own, after the picture is in the
pool; a slice batch or a serve picture is a chain of one), that an
error never ends the loop, and that the metrics shipped with the
answers add up to exactly what the task bodies recorded (nothing lost,
nothing counted twice).  Real processes check the two ends of the
pipe: an answer that does not pickle comes back as an ``err``, and the
worker lives on.

The structural tests at the bottom pin the point of the runtime:
``src/repro`` creates processes in one place, with one target; hands a
team work and takes answers back in one place, the parent loop, with
one reply shape; and decides when a task may start in one place, the
task graph.
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

from repro.exec.backend import LocalTeam, WorkerTeam, worker_main
from repro.exec.plan import plan_gop_graph, scan_slice_tasks
from repro.exec.shm import FrameLayout, SharedFramePool, StreamArena
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import DecodeError
from repro.obs.metrics import MetricsRegistry, metrics, reset_metrics
from repro.obs.stalls import StallTable
from repro.obs.trace import disable_tracing
from repro.parallel.mp import decode_gop_task
from repro.parallel.mp_slice import SliceBatch, decode_batch, picture_state
from repro.serve.service import decode_picture

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


def gop_chain(index, gi: int, first_slot: int = 0) -> tuple:
    """GOP ``gi``'s task message parts: its keys (the tids of its
    picture nodes, coding order) and its task, its pictures given the
    slots from ``first_slot`` on."""
    graph = plan_gop_graph(index)
    keys = tuple(t for t, node in graph.nodes.items() if node.gop == gi)
    task = graph.nodes[keys[0]].payload
    slots = tuple(range(first_slot, first_slot + len(keys)))
    return keys, replace(task, slots=slots)


def test_protocol_end_to_end(golden, stream):
    data, index, pool, attach = stream
    frames, _ = golden.scalar(VECTOR)
    plans = scan_slice_tasks(index)
    pictures = picture_state(index.sequence_header, False)
    gop_state = {
        "seq": index.sequence_header,
        "engine": "batched",
        "resilient": False,
    }
    # The second GOP, read by its offsets into the whole-stream arena,
    # parked one slot into the pool.
    keys, gop1 = gop_chain(index, 1, first_slot=1)
    first = len(index.gops[0].pictures)
    intra = plans[0]  # first coded picture of a closed GOP: no refs
    batch = SliceBatch(0, range(len(intra.slices)), 0, ()).of(intra)
    # A picture past the session's pool: its serve task raises.
    stray = replace(intra, order=len(plans))
    assert len(keys) > 1
    # The GOP's pictures are answered as they land: in display order.
    shown_keys = [keys[pos] for pos in gop1.index.display_order()]

    # What the pool holds at the moment each GOP picture is answered.
    pooled = []

    def watch(msg):
        if msg[:3] == ("ok", WID, "g"):
            pos = keys.index(msg[3])
            ref = gop1.index.pictures[pos].temporal_reference
            pooled.append(pool.read_frame(gop1.slots[pos], ref).digest())

    results = drive([
        attach("g", decode_gop_task, gop_state),
        attach("s", decode_batch, pictures),
        attach("v", decode_picture, pictures),
        ("task", "g", keys, gop1, None),
        ("task", "s", ((0, 0),), batch, None),
        ("task", "v", (0,), intra, None),
        ("task", "v", (stray.order,), stray, None),       # raises
        ("task", "v", (0,), intra, None),                 # still served
        ("task", "nobody", (1,), (), None),               # never attached
        ("detach", "v"),
        ("task", "v", (0,), intra, None),                 # late, after detach
        ("detach", "v"),                                   # unknown: ignored
    ], watch)

    # Every message is (kind, wid, sid, key, payload, metrics, stalls).
    assert all(len(r) == 7 and r[1] == WID for r in results)
    assert [(r[0], r[2], r[3]) for r in results] == [
        *[("ok", "g", key) for key in shown_keys],
        ("ok", "s", (0, 0)),
        ("ok", "v", 0),
        ("err", "v", stray.order),
        ("ok", "v", 0),
        ("err", "nobody", 1),
        ("err", "v", 0),
        ("obs", None, None),
    ]
    answers, results = results[: len(keys)], results[len(keys) :]
    payloads = [r[4] for r in results]

    # GOP chain: one ordinary ok per picture — counters back, never
    # pixels — each sent once its picture was in its slot.
    shown = frames[first : first + len(keys)]
    assert pooled == [f.digest() for f in shown]
    assert all(isinstance(r[4], WorkCounters) for r in answers)
    # Every answer carries what the worker recorded since the last; the
    # GOP's counters ride its last picture, charged when the decode ends.
    assert all(r[5] is not None and r[6] is not None for r in answers)
    assert all(r[4] == WorkCounters() for r in answers[:-1])
    assert answers[-1][4].macroblocks > 0
    # Slice batch: (counters, corrupt rows), under the key it was sent.
    counters, rows = payloads[0]
    assert rows == []
    assert isinstance(counters, WorkCounters) and counters.macroblocks > 0
    # Serve picture: its counters; same picture, same pixels.
    assert isinstance(payloads[1], WorkCounters)
    assert payloads[1] == counters
    shown = pool.read_frame(0, intra.header.temporal_reference)
    assert shown.digest() == frames[intra.display_index].digest()
    # Errors are the exception itself, and never end the loop.
    assert isinstance(payloads[2], TypeError)
    assert isinstance(payloads[4], DecodeError)
    assert "not attached" in str(payloads[4])
    assert "not attached" in str(payloads[5])
    assert payloads[6] is None

    # Metrics ride every answer and are reset after each: merged, they
    # are exactly what the bodies recorded, and nothing stays behind.
    total = MetricsRegistry()
    for r in (*answers, *results):
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
    for r in (*answers, *results[:-1]):
        assert set(r[6]) <= {f"worker-{WID}"}
        assert all(set(cell) == {"queue.get"} for cell in r[6].values())


def test_late_attach_is_contained(stream):
    # The parent released the session before the worker got to its
    # attach: the segments are gone, the worker survives, and the
    # session's tasks come back as errors.
    _data, _index, _pool, attach = stream
    gone = list(attach("late", decode_picture, {}))
    gone[3] = gone[5] = "psm_released_long_ago"
    results = drive([tuple(gone), ("task", "late", (1,), (0,), None)])
    assert [(r[0], r[2]) for r in results] == [("err", "late"), ("obs", None)]
    assert isinstance(results[0][4], DecodeError)


def answer_then_raise(ctx, keys, args):
    """A chain body that answers its first key and then fails."""
    yield keys[0], "landed"
    raise ValueError("mid-chain")


def test_local_team_holds_each_key_until_its_answer(golden):
    # At workers=0 a chain runs at submit and its answers queue, one
    # per picture: each key is in flight until its own ok is fetched,
    # and the team is busy until the chain's last.
    name = "ipb_64x48_gop13"
    data, index = golden.data(name), golden.index(name)
    seq = index.sequence_header
    keys, task = gop_chain(index, 0)
    team = LocalTeam()
    team.attach(
        "g", decode_gop_task, data,
        FrameLayout.for_display(seq.width, seq.height), len(keys),
        {"seq": seq, "engine": "batched", "resilient": False},
    )
    team.submit(0, "g", keys, task)
    assert [r[0] for r in team.results] == ["ok"] * len(keys)
    assert team.in_flight() == team.in_flight("g") == len(keys)
    assert team.in_flight("x") == 0
    got = []
    for left in range(len(keys), 0, -1):
        assert team.free() == [] and team.in_flight() == left
        got.append(team.fetch()[3])
    assert got == [keys[pos] for pos in index.gops[0].display_order()]
    assert team.in_flight() == 0 and team.free() == [0]
    # An err settles every key of its chain still held: the first was
    # answered, the other two go with the error.
    team.attach("h", answer_then_raise, data, FrameLayout.for_display(16, 16), 1, {})
    team.submit(0, "h", ("a", "b", "c"), None)
    assert team.fetch()[:5] == ("ok", 0, "h", "a", "landed")
    assert team.in_flight("h") == 2
    kind, _wid, _sid, key, error, _snap = team.fetch()
    assert (kind, key, str(error)) == ("err", "b", "mid-chain")
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


def raising_body(ctx, keys, args):
    if args == "lock":
        raise HoldsLock()
    if args == "two":
        raise NeedsTwo(1, 2)
    return [(key, os.getpid()) for key in keys]


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
            team.submit(0, "u", (key,), task)
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
    # thread holds an answer until it gets the GIL) is on that path;
    # the one queue left is each worker's task queue.
    backend = os.path.join("exec", "backend.py")
    made = {"Queue(": [], "Pipe(": []}
    for rel, _n, line in src_lines():
        code = line.split("#")[0].strip()
        for call, sites in made.items():
            if rel == backend and call in code:
                sites.append(code)
    assert made == {
        "Queue(": ["task_q = multiprocessing.Queue()"],
        "Pipe(": ["conn, writer = multiprocessing.Pipe(duplex=False)"],
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


def test_src_workers_answer_ok_err_or_obs():
    # One reply shape: a worker answers each key of a task with an
    # ``ok`` (a GOP's pictures are keys of their own, not parts of one
    # result), a failed task with an ``err``, and the end of a traced
    # run with ``obs`` — no other kind goes worker -> parent, and no
    # task body is handed a way to post one.  The parent loop is still
    # the one place that hands a team work and takes its answers.
    def reply(node) -> bool:
        """A ``(kind, wid, ...)`` tuple: what a worker ships."""
        return (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 5
            and isinstance(node.elts[0], ast.Constant)
            and isinstance(node.elts[1], ast.Name)
            and node.elts[1].id == "wid"
        )

    def sets_post(node) -> bool:
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Attribute) and t.attr == "post"
            for t in node.targets
        )

    def team_call(name):
        def pick(node) -> bool:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == name
            ):
                return False
            owner = node.func.value
            return (
                isinstance(owner, ast.Name) and owner.id == "team"
                or isinstance(owner, ast.Attribute) and owner.attr == "team"
            )
        return pick

    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    kinds = set()
    for folder, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    tree = ast.parse(fh.read())
                kinds |= {n.elts[0].value for n in ast.walk(tree) if reply(n)}
    assert kinds == {"ok", "err", "obs"}
    assert src_sites(sets_post) == []
    loop = [(os.path.join("exec", "dispatch.py"), "ParentLoop.drive")]
    assert src_sites(team_call("submit")) == loop
    assert src_sites(team_call("fetch")) == loop


def test_src_simulator_keeps_one_of_each():
    # The simulated decoders share the runtime's pure-logic pieces: one
    # display process (the only place that sleeps to a deadline), one
    # reorder buffer (``DisplayMerger`` — no private heaps), one pacer,
    # and the task graph's start rule (previous test).  The copies that
    # sat beside them must not come back, nor the trick-play paths
    # beside the plan's index view (a refs-only walk, a wire-side
    # picture filter), nor serve's second task grain, its convenience
    # runner and its service-side SLO judge.
    parallel = os.path.join("parallel", "")
    sleepers, pacers = set(), []
    gone = re.compile(
        r"\b(DisplayPacer|WallClockPacer|_GopTask|_DisplayItem"
        r"|gop_substream|gop_byte_ranges|iter_display_indices"
        r"|_decode_gop_subset|refs_only|selected"
        r"|_TASK_GRAIN|serve_streams|slo_dumped)\b"
    )
    access = os.path.join("access", "")
    service = os.path.join("serve", "service.py")
    edge = os.path.join("net", "server.py")
    queue_state = re.compile(r"heapq|\.(unclaimed|remaining|started)\b")
    for rel, _n, line in src_lines():
        code = line.split("#")[0]
        assert not gone.search(code), (rel, line)
        # A serve picture is one whole-picture slice batch: the service
        # has no parse body of its own.  The edge sends at the
        # session's deadlines; it has no deadline formula of its own.
        if rel == service:
            assert "parse_slices(" not in code, (rel, line)
        if rel == edge:
            assert not re.search(r"\*\s*period\b", code), (rel, line)
        # Every join, rung switch and trick decode is an index view on
        # the one scan; nothing splices a substream to scan it again.
        assert not re.search(r"(?<!def )\bsequence_prefix\(", code), (rel, line)
        # A trick plan is an index view every decoder runs unchanged;
        # random access has no picture or GOP decode loop of its own.
        if rel.startswith(access):
            assert not re.search(r"\bdecode_(picture|gop)\(", code), (rel, line)
        if rel.startswith(parallel):
            assert not queue_state.search(code), (rel, line)
            if "SleepUntil" in code:
                sleepers.add(rel)
            pacers += re.findall(r"^class (\w*Pacer)\b", code)
    assert sleepers == {os.path.join("parallel", "simrun.py")}
    assert pacers == ["Pacer"]


def test_src_simulator_decodes_nothing():
    # The simulated decoders are performance models: they replay a
    # profile's work counters and import none of the decode path, not
    # even inside a function.  Pixels come from the real decoders.
    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    decode = {f"repro.mpeg2.{m}" for m in ("decoder", "macroblock", "kernel", "frame")}
    for name in ("gop_level", "slice_level", "macroblock_level", "numa", "simrun"):
        with open(os.path.join(root, "parallel", f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {node.module} | {
                    f"{node.module}.{alias.name}" for alias in node.names
                }
            else:
                continue
            assert not modules & decode, (name, node.lineno, sorted(modules))


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
    # stream by the offsets of the parent's single scan (a cursor the
    # decode pulls a GOP at a time; ``build_index`` only materialises
    # ``index`` for readers outside the decode).  A second
    # ``build_index`` or a ``sequence_prefix`` under ``exec/`` or in the
    # GOP decoder would be the substream route (prefix + copied bytes,
    # scanned again in the worker) coming back beside it.  The
    # sequential decoder pulls the cursor too: none in ``decoder.py``.
    watched = (
        os.path.join("exec", ""),
        os.path.join("parallel", "mp.py"),
        os.path.join("mpeg2", "decoder.py"),
    )
    scans = [
        (rel, line.strip())
        for rel, _n, line in src_lines()
        if rel.startswith(watched)
        and re.search(r"\b(build_index|sequence_prefix)\(", line.split("#")[0])
    ]
    scan_index = (
        os.path.join("exec", "dispatch.py"),
        "self._index = build_index(self.data)",
    )
    assert scans == [scan_index]


def test_src_has_one_scan_fault_verdict():
    # A decode's failure gives way to a scan fault further on by one
    # rule, defined once, that every decoder pulling the scan wraps
    # its decode in.
    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    defs = []
    for folder, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                defs += [
                    (os.path.relpath(path, root), fn.name)
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and "scan_faults" in fn.name
                ]
    assert defs == [(os.path.join("mpeg2", "index.py"), "scan_faults_first")]
    assert sorted(src_calls("scan_faults_first")["scan_faults_first"]) == [
        (os.path.join("exec", "dispatch.py"), "_decode"),
        (os.path.join("mpeg2", "decoder.py"), "_with_scan_verdict"),
        (os.path.join("mpeg2", "decoder.py"), "decode_gop"),
    ]


def test_src_mp_decoders_have_one_frame_window():
    # Both real-process grains lend frame-pool slots from one allocator,
    # ``exec.window.FrameWindow``, made once per run by the run loop
    # they share: the per-grain free lists, hold counts and window
    # formulas that sat beside it must not come back.
    gone = {
        "free_slots", "held_slots", "run_slots", "_free", "_holds",
        "_used_slots", "gop_frame_window",
    }

    def named(node) -> bool:
        for field in ("id", "attr", "arg", "name"):
            if isinstance(getattr(node, field, None), str):
                return getattr(node, field) in gone
        return False

    parallel = os.path.join("parallel", "")
    assert [s for s in src_sites(named) if s[0].startswith(parallel)] == []
    assert src_calls("FrameWindow") == {
        "FrameWindow": [(os.path.join("exec", "dispatch.py"), "_run")]
    }


def test_src_has_one_coefficient_parser_and_one_payload_read():
    # The batched engine's phase 1 is ``batched.parse_slice`` and the
    # scalar oracle's is ``decode_block``; the inlined-cursor block
    # decoder that sat between them (and the switch that selected it)
    # must not come back as a third.  And the package reads a coded
    # slice out of the stream at one place, the picture kernel's
    # ``read_slices``, which takes bytes or an arena view alike — no
    # wrapper class in the worker.
    from repro.mpeg2 import blockcoding
    from repro.mpeg2.macroblock import parse_macroblock

    assert not hasattr(blockcoding, "decode_blocks_fast")
    assert "fast" not in inspect.signature(parse_macroblock).parameters
    reads = []
    for rel, _n, line in src_lines():
        assert "_SliceBytes" not in line, rel
        if re.search(r"\[\s*\w+\.payload_start\s*:", line.split("#")[0]):
            reads.append(rel)
    assert reads == [os.path.join("mpeg2", "kernel.py")]


def src_calls(*names: str) -> dict[str, list[tuple[str, str]]]:
    """``(path relative to src/repro, enclosing function)`` of every
    call of each of ``names`` (as ``f(...)`` or ``mod.f(...)``)."""
    root = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
    calls: dict[str, list[tuple[str, str]]] = {name: [] for name in names}
    for folder, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    called = (
                        func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None
                    )
                    if called in calls:
                        site = (os.path.relpath(path, root), fn.name)
                        calls[called].append(site)
    return calls


def test_src_gop_decode_streams_through_the_picture_path():
    # The GOP decode is the picture path run one reference interval at
    # a time: the GOP-wide mega-batch beside it is gone, and the
    # transform has one caller — phase 2 of one picture.
    # (``gop_dequant_idct`` keeps its list signature: the bench's stage
    # probe calls it.)
    for rel, _n, line in src_lines():
        assert "_decode_gop_batched" not in line, rel
    assert src_calls("gop_dequant_idct") == {
        "gop_dequant_idct": [
            (os.path.join("mpeg2", "batched.py"), "reconstruct_slices")
        ]
    }


def test_src_has_one_picture_kernel_and_one_reference_table():
    # Every batched decode of a picture — sequential, slice batch, serve
    # task, GOP task and the encoder's decode-back — runs the picture
    # kernel: outside ``batched.py`` a slice is
    # parsed at one call site and a picture reconstructed at one, both
    # in ``kernel.py``.  The two-slot reference rotation is written once,
    # in the kernel's reference table; and a GOP task decodes into its
    # pool slots in place, so nothing copies a private frame into one.
    from repro.mpeg2.index import GopIndex
    from repro.parallel import mp_slice

    kernel = os.path.join("mpeg2", "kernel.py")
    assert src_calls("parse_slice", "reconstruct_slices", "write_frame") == {
        "parse_slice": [(kernel, "parse_slices")],
        "reconstruct_slices": [(kernel, "reconstruct")],
        "write_frame": [],
    }
    rotations = {
        rel for rel, _n, line in src_lines()
        if re.search(r"\bref_(old|new)\b", line.split("#")[0])
    }
    assert rotations == {kernel}
    for gone in ("decode_batch_into_pool", "conceal_in_pool",
                 "decode_picture_into_pool"):
        assert not hasattr(mp_slice, gone), gone
    assert not hasattr(GopIndex, "reference_positions")
