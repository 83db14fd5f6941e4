"""Hypothesis properties of the executor's graph + controller.

Three families, matching the guarantees the executor's docstrings
claim:

1. **Dependency safety** — over *generated* task graphs (random DAGs,
   random dispatch interleavings): no node is ever scheduled before
   its ref edges published.  :meth:`TaskGraph.dispatch` must refuse
   structurally, :meth:`TaskGraph.dispatch_chain` must refuse a chain
   with an unmet edge from outside it or an edge inside it pointing
   forward, and :meth:`TaskGraph.run_all`'s visit order must respect
   every edge.
2. **Task conservation** — ``planned == dispatched == completed +
   cancelled`` after any mix of full runs and error-path
   cancellations, and ``lost`` the unanswered rest of a chain whose
   run aborted (on the graph, and through the GOP decoder when a
   worker dies mid-GOP); the monotone counters cannot drift from the
   state map.
3. **Decision determinism** — :class:`AutoGranularity` is the fixed
   rule: whatever the stream's profile and the worker count, ``auto``
   is GOP grain and the batched engine, and a hint pins its axis.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bandwidth import BandwidthProfile, GopBandwidth
from repro.exec.auto import AutoGranularity, Decision
from repro.exec.graph import COMPLETED, TaskGraph, TaskNode
from repro.exec.plan import add_gop_chain, plan_gop_graph, plan_slice_graph
from repro.mpeg2.decoder import DecodeError
from repro.parallel.mp import MPGopDecoder

from tests.parallel.test_mp_gop_window import FakeTeam, synthetic_index


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def task_graphs(draw) -> TaskGraph:
    """A random DAG: each node depends on a subset of earlier nodes.

    Edges only point backwards in plan order, so every generated graph
    is acyclic by construction — the same property :meth:`TaskGraph.
    add`'s "deps must already exist" rule enforces for planners.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    graph = TaskGraph()
    kinds = ("parse", "reconstruct", "publish")
    for i in range(n):
        max_deps = min(i, 3)
        k = draw(st.integers(min_value=0, max_value=max_deps))
        deps = draw(
            st.lists(
                st.integers(min_value=0, max_value=i - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        ) if i else []
        graph.add(
            TaskNode(
                tid=f"t{i}",
                kind=kinds[i % 3],
                order=i,
                deps=tuple(f"t{d}" for d in deps),
            )
        )
    return graph


@st.composite
def profiles(draw) -> BandwidthProfile:
    """A synthetic per-stream bandwidth profile (profiler-shaped)."""
    n_gops = draw(st.integers(min_value=1, max_value=12))
    pics_per_gop = draw(st.integers(min_value=1, max_value=15))
    gop_bytes = draw(st.integers(min_value=64, max_value=200_000))
    fps = 30.0
    gops = tuple(
        GopBandwidth(
            gop=g,
            pictures=pics_per_gop,
            wire_bytes=gop_bytes,
            seconds=pics_per_gop / fps,
            bps=gop_bytes * 8 * fps / pics_per_gop,
        )
        for g in range(n_gops)
    )
    total = gop_bytes * n_gops
    return BandwidthProfile(
        stream_bytes=total,
        pictures=pics_per_gop * n_gops,
        fps=fps,
        mean_bps=gops[0].bps,
        peak_bps=gops[0].bps,
        burstiness=1.0,
        gops=gops,
        mean_picture_bytes={"I": float(gop_bytes) / pics_per_gop},
    )


# ----------------------------------------------------------------------
# 1. dependency safety
# ----------------------------------------------------------------------
class TestDependencySafety:
    @settings(max_examples=60, deadline=None)
    @given(graph=task_graphs())
    def test_run_all_never_schedules_before_refs_publish(self, graph):
        done: set[str] = set()

        def on_node(node: TaskNode) -> None:
            for dep in node.deps:
                assert dep in done, (
                    f"{node.tid} scheduled before ref edge {dep} published"
                )
            done.add(node.tid)

        ran = graph.run_all(on_node=on_node)
        assert ran == len(graph.nodes)

    @settings(max_examples=60, deadline=None)
    @given(graph=task_graphs())
    def test_dispatch_refuses_unpublished_deps(self, graph):
        # Any node with at least one dep must be refused while that
        # dep is still pending; nodes with no deps must be accepted.
        for node in graph.nodes.values():
            if node.deps:
                with pytest.raises(ValueError, match="before its ref edges"):
                    graph.dispatch(node.tid)
                break

    @settings(max_examples=60, deadline=None)
    @given(graph=task_graphs(), data=st.data())
    def test_random_interleaving_stays_safe(self, graph, data):
        # Drive the graph manually with randomized ready-set picks;
        # whatever the order, dispatch only ever accepts ready nodes.
        while True:
            ready = graph.ready()
            if not ready:
                break
            node = data.draw(
                st.sampled_from(ready), label="next dispatch"
            )
            graph.dispatch(node.tid)
            graph.complete(node.tid)
        graph.verify_conservation()

    @settings(max_examples=80, deadline=None)
    @given(graph=task_graphs(), data=st.data())
    def test_chain_rule(self, graph, data):
        # Run a random prefix, then offer a random chain — any pending
        # nodes, in any order.  It is taken exactly when every edge from
        # outside it is complete and every edge inside it points at an
        # earlier member; a refused chain changes nothing.
        for _ in range(data.draw(st.integers(0, len(graph.nodes)))):
            ready = graph.ready()
            if not ready:
                break
            graph.dispatch(ready[0].tid)
            graph.complete(ready[0].tid)
        pending = [n.tid for n in graph.pending()]
        if not pending:
            return
        chain = data.draw(st.permutations(pending)).copy()
        del chain[data.draw(st.integers(1, len(chain))):]
        # The first member that breaks a rule names it.
        broken = None
        for i, tid in enumerate(chain):
            unmet = [
                d for d in graph.nodes[tid].deps
                if d not in chain[:i] and graph.state[d] != COMPLETED
            ]
            if unmet:
                later = any(d in chain for d in unmet)
                broken = "later in its chain" if later else "before its ref edges"
                break
        before = graph.counts(), dict(graph.state), graph.ready()
        if broken:
            with pytest.raises(ValueError, match=broken):
                graph.dispatch_chain(chain)
            assert (graph.counts(), graph.state, graph.ready()) == before
        else:
            nodes = graph.dispatch_chain(chain)
            assert [n.tid for n in nodes] == chain
            assert graph.dispatched == before[0]["dispatched"] + len(chain)
            assert not set(chain) & {n.tid for n in graph.ready()}

    def test_graph_construction_rejects_bad_edges(self):
        g = TaskGraph()
        g.add(TaskNode(tid="a", kind="parse"))
        with pytest.raises(ValueError, match="duplicate"):
            g.add(TaskNode(tid="a", kind="parse"))
        with pytest.raises(ValueError, match="unknown task"):
            g.add(TaskNode(tid="b", kind="parse", deps=("missing",)))
        with pytest.raises(ValueError, match="itself"):
            g.add(TaskNode(tid="c", kind="parse", deps=("c",)))
        with pytest.raises(ValueError, match="unknown task kind"):
            TaskNode(tid="d", kind="bogus")
        with pytest.raises(ValueError, match="dispatched twice"):
            g.dispatch_chain(["a", "a"])
        assert g.dispatched == 0


# ----------------------------------------------------------------------
# 2. conservation
# ----------------------------------------------------------------------
class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(graph=task_graphs())
    def test_full_run_conserves(self, graph):
        graph.run_all()
        graph.verify_conservation()
        c = graph.counts()
        assert c["planned"] == c["dispatched"] == c["completed"]
        assert c["cancelled"] == 0

    @settings(max_examples=60, deadline=None)
    @given(graph=task_graphs(), stop_after=st.integers(min_value=0, max_value=24))
    def test_aborted_run_conserves_with_cancellations(self, graph, stop_after):
        # Simulate an error path: run some prefix, then cancel the
        # rest (what the executor does when a worker dies).
        ran = 0
        while ran < stop_after:
            ready = graph.ready()
            if not ready:
                break
            graph.dispatch(ready[0].tid)
            graph.complete(ready[0].tid)
            ran += 1
        graph.cancel_pending()
        assert graph.is_settled()
        graph.verify_conservation()
        c = graph.counts()
        assert c["planned"] == c["completed"] + c["cancelled"]

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 13), data=st.data())
    def test_aborted_chain_loses_what_it_did_not_answer(self, size, data):
        # A GOP's pictures are one chain; its worker answers some of
        # them, in any order, and the run dies: those are completed, the
        # rest of the chain is lost, and the graph conserves.
        graph = TaskGraph()
        keys = [n.tid for n in add_gop_chain(
            graph, 0, synthetic_index([size]).gops[0], 0
        )]
        graph.dispatch_chain(keys)
        order = data.draw(st.permutations(keys))
        answered = data.draw(st.integers(0, size))
        for key in order[:answered]:
            graph.complete(key)
        graph.abort()
        graph.verify_conservation()
        c = graph.counts()
        assert (c["completed"], c["lost"], c["cancelled"]) == (
            answered, size - answered, 0
        )

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(1, 13),
        workers=st.integers(1, 3),
        data=st.data(),
    )
    def test_worker_lost_mid_gop(self, size, workers, data):
        # The GOP decoder on a team with no processes: the worker dies
        # after answering k of the GOP's pictures.  The decode raises
        # the canonical loss, and the run's graph holds k completed and
        # the other pictures lost.
        k = data.draw(st.integers(0, size - 1))
        dec = MPGopDecoder(b"", index=synthetic_index([size]), workers=workers)
        team = FakeTeam(dec, data.draw, lose_after=k)
        shown = []
        with mock.patch("repro.exec.dispatch.get_team", return_value=team):
            with pytest.raises(DecodeError) as lost:
                for _gop, frames in dec.iter_gops():
                    shown += frames
        assert str(lost.value) == (
            "GOP worker process died mid-stream (exit codes [23]); its "
            "task is lost — aborting the parallel decode"
        )
        c = dec.last_graph.counts()
        assert (c["planned"], c["completed"], c["lost"]) == (size, k, size - k)
        dec.last_graph.verify_conservation()
        # What was answered before the loss was shown, in display order.
        assert len(shown) <= k

    def test_conservation_violation_is_loud(self):
        g = TaskGraph()
        g.add(TaskNode(tid="a", kind="parse"))
        with pytest.raises(RuntimeError, match="conservation"):
            g.verify_conservation()  # planned but never dispatched

    def test_planner_graphs_conserve_on_real_index(self, golden):
        index = golden.index("ipb_64x48_gop13")
        for graph in (plan_gop_graph(index), plan_slice_graph(index)):
            graph.run_all()
            graph.verify_conservation()

    def test_gop_plan_shape(self, golden):
        # The executed shape: one worker-run node per picture, its tid
        # the coding order and its edges the picture's references (the
        # slice plan's ref edges, PicturePlan.dependencies); every node
        # of a GOP carries that GOP's task (what is actually sent, once
        # for the chain: its entry in the parent's scan).  No publish
        # node and no cross-GOP edge, whatever the team size.
        from repro.exec.plan import scan_slice_tasks

        for vector in ("two_gop_48x32", "rc_64x48_gop4", "ipb_64x48_gop13"):
            index = golden.index(vector)
            graph = plan_gop_graph(index)
            plans = scan_slice_tasks(index)
            assert list(graph.nodes) == [p.order for p in plans]
            for plan in plans:
                node = graph.nodes[plan.order]
                assert node.kind == "reconstruct"
                assert node.deps == plan.dependencies
                assert node.gop == plan.gop
                assert node.payload.index is index.gops[plan.gop]
            for gi, gop in enumerate(index.gops):
                chain = [t for t, n in graph.nodes.items() if n.gop == gi]
                assert len(chain) == len(gop.pictures)
                assert all(graph.nodes[t].payload.base == chain[0] for t in chain)
                assert all(
                    d in chain for t in chain for d in graph.nodes[t].deps
                )
                # The whole GOP is a chain the graph takes in one go.
                graph.dispatch_chain(chain)

    def test_slice_plan_b_pictures_wait_on_both_refs(self, golden):
        from repro.exec.plan import scan_slice_tasks

        index = golden.index("ipb_64x48_gop13")
        plans = scan_slice_tasks(index)
        for mode in ("simple", "improved"):
            graph = plan_slice_graph(index, mode=mode, workers=2)
            for plan in plans:
                publish = graph.nodes[f"p{plan.order}.publish"]
                batches = [graph.nodes[t] for t in publish.deps]
                # At most `workers` batches, covering every slice once,
                # parse and reconstruct fused into the one node.
                assert 1 <= len(batches) <= 2
                assert [i for b in batches for i in b.payload] == list(
                    range(len(plan.slices))
                )
                refs = tuple(f"p{d}.publish" for d in plan.dependencies)
                previous = f"p{plan.order - 1}.publish"
                barrier = (
                    (previous,)
                    if mode == "simple" and plan.order and previous not in refs
                    else ()
                )
                for batch in batches:
                    assert batch.kind == "reconstruct"
                    # Ref edges: P waits on its forward reference's
                    # publish, B on both, I on nothing.  The simple
                    # policy adds the one barrier edge from the previous
                    # picture; improved adds none.
                    assert batch.deps == refs + barrier
                    assert batch.barriers == barrier
                if plan.header.picture_type.letter == "B":
                    assert len(refs) == 2
            assert any(n.barriers for n in graph.nodes.values()) == (
                mode == "simple"
            )
            graph.run_all()  # structurally runnable
            graph.verify_conservation()


# ----------------------------------------------------------------------
# 3. decision determinism
# ----------------------------------------------------------------------
class TestDecisionDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(
        profile=profiles(),
        workers=st.integers(min_value=0, max_value=8),
    )
    def test_decide_is_deterministic(self, profile, workers):
        # The same decision for every stream and every pool size.
        d = AutoGranularity(profile=profile, workers=workers).decide()
        assert d == Decision(grain="gop", engine="batched", reason="rule")

    @settings(max_examples=40, deadline=None)
    @given(profile=profiles(), workers=st.integers(min_value=0, max_value=8))
    def test_hints_pin_their_axis(self, profile, workers):
        for grain in ("gop", "slice"):
            d = AutoGranularity(
                profile=profile, workers=workers, grain_hint=grain
            ).decide()
            assert (d.grain, d.engine, d.reason) == (grain, "batched", "rule")
        for engine in ("scalar", "batched"):
            d = AutoGranularity(
                profile=profile, workers=workers, engine_hint=engine
            ).decide()
            assert (d.grain, d.engine, d.reason) == ("gop", engine, "rule")
        d = AutoGranularity(
            profile=profile, workers=workers,
            grain_hint="slice", engine_hint="batched",
        ).decide()
        assert d.reason == "pinned"
