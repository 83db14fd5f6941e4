"""Hypothesis properties of the weighted-fair serve scheduler.

The :class:`repro.serve.scheduler.Scheduler` is pure logic by design
so this suite can drive it through millions of orderings and pin the
invariants the service stakes its correctness on:

* **fair-share bound** — among continuously-backlogged sessions,
  start-time fair queueing keeps the spread of virtual times
  (``served / weight``) within ``max(1 / weight)``: every task is one
  picture, and one session can never starve another by more than one
  picture's worth;
* **dependency safety** — ``next_task`` never dispatches a task whose
  dependency keys are unpublished, under *any* interleaving of
  dispatch and completion (this is what makes B pictures decodable:
  their two references are always in the pool first);
* **admission monotonicity** — raising the capacity never turns an
  admitted/queued session into a rejected one;
* **droppability** — ``drop_b_tasks`` only ever sheds ``kind="b"``
  tasks (never a reference picture), and ``skip_next_gop`` only sheds
  whole unstarted GOPs;
* **conservation** — every submitted task ends exactly one of:
  published, deliberately dropped, or still pending; nothing is
  dispatched twice, nothing vanishes.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.scheduler import Admission, Scheduler, ServeTask

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


def session_tasks(sid: str, gops: int, bs_per_gop: list[int]) -> list[ServeTask]:
    """A realistic session task list, one task per picture: per GOP an
    I and a P reference picture, then B pictures that predict from
    both (coding order I P B...)."""
    out: list[ServeTask] = []
    for gop in range(gops):
        i, p = len(out), len(out) + 1
        out.append(ServeTask(sid, i, "ref", gop))
        out.append(ServeTask(sid, p, "ref", gop, deps=(i,)))
        for _ in range(bs_per_gop[gop]):
            out.append(ServeTask(sid, len(out), "b", gop, deps=(i, p)))
    return out


@st.composite
def scheduler_workload(draw, max_sessions=4, max_gops=3):
    """(tasks-per-session, weights) for a random multi-session load."""
    n = draw(st.integers(1, max_sessions))
    sessions = {}
    weights = {}
    for i in range(n):
        sid = f"s{i}"
        gops = draw(st.integers(1, max_gops))
        bs = [draw(st.integers(0, 3)) for _ in range(gops)]
        sessions[sid] = session_tasks(sid, gops, bs)
        weights[sid] = draw(
            st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
        )
    return sessions, weights


# ----------------------------------------------------------------------
# fair share
# ----------------------------------------------------------------------


class TestFairShare:
    @given(scheduler_workload(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_vtime_spread_bounded_while_backlogged(self, workload, rng):
        """Spread of served/weight <= max(1/weight) among backlogged."""
        sessions, weights = workload
        sched = Scheduler(capacity=len(sessions), max_inflight=1)
        for sid, tasks in sessions.items():
            sched.submit(sid, tasks, weight=weights[sid])
        bound = max(1 / w for w in weights.values())
        while True:
            task = sched.next_task()
            if task is None:
                break
            # Complete immediately (max_inflight=1 keeps lanes always
            # dispatchable until empty -> continuously backlogged).
            sched.complete(task)
            backlogged = [
                sid for sid in sessions if sched.pending_count(sid) > 0
            ]
            served = [
                sched.vtime(sid) for sid in backlogged
                if sched.served_work(sid) > 0
            ]
            if len(served) >= 2:
                assert max(served) - min(served) <= bound + 1e-9

    @given(scheduler_workload())
    @settings(max_examples=100, deadline=None)
    def test_heavier_weight_serves_no_less_work(self, workload):
        """With identical task lists, weight order == served-work order."""
        sessions, weights = workload
        # Give every session the same (largest) task list so the only
        # asymmetry is the weight.
        canonical = max(sessions.values(), key=len)
        sched = Scheduler(capacity=len(sessions), max_inflight=1)
        for sid in sessions:
            tasks = [replace(t, session=sid) for t in canonical]
            sched.submit(sid, tasks, weight=weights[sid])
        total = len(canonical) * len(sessions)
        # Serve only half the work: backlog still exists everywhere.
        for _ in range(total // 2):
            task = sched.next_task()
            if task is None:
                break
            sched.complete(task)
        sids = sorted(sessions, key=lambda s: weights[s])
        for lo, hi in zip(sids, sids[1:]):
            if sched.pending_count(lo) and sched.pending_count(hi):
                # vtime spread <= max(1/weight) implies the heavier
                # backlogged session's absolute served work trails the
                # lighter's by at most one picture scaled by its
                # weight.
                slack = max(1.0, weights[hi] / weights[lo])
                assert (
                    sched.served_work(hi) >= sched.served_work(lo) - slack - 1e-9
                )


# ----------------------------------------------------------------------
# dependency safety under arbitrary interleavings
# ----------------------------------------------------------------------


class TestDependencySafety:
    @given(scheduler_workload(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_never_dispatches_before_refs_published(self, workload, data):
        sessions, weights = workload
        sched = Scheduler(capacity=len(sessions), max_inflight=2)
        published: dict[str, set] = {sid: set() for sid in sessions}
        inflight: list[ServeTask] = []
        for sid, tasks in sessions.items():
            sched.submit(sid, tasks, weight=weights[sid])
        steps = data.draw(st.integers(10, 120))
        for _ in range(steps):
            do_dispatch = data.draw(st.booleans()) or not inflight
            if do_dispatch:
                task = sched.next_task()
                if task is None:
                    if not inflight:
                        break
                else:
                    # THE property: deps published at dispatch time.
                    for dep in task.deps:
                        assert dep in published[task.session], (
                            f"{task.order} dispatched before {dep} published"
                        )
                    inflight.append(task)
                    continue
            if inflight:
                idx = data.draw(st.integers(0, len(inflight) - 1))
                task = inflight.pop(idx)
                sched.complete(task)
                published[task.session].add(task.order)
        # Drain: everything remaining must still obey the rule.
        while True:
            task = sched.next_task()
            if task is None and not inflight:
                break
            if task is None:
                task = inflight.pop()
                sched.complete(task)
                published[task.session].add(task.order)
                continue
            for dep in task.deps:
                assert dep in published[task.session]
            sched.complete(task)
            published[task.session].add(task.order)

    @given(scheduler_workload())
    @settings(max_examples=100, deadline=None)
    def test_max_inflight_respected(self, workload):
        sessions, weights = workload
        sched = Scheduler(capacity=len(sessions), max_inflight=2)
        for sid, tasks in sessions.items():
            sched.submit(sid, tasks, weight=weights[sid])
        # Dispatch without completing: per-session in-flight stays <= 2.
        while sched.next_task() is not None:
            pass
        for sid in sessions:
            assert sched.inflight_count(sid) <= 2


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TestAdmissionMonotonicity:
    @given(
        st.integers(1, 6),
        st.integers(0, 3),
        st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_raising_capacity_never_rejects_more(
        self, capacity, max_queue, submissions
    ):
        def verdicts(cap: int) -> list[Admission]:
            sched = Scheduler(capacity=cap, max_queue=max_queue)
            out = []
            for i in range(submissions):
                out.append(
                    sched.submit(f"s{i}", session_tasks(f"s{i}", 1, [0]))
                )
            return out

        rank = {
            Admission.ADMITTED: 2, Admission.QUEUED: 1, Admission.REJECTED: 0
        }
        lo = verdicts(capacity)
        hi = verdicts(capacity + 1)
        for a, b in zip(lo, hi):
            assert rank[b] >= rank[a], (
                f"capacity {capacity}->{capacity + 1} demoted {a} to {b}"
            )

    @given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_admission_counts_exact(self, capacity, max_queue, submissions):
        sched = Scheduler(capacity=capacity, max_queue=max_queue)
        verdicts = [
            sched.submit(f"s{i}", session_tasks(f"s{i}", 1, [0]))
            for i in range(submissions)
        ]
        admitted = sum(1 for v in verdicts if v is Admission.ADMITTED)
        queued = sum(1 for v in verdicts if v is Admission.QUEUED)
        assert admitted == min(capacity, submissions)
        assert queued == min(max_queue, max(0, submissions - capacity))


# ----------------------------------------------------------------------
# degradation hooks
# ----------------------------------------------------------------------


class TestDroppability:
    @given(scheduler_workload(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_drop_b_never_sheds_a_reference(self, workload, data):
        sessions, weights = workload
        sched = Scheduler(capacity=len(sessions), max_inflight=2)
        for sid, tasks in sessions.items():
            sched.submit(sid, tasks, weight=weights[sid])
        # Random progress first.
        for _ in range(data.draw(st.integers(0, 10))):
            task = sched.next_task()
            if task is None:
                break
            sched.complete(task)
        sid = data.draw(st.sampled_from(sorted(sessions)))
        gop_limit = data.draw(st.one_of(st.none(), st.integers(1, 3)))
        dropped = sched.drop_b_tasks(sid, gops=gop_limit)
        assert all(t.kind == "b" for t in dropped)
        assert all(t.is_droppable for t in dropped)
        # Reference tasks are untouched: after draining, every one of
        # the session's ref tasks was dispatched exactly once.
        ref_total = sum(1 for t in sessions[sid] if t.kind == "ref")
        refs_seen = set()
        while True:
            task = sched.next_task()
            if task is None:
                break
            sched.complete(task)
            if task.session == sid and task.kind == "ref":
                refs_seen.add(task.order)
        # Refs dispatched during the warm-up phase completed there too;
        # count them from the published diagnostics instead: pending
        # must now be empty and no ref was ever in the dropped list.
        assert sched.pending_count(sid) == 0
        assert len(refs_seen) <= ref_total
        assert not any(t.kind == "ref" for t in dropped)

    @given(scheduler_workload(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_skip_gop_only_sheds_unstarted_gops(self, workload, data):
        sessions, weights = workload
        sched = Scheduler(capacity=len(sessions), max_inflight=2)
        for sid, tasks in sessions.items():
            sched.submit(sid, tasks, weight=weights[sid])
        inflight = []
        for _ in range(data.draw(st.integers(0, 8))):
            task = sched.next_task()
            if task is None:
                break
            inflight.append(task)
            if data.draw(st.booleans()):
                sched.complete(inflight.pop())
        sid = data.draw(st.sampled_from(sorted(sessions)))
        started = {
            t.gop for t in inflight if t.session == sid
        }
        dropped = sched.skip_next_gop(sid)
        if dropped:
            gops = {t.gop for t in dropped}
            assert len(gops) == 1, "skip_next_gop shed more than one GOP"
            assert not (gops & started), "skipped a GOP with work in flight"

    @given(scheduler_workload(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_task_conservation(self, workload, data):
        """published + dropped + pending == submitted; no double serve."""
        sessions, weights = workload
        sched = Scheduler(capacity=len(sessions), max_inflight=2)
        for sid, tasks in sessions.items():
            sched.submit(sid, tasks, weight=weights[sid])
        seen: set[tuple[str, tuple]] = set()
        dropped_total = {sid: 0 for sid in sessions}
        inflight: list[ServeTask] = []
        for _ in range(data.draw(st.integers(5, 80))):
            op = data.draw(st.integers(0, 3))
            if op == 0:
                task = sched.next_task()
                if task is not None:
                    key = (task.session, task.order)
                    assert key not in seen, "task dispatched twice"
                    seen.add(key)
                    inflight.append(task)
            elif op == 1 and inflight:
                sched.complete(inflight.pop(data.draw(
                    st.integers(0, len(inflight) - 1)
                )))
            elif op == 2:
                sid = data.draw(st.sampled_from(sorted(sessions)))
                dropped_total[sid] += len(sched.drop_b_tasks(sid, gops=1))
            else:
                sid = data.draw(st.sampled_from(sorted(sessions)))
                dropped_total[sid] += len(sched.skip_next_gop(sid))
        for sid in sessions:
            dispatched = sum(1 for s, _ in seen if s == sid)
            total = len(sessions[sid])
            assert (
                dispatched + dropped_total[sid] + sched.pending_count(sid)
                == total
            )

    @given(scheduler_workload(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncate_then_restore_is_a_no_op(self, workload, data):
        """``restore`` is the inverse of ``truncate_from_gop``: after
        random progress, cutting a session's tail and putting it back
        yields the same ``next_task()`` sequence as never cutting."""
        sessions, weights = workload

        def run(truncate: bool) -> list[tuple[str, tuple]]:
            sched = Scheduler(capacity=len(sessions), max_inflight=2)
            for sid, tasks in sessions.items():
                sched.submit(sid, tasks, weight=weights[sid])
            inflight: list[ServeTask] = []
            for complete in progress:
                task = sched.next_task()
                if task is None:
                    break
                inflight.append(task)
                if complete:
                    sched.complete(inflight.pop())
            if truncate:
                before = sched.pending_count(victim)
                cut, dropped = sched.truncate_from_gop(victim)
                if cut is not None:
                    assert all(t.gop >= cut for t in dropped)
                    assert sched.pending_count(victim) == before - len(dropped)
                    sched.restore(victim, dropped)
                assert sched.pending_count(victim) == before
            for task in inflight:
                sched.complete(task)
            order = []
            while (task := sched.next_task()) is not None:
                order.append((task.session, task.order))
                sched.complete(task)
            return order

        progress = data.draw(st.lists(st.booleans(), max_size=8))
        victim = data.draw(st.sampled_from(sorted(sessions)))
        assert run(truncate=True) == run(truncate=False)
