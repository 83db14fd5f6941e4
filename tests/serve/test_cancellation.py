"""Session cancellation: client disconnects must not poison the pool.

The latent teardown bug this guards against: cancelling a session
whose tasks are in flight used to be impossible (no CANCELLED state,
one-shot ``run()``), and naively finishing a lane while a worker still
holds its task would blow up ``scheduler.complete``/``requeue`` with
ValueError when the result lands.  The dynamic control plane
(:meth:`DecodeService.request_cancel`) has to shed the session at a
loop-safe point and *discard* late results — these tests disconnect
sessions at 100 random points and require the service, its scheduler,
and the shared worker pool to keep serving everyone else.
"""

from __future__ import annotations

import glob
import os
import random
import threading
import time

import pytest

from repro.serve.service import DecodeService
from repro.serve.session import SessionStatus

VECTOR_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "vectors"
)


def load(name: str) -> bytes:
    with open(os.path.join(VECTOR_DIR, f"{name}.m2v"), "rb") as fh:
        return fh.read()


def _shm_segments() -> list[str]:
    return glob.glob("/dev/shm/psm_*")


class TestDynamicCancellation:
    def test_hundred_random_disconnects_inprocess(self):
        """100 sessions, each cancelled after a random number of emitted
        pictures (0 = before any); stragglers left uncancelled must
        finish DONE and a fresh session submitted after the churn must
        decode — the pool is not poisoned."""
        data = load("ipb_64x48_gop13")
        rng = random.Random(0xD15C)
        svc = DecodeService(workers=0, capacity=4, max_queue=200)
        thread = threading.Thread(target=svc.run_forever, daemon=True)
        thread.start()
        try:
            cancel_after = {}
            sessions = []
            for i in range(100):
                name = f"s{i:03d}"
                # ~1/5 run to completion; the rest disconnect after
                # 0..12 emitted pictures.
                cancel_after[name] = (
                    None if rng.random() < 0.2 else rng.randrange(0, 13)
                )

                def make_sink(n=name):
                    count = [0]

                    def sink(display_index, frame):
                        count[0] += 1
                        limit = cancel_after[n]
                        if limit is not None and count[0] > limit:
                            svc.request_cancel(n)

                    return sink

                sess = svc.submit_dynamic(name, data, on_frame=make_sink())
                if cancel_after[name] == 0:
                    svc.request_cancel(name)
                sessions.append(sess)

            deadline = time.monotonic() + 120
            while (
                any(not s.terminal for s in sessions)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert all(s.terminal for s in sessions), (
                "sessions stuck after cancellation churn"
            )
            # Every session ended in a sanctioned state; nothing FAILED
            # and nothing REJECTED (queue depth covers all 100).
            statuses = {s.name: s.status for s in sessions}
            assert set(statuses.values()) <= {
                SessionStatus.DONE, SessionStatus.CANCELLED
            }, statuses
            # Uncancelled sessions always complete.
            for s in sessions:
                if cancel_after[s.name] is None:
                    assert s.status is SessionStatus.DONE
                    assert s.emitted_pictures == 13
            assert any(
                s.status is SessionStatus.CANCELLED for s in sessions
            ), "churn produced no cancellations; test lost its teeth"

            # The pool still serves: a fresh post-churn session decodes.
            fresh = svc.submit_dynamic("fresh", data)
            deadline = time.monotonic() + 30
            while not fresh.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fresh.status is SessionStatus.DONE
            assert fresh.emitted_pictures == 13
        finally:
            svc.shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        report = svc.report()
        assert report["status_counts"].get("failed", 0) == 0

    @pytest.mark.parametrize("drain", [False, True])
    def test_shutdown_modes(self, drain):
        data = load("two_gop_48x32")
        svc = DecodeService(workers=0, capacity=2)
        thread = threading.Thread(target=svc.run_forever, daemon=True)
        thread.start()
        sess = svc.submit_dynamic("a", data)
        svc.shutdown(drain=drain)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert sess.terminal
        if drain:
            assert sess.status is SessionStatus.DONE
        else:
            assert sess.status in (
                SessionStatus.DONE, SessionStatus.CANCELLED
            )

    def test_cancel_unknown_and_terminal_names_is_harmless(self):
        data = load("two_gop_48x32")
        svc = DecodeService(workers=0, capacity=2)
        thread = threading.Thread(target=svc.run_forever, daemon=True)
        thread.start()
        try:
            svc.request_cancel("never-existed")
            sess = svc.submit_dynamic("a", data)
            deadline = time.monotonic() + 30
            while not sess.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sess.status is SessionStatus.DONE
            svc.request_cancel("a")  # already DONE: ignored
            fresh = svc.submit_dynamic("b", data)
            deadline = time.monotonic() + 30
            while not fresh.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fresh.status is SessionStatus.DONE
        finally:
            svc.shutdown()
            thread.join(timeout=30)

    def test_submit_dynamic_requires_run_forever(self):
        svc = DecodeService(workers=0)
        with pytest.raises(RuntimeError):
            svc.submit_dynamic("a", b"")

    def test_static_run_unaffected_by_control_plane(self):
        # run() (the one-shot batch mode) still refuses post-run
        # submission and ignores stray cancel requests.
        data = load("two_gop_48x32")
        svc = DecodeService(workers=0, capacity=2)
        svc.submit("a", data)
        svc.request_cancel("a")  # applied at the first loop-safe point
        report = svc.run()
        assert report["status_counts"] == {"cancelled": 1}
        with pytest.raises(RuntimeError):
            svc.submit("b", data)


class TestDynamicCancellationMP:
    """Real worker processes: disconnects mid-GOP with tasks in flight."""

    def test_random_disconnects_do_not_poison_worker_pool(self):
        data = load("ipb_64x48_gop13")
        before = set(_shm_segments())
        rng = random.Random(7)
        svc = DecodeService(workers=2, capacity=3, max_queue=30)
        thread = threading.Thread(target=svc.run_forever, daemon=True)
        thread.start()
        try:
            sessions = []
            for i in range(12):
                sess = svc.submit_dynamic(f"m{i:02d}", data)
                sessions.append(sess)
                # Cancel at a random later moment — racing admission,
                # dispatch, decode, and completion on real processes.
                if i % 3 != 0:
                    time.sleep(rng.uniform(0.0, 0.02))
                    svc.request_cancel(sess.name)
            deadline = time.monotonic() + 120
            while (
                any(not s.terminal for s in sessions)
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert all(s.terminal for s in sessions)
            assert set(s.status for s in sessions) <= {
                SessionStatus.DONE, SessionStatus.CANCELLED
            }
            fresh = svc.submit_dynamic("fresh", data)
            deadline = time.monotonic() + 60
            while not fresh.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fresh.status is SessionStatus.DONE
            assert fresh.emitted_pictures == 13
        finally:
            svc.shutdown()
            thread.join(timeout=60)
        assert not thread.is_alive()
        # No /dev/shm leakage from cancelled sessions' pools/arenas.
        assert set(_shm_segments()) <= before
        assert svc.report()["status_counts"].get("failed", 0) == 0


class TestLongRunningServiceMemory:
    """A service gives a session's segments back when the session ends,
    not when the service does (the leak: five sequential sessions left
    2, 4, 6, 8, 10 live ``/dev/shm`` entries until ``shutdown()``)."""

    def test_live_segments_follow_live_sessions(self):
        data = load("two_gop_48x32")
        before = set(_shm_segments())

        def live() -> int:
            return len(set(_shm_segments()) - before)

        def settle(target: int) -> int:
            # The run loop releases at its next loop-safe point.
            deadline = time.monotonic() + 10
            while live() > target and time.monotonic() < deadline:
                time.sleep(0.01)
            return live()

        svc = DecodeService(workers=2, capacity=2)
        thread = threading.Thread(target=svc.run_forever, daemon=True)
        thread.start()
        try:
            one_session = None
            for i in range(5):
                sess = svc.submit_dynamic(f"seq{i}", data)
                deadline = time.monotonic() + 60
                while not sess.terminal and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert sess.status is SessionStatus.DONE
                # Pool + arena of the finished session are gone while
                # the service keeps running: bounded by live sessions
                # (none), not by sessions served.
                assert settle(0) == 0, f"after {i + 1} sessions"
                one_session = one_session or svc.last_pool_bytes
                assert svc.last_pool_bytes == one_session
            # A cancelled session is released too, once its in-flight
            # task has come back (and been discarded).
            doomed = svc.submit_dynamic("doomed", data)
            svc.request_cancel("doomed")
            deadline = time.monotonic() + 60
            while not doomed.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            assert doomed.terminal
            assert settle(0) == 0
            # And the team still serves after all that attaching and
            # detaching.
            fresh = svc.submit_dynamic("fresh", data)
            deadline = time.monotonic() + 60
            while not fresh.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fresh.status is SessionStatus.DONE
            assert fresh.emitted_pictures == 8
        finally:
            svc.shutdown()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert live() == 0
        assert svc.report()["status_counts"].get("failed", 0) == 0
