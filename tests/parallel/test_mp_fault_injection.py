"""Fault injection: a worker process dying mid-decode must fail clean.

A real parallel decoder faces real deaths — OOM kills, segfaults in
native code, operators' stray ``kill -9``.  ``multiprocessing`` loses
the victim's task silently, so a naive parent blocks forever on a
result that will never come.  Both mp decoders take the same defence:
result waits are chunked into liveness polls
(:data:`repro.exec.backend.LIVENESS_POLL_S`) and a dead worker surfaces
as a :class:`~repro.mpeg2.decoder.DecodeError` within a poll.

These tests use the decoders' fault-injection hooks (``_crash_gop`` /
``_crash_task``), which ``os._exit`` the worker mid-task — the same
observable as a SIGKILL: no result, no cleanup, a nonzero exitcode.
An exception *inside* a slice batch (its one fused reconstruct call) is
the opposite case: it must come back as an error result and leave the
worker alive.  So must a corrupt slice halfway through a GOP task, after
the pictures before it were already handed over.

Every test also asserts the shared-memory segment is unlinked: a
crashed decode must not leak ``/dev/shm`` blocks (the classic
``shared_memory`` footgun) — the ``no_shm_leak`` and ``deadline``
fixtures of ``tests/conftest.py``, shared with the executor and serve
suites.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.exec.backend import shutdown_persistent_pools
from repro.mpeg2.decoder import DecodeError, SequenceDecoder
from repro.mpeg2.index import build_index
from repro.obs.metrics import metrics
from repro.parallel.mp import MPGopDecoder
from repro.parallel.mp_slice import MPSliceDecoder
from tests.mpeg2.test_gop_batching import _corrupt
from tests.parallel.test_mp_gop_window import tile


def assert_no_stray_children():
    """All worker processes were reaped (terminated + joined).

    Healthy persistent GOP-pool workers are exempt: they outlive
    individual decodes by design (``repro.exec.backend.get_team``), so only
    processes outside that registry count as strays.
    """
    from repro.exec.backend import persistent_worker_pids

    for _ in range(50):
        strays = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in persistent_worker_pids()
        ]
        if not strays:
            return
        time.sleep(0.1)
    raise AssertionError(f"stray worker processes: {strays}")


class TestSliceWorkerCrash:
    def test_crash_mid_picture_raises_decode_error(
        self, medium_stream, no_shm_leak, deadline
    ):
        # Kill the worker that picks up picture 2, slice 1 — mid-GOP,
        # mid-picture, with other slices of the same picture in flight.
        dec = MPSliceDecoder(
            medium_stream, workers=2, mode="improved", _crash_task=(2, 1)
        )
        with pytest.raises(DecodeError, match="worker process died"):
            dec.decode_all()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_crash_in_simple_mode(self, medium_stream, no_shm_leak, deadline):
        dec = MPSliceDecoder(
            medium_stream, workers=2, mode="simple", _crash_task=(1, 0)
        )
        with pytest.raises(DecodeError, match="worker process died"):
            dec.decode_all()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_crash_on_first_slice(self, small_stream, no_shm_leak, deadline):
        # Death before any result at all: the parent has nothing but
        # the liveness poll to notice.
        dec = MPSliceDecoder(
            small_stream, workers=1, mode="improved", _crash_task=(0, 0)
        )
        with pytest.raises(DecodeError, match="worker process died"):
            dec.decode_all()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_single_worker_crash_with_survivors_idle(
        self, two_gop_stream, no_shm_leak, deadline
    ):
        # Four workers, one dies: the survivors must not mask the loss
        # (the victim's slice is gone; the picture can never complete).
        dec = MPSliceDecoder(
            two_gop_stream, workers=4, mode="improved", _crash_task=(3, 0)
        )
        with pytest.raises(DecodeError, match="worker process died"):
            dec.decode_all()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_consumer_closes_after_first_picture(
        self, two_gop_stream, no_shm_leak, deadline
    ):
        # As on the GOP grain: when picture 0 is handed over, later
        # pictures hold slots of the window; walking away then must
        # leave the occupancy gauge at zero.
        dec = MPSliceDecoder(tile(two_gop_stream, 4), workers=2)
        gauge = metrics().gauge("mp.frame_pool.occupancy")
        it = dec.iter_frames()
        next(it)
        assert 0 < gauge.value <= dec.window.size
        it.close()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_clean_decode_after_crash(self, small_stream, no_shm_leak):
        # The failure must not poison the process: a fresh decoder on
        # the same stream succeeds afterwards.
        dec = MPSliceDecoder(
            small_stream, workers=1, mode="improved", _crash_task=(0, 0)
        )
        with pytest.raises(DecodeError):
            dec.decode_all()
        frames = MPSliceDecoder(small_stream, workers=1).decode_all()
        assert len(frames) == len(
            MPSliceDecoder(small_stream, workers=0).decode_all()
        )


class TestSliceReconstructError:
    """A failure *inside* the batch's fused ``reconstruct_slices`` call
    is an error result the parent re-raises — the worker survives it."""

    @pytest.fixture
    def failing_reconstruct(self, monkeypatch):
        # Workers forked after the patch inherit it: every P-picture
        # batch fails after its slices have parsed cleanly, inside the
        # picture kernel's phase 2.  A warm team forked before it would
        # not, so the test gets a fresh one, and no later test gets a
        # team forked with the patch in place.
        from repro.mpeg2 import kernel

        real = kernel.reconstruct_slices

        def reconstruct(parses, seq, header, out, fwd, bwd):
            if header.picture_type.letter == "P":
                raise RuntimeError("injected reconstruct failure")
            real(parses, seq, header, out, fwd, bwd)

        monkeypatch.setattr(kernel, "reconstruct_slices", reconstruct)
        shutdown_persistent_pools()
        yield
        shutdown_persistent_pools()

    @pytest.mark.parametrize("resilient", [False, True])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_error_reaches_the_caller_not_a_dead_worker(
        self, medium_stream, failing_reconstruct, no_shm_leak, deadline,
        workers, resilient,
    ):
        # Not a slice-corruption error, so ``resilient`` does not hide
        # it either; and not "worker process died": the worker reported
        # it and kept serving until the parent tore the team down.
        dec = MPSliceDecoder(medium_stream, workers=workers, resilient=resilient)
        with pytest.raises(RuntimeError, match="injected reconstruct"):
            dec.decode_all()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)


def assert_aborted_run_accounted(dec: MPGopDecoder | MPSliceDecoder) -> None:
    """The graph an aborted run dispatched from conserves, with the
    unfinished pictures on it, and no frame-window slot is still
    booked."""
    counts = dec.last_graph.counts()
    dec.last_graph.verify_conservation()
    assert counts["completed"] < counts["planned"]
    assert counts["cancelled"] + counts["lost"] > 0
    assert metrics().gauge("mp.frame_pool.occupancy").value == 0


class TestGopWorkerCrash:
    """The GOP path gets the same treatment (it previously had none)."""

    def test_crash_mid_stream_raises_decode_error(
        self, medium_stream, no_shm_leak, deadline
    ):
        dec = MPGopDecoder(medium_stream, workers=2, _crash_gop=1)
        with pytest.raises(DecodeError, match="worker process died"):
            dec.decode_all()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_crash_on_first_gop(self, two_gop_stream, no_shm_leak, deadline):
        dec = MPGopDecoder(two_gop_stream, workers=1, _crash_gop=0)
        with pytest.raises(DecodeError, match="worker process died"):
            dec.decode_all()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_consumer_closes_after_first_gop(
        self, two_gop_stream, no_shm_leak, deadline
    ):
        # 8 GOPs on a 4-run window: when GOP 0 is handed over, later
        # GOPs hold runs (in flight or waiting their turn to display).
        # Walking away then must book nothing: the occupancy gauge is
        # process-global and would read non-zero for every later run.
        dec = MPGopDecoder(tile(two_gop_stream, 4), workers=2)
        longest = max(len(g.pictures) for g in dec.index.gops)
        gauge = metrics().gauge("mp.frame_pool.occupancy")
        it = dec.iter_gops()
        assert next(it)[0] == 0
        assert longest <= gauge.value <= 4 * longest
        it.close()
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_strict_corrupt_slice_mid_gop(
        self, golden, no_shm_leak, deadline, workers
    ):
        # GOP 0 is handed over picture by picture while its task runs:
        # a corrupt slice in a later reference interval of GOP 0 lets
        # the pictures before that interval through, bit-exact, and
        # then fails the decode with the scalar oracle's exception.
        name, pos = "ipb_64x48_gop13", 4  # P6 opens the third interval
        data = _corrupt(tile(golden.data(name), 2), pos, 4, b"\xaa")
        interval = next(
            r for r in build_index(data).gops[0].reference_intervals()
            if pos in r
        )
        with pytest.raises(Exception) as oracle:
            SequenceDecoder(data, engine="scalar").decode_all()
        frames, _ = golden.scalar(name)
        dec = MPGopDecoder(data, workers=workers)
        got = []
        with pytest.raises(oracle.type):
            for gop, run in dec.iter_gops():
                assert gop == 0
                got += [f.digest() for f in run]
        assert got == [f.digest() for f in frames[: interval.start]]
        assert_no_stray_children()
        assert_aborted_run_accounted(dec)

    def test_clean_decode_after_crash(self, two_gop_stream, no_shm_leak):
        dec = MPGopDecoder(two_gop_stream, workers=2, _crash_gop=0)
        with pytest.raises(DecodeError):
            dec.decode_all()
        frames = MPGopDecoder(two_gop_stream, workers=2).decode_all()
        ref = MPGopDecoder(two_gop_stream, workers=0).decode_all()
        assert len(frames) == len(ref)


class TestNoCrashControl:
    """The hooks themselves must be inert when unset."""

    def test_slice_decoder_default_has_no_injection(self, small_stream):
        dec = MPSliceDecoder(small_stream, workers=1)
        assert dec._crash_task is None
        assert len(dec.decode_all()) > 0

    def test_gop_decoder_default_has_no_injection(self, small_stream):
        dec = MPGopDecoder(small_stream, workers=1)
        assert dec._crash_gop is None
        assert len(dec.decode_all()) > 0
