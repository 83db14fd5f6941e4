"""Bit-exact parity of the real-process slice decoder vs the scalar one.

The slice-level mp decoder (:mod:`repro.parallel.mp_slice`) must be
indistinguishable from the sequential scalar oracle in every
observable — decoded pixels, display order, aggregate work counters,
and ``resilient=True`` concealment — across **both** barrier policies
(``simple``: barrier after every picture; ``improved``: barrier only
after reference pictures) and worker counts 0 (in-process fallback),
1, 2 and 4, on the full committed golden-vector corpus.

Slices of one picture reconstruct concurrently into the same
shared-memory frame; these tests are what pins that the row-disjoint
in-place writes, the published-reference availability rule, and the
static duplicate resolution together reproduce the sequential decode
bit for bit.
"""

from __future__ import annotations

import pytest

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import DecodeError, SequenceDecoder
from repro.mpeg2.index import build_index
from repro.exec.plan import scan_slice_tasks
from repro.parallel.mp_slice import MPSliceDecoder

from tests.mpeg2.test_batched_parity import assert_frames_identical
from tests.mpeg2.test_conceal_parity import load_vector as load_conceal
from tests.mpeg2.test_golden_vectors import CORPUS, VECTOR_NAMES, load_vector
from tests.mpeg2.test_resilience import corrupt_slice

#: Both synchronisation policies, on every stream.
MODES = ("simple", "improved")

#: Worker counts from the issue: the in-process fallback plus real
#: 1/2/4-process pools.
WORKER_COUNTS = (0, 1, 2, 4)


@pytest.fixture(scope="module")
def scalar_reference(golden):
    """Scalar-oracle frames + counters for every golden vector.

    Served from the session-scoped ``golden`` cache (tests/conftest.py)
    so this module does not re-decode the corpus the other parity
    suites already decoded.
    """
    ref = {}
    for name in VECTOR_NAMES:
        frames, counters = golden.scalar(name)
        ref[name] = (golden.data(name), frames, counters)
    return ref


def _slice_parallel(data: bytes, workers: int, mode: str, resilient=False):
    counters = WorkCounters()
    frames = MPSliceDecoder(
        data, workers=workers, mode=mode, resilient=resilient
    ).decode_all(counters)
    return frames, counters


def assert_slice_parity(
    data: bytes, workers: int, mode: str, resilient: bool = False
):
    counters_s = WorkCounters()
    frames_s = SequenceDecoder(
        data, engine="scalar", resilient=resilient
    ).decode_all(counters_s)
    frames_p, counters_p = _slice_parallel(data, workers, mode, resilient)
    assert_frames_identical(frames_s, frames_p)
    assert [f.temporal_reference for f in frames_s] == [
        f.temporal_reference for f in frames_p
    ]
    assert counters_s == counters_p


class TestScanStep:
    """The scan products: coding-order picture plans."""

    def test_plans_cover_every_slice_once(self, medium_stream):
        index = build_index(medium_stream)
        plans = scan_slice_tasks(index)
        assert len(plans) == index.picture_count
        assert sum(len(p.slices) for p in plans) == index.slice_count
        assert [p.order for p in plans] == list(range(len(plans)))

    def test_display_indices_are_a_permutation(self, medium_stream):
        plans = scan_slice_tasks(build_index(medium_stream))
        assert sorted(p.display_index for p in plans) == list(
            range(len(plans))
        )

    def test_dependencies_point_backwards(self, medium_stream):
        plans = scan_slice_tasks(build_index(medium_stream))
        for plan in plans:
            letter = plan.header.picture_type.letter
            assert len(plan.dependencies) == {"I": 0, "P": 1, "B": 2}[letter]
            for dep in plan.dependencies:
                assert dep < plan.order
                assert plans[dep].is_reference

    def test_exactly_one_reconstructor_per_row(self, small_stream):
        for plan in scan_slice_tasks(build_index(small_stream)):
            rows = [
                sl.vertical_position for sl in plan.slices if sl.reconstruct
            ]
            assert sorted(rows) == sorted(set(rows))
            covered = {sl.vertical_position for sl in plan.slices}
            assert set(rows) == covered

    def test_missing_reference_raises_decode_error(self, small_stream):
        # Drop the I picture's plan source: a stream whose first GOP
        # opens with a P picture must be rejected like the scalar path.
        index = build_index(small_stream)
        index.gops[0].pictures.pop(0)
        with pytest.raises(DecodeError, match="without forward reference"):
            scan_slice_tasks(index)

    def test_open_gop_rejected(self, small_stream):
        index = build_index(small_stream)
        index.gops[0].closed_gop = False
        with pytest.raises(DecodeError, match="closed GOPs"):
            scan_slice_tasks(index)


class TestGoldenVectorParity:
    """The issue's matrix: 6 vectors x 2 modes x workers in {0,1,2,4}."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", VECTOR_NAMES)
    def test_vector_parity(self, scalar_reference, name, mode, workers):
        data, frames_s, counters_s = scalar_reference[name]
        frames_p, counters_p = _slice_parallel(data, workers, mode)
        assert_frames_identical(frames_s, frames_p)
        assert counters_s == counters_p, (
            f"{name} mode={mode} workers={workers}: counters diverged"
        )

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    def test_vector_digests_pinned(self, scalar_reference, name):
        # Belt and braces: frames also match the committed digests, so
        # this suite fails even if the scalar oracle itself drifts.
        data, _, _ = scalar_reference[name]
        frames = MPSliceDecoder(data, workers=0).decode_all()
        assert [f.digest() for f in frames] == CORPUS[name]["frame_digests"]


class TestBasicParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_two_gop_stream_real_workers(self, two_gop_stream, mode):
        assert_slice_parity(two_gop_stream, workers=2, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_medium_stream_inprocess(self, medium_stream, mode):
        assert_slice_parity(medium_stream, workers=0, mode=mode)

    def test_more_workers_than_slices(self, small_stream):
        # Extra workers idle; output unchanged.
        index = build_index(small_stream)
        workers = index.slices_per_picture + 3
        assert_slice_parity(small_stream, workers=workers, mode="improved")

    def test_iter_frames_streams_in_display_order(self, two_gop_stream):
        ref = SequenceDecoder(two_gop_stream).decode_all()
        dec = MPSliceDecoder(two_gop_stream, workers=2, mode="improved")
        got = list(dec.iter_frames())
        assert_frames_identical(ref, got)

    def test_invalid_arguments(self, small_stream):
        with pytest.raises(ValueError):
            MPSliceDecoder(small_stream, mode="bogus")
        with pytest.raises(ValueError, match="workers"):
            MPSliceDecoder(small_stream, workers=-1)


class TestResilientParity:
    """Concealment inside a slice worker == concealment in-sequence."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("workers", (0, 2))
    def test_corrupt_p_slice(self, small_stream, workers, mode):
        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        counters = WorkCounters()
        SequenceDecoder(data, resilient=True).decode_all(counters)
        assert counters.concealed_slices >= 1
        assert_slice_parity(data, workers, mode, resilient=True)

    def test_corrupt_slice_in_second_gop(self, medium_stream):
        data = corrupt_slice(medium_stream, gop=1, pic=2, sl=1)
        assert_slice_parity(data, workers=2, mode="improved", resilient=True)

    @pytest.mark.parametrize("workers", (0, 2))
    def test_mid_gop_i_picture(self, golden, workers):
        # Three I pictures in one GOP, the second one corrupt: the
        # reference table gives an I picture no forward reference on
        # every path, so its row is concealed spatially everywhere.
        data = golden.data("neg_fuzz027_splice_bitstream_error")
        counters = WorkCounters()
        SequenceDecoder(data, resilient=True).decode_all(counters)
        assert counters.concealed_slices == 1
        assert_slice_parity(data, workers, "improved", resilient=True)

    @pytest.mark.parametrize("resilient", (False, True))
    @pytest.mark.parametrize("workers", (0, 2))
    def test_rows_no_slice_covers_in_reused_slots(self, workers, resilient):
        # P1 of conceal_lost_picture has no slice at all.  Tiled three
        # times, its later copies land in slots that earlier pictures
        # filled (the pool starts zero-filled, and only a reused slot
        # is blanked): strict, its rows read blank; resilient, they are
        # concealed — both exactly as in the sequential decode.
        data = tile_gops(load_conceal("conceal_lost_picture"), 3)
        assert_slice_parity(data, workers, "improved", resilient)

    @pytest.mark.parametrize("resilient", (False, True))
    @pytest.mark.parametrize("workers", (0, 2))
    def test_a_lost_slice_in_a_reused_slot(self, workers, resilient):
        # Six 4-picture GOPs through a 5-slot window: GOP 5's B1 loses
        # its second row and decodes the rest into a slot an earlier
        # picture filled, which the parent must blank before the
        # picture's first batch goes out.
        data = tile_gops(load_vector("two_gop_48x32"), 3)
        s = build_index(data).gops[5].pictures[2].slices[1]
        data = data[: s.payload_start - 4] + data[s.payload_end :]
        assert_slice_parity(data, workers, "improved", resilient)

    @pytest.mark.parametrize("workers", (0, 2))
    def test_strict_mode_raises_same_family(self, small_stream, workers):
        data = corrupt_slice(small_stream, gop=0, pic=4, sl=1)
        try:
            SequenceDecoder(data, engine="scalar").decode_all()
            scalar_exc = None
        except Exception as exc:
            scalar_exc = type(exc)
        assert scalar_exc is not None
        with pytest.raises(Exception) as info:
            MPSliceDecoder(data, workers=workers).decode_all()
        assert not isinstance(info.value, AssertionError)


def tile_gops(data: bytes, reps: int) -> bytes:
    """``data`` with its run of (closed) GOPs repeated ``reps`` times."""
    gops = build_index(data).gops
    start, end = gops[0].start_offset, gops[-1].end_offset
    return data[:start] + data[start:end] * reps + data[end:]


class TestDispatchOrder:
    """Earliest-picture-first dispatch and the bounded frame window,
    observed on the decoder's own queue calls — no clock involved."""

    @pytest.fixture
    def queues(self, monkeypatch):
        """Every queue the decoder builds, each logging its dispatches
        and emissions in the order the parent made them."""
        from repro.parallel import mp_slice

        made = []

        class RecordingQueue(mp_slice.PictureSliceQueue):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.log = []
                made.append(self)
                emitted = self.window.emitted

                def mark_emitted(order):
                    self.log.append(("emit", order, None))
                    emitted(order)

                self.window.emitted = mark_emitted

            def claim_batch(self):
                batch = super().claim_batch()
                if batch is not None:
                    self.log.append(("dispatch", batch.order, batch.slot))
                return batch

        monkeypatch.setattr(mp_slice, "PictureSliceQueue", RecordingQueue)
        return made

    @pytest.mark.parametrize("workers", (0, 2))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "name,reps", [("two_gop_48x32", (2, 8)), ("ipb_64x48_gop13", (4, 16))]
    )
    def test_front_to_back_inside_a_fixed_window(
        self, queues, name, reps, mode, workers
    ):
        data = load_vector(name)
        pool_bytes = []
        for n in reps:
            dec = MPSliceDecoder(tile_gops(data, n), workers=workers, mode=mode)
            frames = dec.decode_all()
            assert [f.digest() for f in frames] == (
                CORPUS[name]["frame_digests"] * n
            )
            pool_bytes.append(dec.last_pool_bytes)
            gop_of = [p.gop for p in dec.plans]
            left = [gop_of.count(g) for g in range(gop_of[-1] + 1)]
            assert len(left) >= 4
            queue = queues.pop()
            for event, order, slot in queue.log:
                if event == "emit":
                    left[gop_of[order]] -= 1
                    continue
                assert not any(left[: max(gop_of[order] - 1, 0)]), (
                    f"picture {order} (GOP {gop_of[order]}) dispatched with "
                    f"pictures of GOP <= {gop_of[order] - 2} not yet emitted"
                )
                assert 0 <= slot < queue.window.size
            assert not any(left)
            longest = max(gop_of.count(g) for g in set(gop_of))
            assert queue.window.size <= max(longest, 2 * workers) + 2
            assert dec.last_pool_bytes == (
                dec.layout.slot_bytes * queue.window.size if workers else 0
            )
        # Memory is a function of GOP structure and worker count only
        # (paper Fig. 8), not of how long the stream is.
        assert pool_bytes[0] == pool_bytes[1]


class TestObservability:
    def test_pool_bytes_and_wall_recorded(self, two_gop_stream):
        dec = MPSliceDecoder(two_gop_stream, workers=2, mode="simple")
        dec.decode_all()
        assert dec.last_pool_bytes > 0
        assert dec.last_wall_seconds > 0
        breakdown = dec.stall_breakdown()
        assert 0.0 <= sum(breakdown.values()) <= 1.0

    def test_improved_mode_reports_zero_barrier(self, medium_stream):
        # By construction the improved policy's only gating reason is
        # reference publication — it must never report barrier stall.
        from repro.obs.stalls import REASON_BARRIER

        dec = MPSliceDecoder(medium_stream, workers=2, mode="improved")
        dec.decode_all()
        assert dec.last_stalls.by_reason().get(REASON_BARRIER, 0.0) == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_scheduler_gated_seconds_fit_in_wall_seconds(
        self, medium_stream, mode
    ):
        # One gate clock at a time, started only when a free credit
        # found a picture in the way: the scheduler lane cannot be
        # gated for longer than the decode ran.
        from repro.obs.stalls import REASON_BARRIER, REASON_REF_PUBLISH

        dec = MPSliceDecoder(medium_stream, workers=2, mode=mode)
        dec.decode_all()
        lane = dec.last_stalls.snapshot().get("scheduler", {})
        gated = sum(
            lane.get(reason, {}).get("total", 0.0)
            for reason in (REASON_REF_PUBLISH, REASON_BARRIER)
        )
        assert 0.0 <= gated <= dec.last_wall_seconds

    def test_inprocess_allocates_no_pool(self, small_stream):
        dec = MPSliceDecoder(small_stream, workers=0)
        dec.decode_all()
        assert dec.last_pool_bytes == 0
