"""Streamed GOP decode: batching and streaming must change nothing.

The batched engine's GOP decode (``SequenceDecoder.decode_gop``) parses
one *reference interval* at a time — a reference picture plus the B
pictures after it in coding order — runs phase 2 picture by picture,
and yields frames in display order as each display prefix completes.
That reorders *computation*, never *semantics*.  This suite pins that
claim:

* every committed golden vector — and every still-decodable negative —
  decodes to the same pixels **and** identical work counters under the
  scalar oracle and the batched engine;
* every rejected ``neg_*`` vector raises the **same exception class**
  from both engines (derived live from the scalar run, not just from
  the pinned name, so the two engines are compared against each other);
* a Hypothesis property: transplanting a same-type picture's slice
  into another picture — creating two *different* coded slices for the
  same macroblock row — never breaks the bitstream-last-wins scatter
  order.  The batched engine assembles a whole picture's coefficients
  in one array; this is the test that the assembly's duplicate-row
  resolution matches the sequential decoder's overwrite order;
* the streaming contract: the first frame comes after one interval's
  parse, counters are charged once at exhaustion (never by an iterator
  closed early), a corrupt slice in a later interval raises after the
  earlier frames came out bit-exact, the release rule is the stable
  display sort for any split into intervals, and the consumer's time
  between frames is never booked as decode time.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpeg2 import kernel as kernel_mod
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder, release_in_display_order
from repro.mpeg2.index import GopIndex, build_index
from repro.obs.metrics import metrics, reset_metrics
from repro.obs.trace import disable_tracing, enable_tracing
from repro.parallel.mp_slice import MPSliceDecoder
from tests.mpeg2.test_golden_vectors import (
    CORPUS,
    DECODABLE_NEGATIVES,
    ERROR_NEGATIVES,
    NEGATIVE,
    VECTOR_NAMES,
    load_vector,
)


def _decode(data: bytes, engine: str) -> tuple[list[str], WorkCounters]:
    counters = WorkCounters()
    frames = SequenceDecoder(data, engine=engine).decode_all(counters)
    return [f.digest() for f in frames], counters


class TestGopBatchedParity:
    """Full-corpus scalar vs GOP-batched: pixels and counters."""

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    def test_golden_corpus_pixels_and_counters(self, name):
        data = load_vector(name)
        scalar_digests, scalar_counters = _decode(data, "scalar")
        batched_digests, batched_counters = _decode(data, "batched")
        assert batched_digests == scalar_digests
        assert batched_digests == CORPUS[name]["frame_digests"]
        assert batched_counters == scalar_counters, (
            f"GOP-batched counters drifted from scalar on {name}"
        )

    @pytest.mark.parametrize("name", DECODABLE_NEGATIVES)
    def test_decodable_negatives_pixels_and_counters(self, name):
        data = load_vector(name)
        scalar_digests, scalar_counters = _decode(data, "scalar")
        batched_digests, batched_counters = _decode(data, "batched")
        assert batched_digests == scalar_digests
        assert batched_digests == NEGATIVE[name]["frame_digests"]
        assert batched_counters == scalar_counters


class TestGopBatchedErrors:
    """Rejected vectors: same exception class, engine vs engine."""

    @staticmethod
    def _exc_class(data: bytes, engine: str) -> type | None:
        try:
            SequenceDecoder(data, engine=engine).decode_all()
        except Exception as exc:
            return type(exc)
        return None

    @pytest.mark.parametrize("name", ERROR_NEGATIVES)
    def test_same_exception_class_as_scalar(self, name):
        data = load_vector(name)
        scalar_cls = self._exc_class(data, "scalar")
        batched_cls = self._exc_class(data, "batched")
        assert scalar_cls is not None, f"scalar decoded {name}"
        assert batched_cls is scalar_cls, (
            f"GOP-batched rejected {name} with "
            f"{batched_cls and batched_cls.__name__}, scalar raised "
            f"{scalar_cls.__name__}"
        )
        assert scalar_cls.__name__ == NEGATIVE[name]["error"]


# ----------------------------------------------------------------------
# Hypothesis: duplicate-row scatter order survives the mega-batch
# ----------------------------------------------------------------------
_BASE = "ipb_64x48_gop13"
_BASE_DATA = load_vector(_BASE)
_PICS = build_index(_BASE_DATA).gops[0].pictures

#: (target_pic, donor_pic, row): donor's row-``row`` slice can legally
#: ride in target's slice run because both pictures are the same coding
#: type (same prediction mode and f_codes), so its parse is valid in
#: target's header context.  ``donor == target`` (a byte-identical
#: duplicate) is included on purpose — it must be counted, not crash.
_CANDIDATES = [
    (ti, di, row)
    for ti, tp in enumerate(_PICS)
    for di, dp in enumerate(_PICS)
    if tp.picture_type is dp.picture_type
    for row in sorted(
        {s.vertical_position for s in tp.slices}
        & {s.vertical_position for s in dp.slices}
    )
]


def _transplant(data: bytes, target: int, donor: int, row: int) -> bytes:
    """Append donor's row-``row`` slice at the end of target's run.

    The appended copy is bitstream-last for its row, so *it* must win
    the scatter — in the scalar decoder by plain overwrite order, in
    the GOP-batched engine by its duplicate-row resolution.
    """
    pics = build_index(data).gops[0].pictures
    donor_sl = next(
        s for s in pics[donor].slices if s.vertical_position == row
    )
    chunk = data[donor_sl.payload_start - 4 : donor_sl.payload_end]
    cut = pics[target].slices[-1].payload_end
    return data[:cut] + chunk + data[cut:]


@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(st.sampled_from(_CANDIDATES), min_size=1, max_size=3),
)
def test_mega_batch_preserves_last_wins_scatter(ops):
    """Property: per-GOP batching never reorders duplicate-row writes.

    Each op splices a (possibly different-content) slice for an
    already-coded row into a picture; stacked ops can pile several
    duplicates onto one row.  Whatever the wire order ends up being,
    scalar, GOP-batched and the slice-parallel static resolver must
    agree bit-for-bit on pixels *and* work counters (every duplicate's
    parse work counted exactly once per copy).
    """
    data = _BASE_DATA
    for target, donor, row in ops:
        data = _transplant(data, target, donor, row)

    scalar_digests, scalar_counters = _decode(data, "scalar")
    batched_digests, batched_counters = _decode(data, "batched")
    assert batched_digests == scalar_digests
    assert batched_counters == scalar_counters

    slice_counters = WorkCounters()
    slice_frames = MPSliceDecoder(
        data, workers=0, mode="improved"
    ).decode_all(slice_counters)
    assert [f.digest() for f in slice_frames] == scalar_digests
    assert slice_counters == scalar_counters


# ----------------------------------------------------------------------
# the streaming contract of decode_gop
# ----------------------------------------------------------------------
_GOP = build_index(_BASE_DATA).gops[0]
_DIGESTS = CORPUS[_BASE]["frame_digests"]


def test_first_frame_needs_only_the_first_interval(monkeypatch):
    """Lazy: the first frame is out after the first interval's parse."""
    parsed = []
    real = kernel_mod.parse_slice

    def counting(payload, vpos, *args):
        parsed.append(vpos)
        return real(payload, vpos, *args)

    monkeypatch.setattr(kernel_mod, "parse_slice", counting)
    dec = SequenceDecoder(_BASE_DATA, engine="batched")
    frames = dec.decode_gop(_GOP)
    assert parsed == []
    first = next(frames)
    first_interval = _GOP.reference_intervals()[0]
    assert parsed == [
        sl.vertical_position
        for pos in first_interval
        for sl in _GOP.pictures[pos].slices
    ]
    assert first.digest() == _DIGESTS[0]
    rest = list(frames)
    assert [f.digest() for f in [first, *rest]] == _DIGESTS
    assert len(parsed) == sum(len(p.slices) for p in _GOP.pictures)


@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_counters_charged_once_at_exhaustion(engine):
    """Counters land when the GOP is exhausted; closing early adds none."""
    expected = WorkCounters()
    SequenceDecoder(_BASE_DATA, engine="scalar").decode_all(expected)
    dec = SequenceDecoder(_BASE_DATA, engine=engine)

    counters = WorkCounters()
    frames = dec.decode_gop(_GOP, counters)
    for _ in range(len(_GOP.pictures)):
        next(frames)
        assert counters == WorkCounters()
    with pytest.raises(StopIteration):
        next(frames)
    assert counters == expected
    with pytest.raises(StopIteration):
        next(frames)
    assert counters == expected

    early = WorkCounters()
    frames = dec.decode_gop(_GOP, early)
    next(frames)
    frames.close()
    assert early == WorkCounters()


def _corrupt(data: bytes, pos: int, keep: int, fill: bytes) -> bytes:
    """Overwrite coding position ``pos``'s second slice after ``keep``
    payload bytes with ``fill`` repeated."""
    sl = build_index(data).gops[0].pictures[pos].slices[1]
    n = sl.payload_end - sl.payload_start - keep
    body = data[sl.payload_start : sl.payload_start + keep] + (fill * n)[:n]
    return data[: sl.payload_start] + body + data[sl.payload_end :]


@pytest.mark.parametrize(
    "pos,keep,fill",
    [
        (4, 4, b"\xaa"),  # BlockSyntaxError, P6 opens interval 3
        (9, 8, b"\x00\x01"),  # VLCError, in B8, last of interval 4
        (12, 0, b"\xaa"),  # SliceDecodeError, in the last interval
    ],
)
def test_strict_corrupt_slice_in_later_interval(pos, keep, fill):
    """Frames before the corrupt interval come out bit-exact; then the
    scalar oracle's exception, class and message, follows."""
    data = _corrupt(_BASE_DATA, pos, keep, fill)
    gop = build_index(data).gops[0]
    with pytest.raises(Exception) as oracle:
        SequenceDecoder(data, engine="scalar").decode_all()
    interval = next(r for r in gop.reference_intervals() if pos in r)

    got = []
    with pytest.raises(oracle.type) as raised:
        for frame in SequenceDecoder(data, engine="batched").decode_gop(gop):
            got.append(frame.digest())
    assert str(raised.value) == str(oracle.value)
    assert got == _DIGESTS[: interval.start]
    with pytest.raises(oracle.type):
        SequenceDecoder(data, engine="batched").decode_all()


@settings(max_examples=200, deadline=None)
@given(
    refs=st.lists(st.integers(0, 6), min_size=0, max_size=14),
    cuts=st.sets(st.integers(1, 13)),
)
def test_release_rule_is_the_stable_display_sort(refs, cuts):
    """Any temporal references (duplicates too), any split into
    intervals: frames leave in the stable sort by temporal reference,
    each only after its own interval was decoded."""
    n = len(refs)
    items = [SimpleNamespace(pos=p, temporal_reference=t) for p, t in enumerate(refs)]
    bounds = [0, *sorted(c for c in cuts if c < n), n]
    spans = [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    done = []

    def intervals():
        for k, span in enumerate(spans):
            done.append(k)
            yield {p: items[p] for p in span}

    interval_of = {p: k for k, span in enumerate(spans) for p in span}
    order = GopIndex(True, False, 0, 0, items).display_order()
    emitted = []
    for item in release_in_display_order(order, intervals()):
        assert interval_of[item.pos] in done
        emitted.append(item)
    assert emitted == sorted(items, key=lambda it: it.temporal_reference)


def test_consumer_time_is_not_decode_time():
    """A consumer sleeping between frames: no decode span stays open
    across a yield, and ``decode.gop_ms`` excludes the sleeps."""
    nap = 0.03
    reset_metrics()
    tracer = enable_tracing()
    naps = []
    try:
        for _ in SequenceDecoder(_BASE_DATA, engine="batched").decode_gop(_GOP):
            t0 = time.monotonic_ns()
            time.sleep(nap)
            naps.append((t0, time.monotonic_ns()))
        events = [e for e in tracer.events if e.get("ph") == "X"]
    finally:
        disable_tracing()
    snap = metrics().snapshot()["histograms"]
    reset_metrics()

    pictures = len(_GOP.pictures)
    count = {}
    for e in events:
        count[e["name"]] = count.get(e["name"], 0) + 1
        for a, b in naps:
            assert not (e["ts"] <= a and b <= e["ts"] + e["dur"]), e
    assert count["decode.parse"] == pictures
    assert count["decode.picture"] == pictures
    assert count["decode.reconstruct"] == pictures
    assert count["decode.gop"] == len(_GOP.reference_intervals())
    assert snap["decode.picture_ms"]["count"] == pictures
    assert snap["decode.gop_ms"]["count"] == 1
    assert snap["decode.gop_ms"]["sum"] < nap * 1e3 * len(naps)
