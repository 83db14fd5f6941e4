"""Trick-play conformance: every mode, every vector, bit-identical.

Random access is only worth having if it is *exact*: a seek, a
reverse scan, a fast-forward pass or an I-frame skim must emit frames
that are bit-for-bit the frames a linear decode would have produced
at the same display indices.  Closed GOPs make that a theorem (no
coded state crosses an entry point); this suite makes it a gate.

Three layers of pinning:

* the committed ``trickplay`` digest sets in ``digests.json`` — the
  scalar engine must reproduce them exactly (drift detection, same
  contract as the linear golden digests);
* the shared :class:`GoldenCache` trick oracle — the planner's
  selection over the one session-wide linear decode — compared
  frame-for-frame against the batched engine and the mp path;
* the negative surface: seek past EOF and seek into an open GOP must
  refuse on every path, never emit a best-effort frame.

Every path decodes the plan's index view, so each also charges the
same work: what the plan shows plus what that predicts from.
"""

from __future__ import annotations

import json

import pytest

from repro.access import (
    FF_GOP_STRIDE,
    SeekError,
    plan_trick,
    trick_decode,
    trick_decode_mp,
)
from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.mpeg2.index import StreamIndexError, build_index
from repro.video.synthetic import SyntheticVideo

from tests.conftest import DIGEST_PATH
from tests.mpeg2.test_golden_vectors import load_vector

with open(DIGEST_PATH) as _fh:
    _DOC = json.load(_fh)
TRICKPLAY: dict[str, dict] = _DOC["trickplay"]
NEGATIVE: dict[str, dict] = _DOC["negative"]

VECTOR_NAMES = sorted(TRICKPLAY)

#: (vector, mode label, mode, target) for every pinned trick entry.
CASES = [
    (name, label, *(("seek", int(label.split("@")[1]))
                    if label.startswith("seek@") else (label, 0)))
    for name in VECTOR_NAMES
    for label in sorted(TRICKPLAY[name]["modes"])
]


def _ids(cases):
    return [f"{n}-{label}" for n, label, _, _ in cases]


class TestPinnedDigests:
    """The scalar engine reproduces every committed trick digest."""

    @pytest.mark.parametrize("name,label,mode,target", CASES, ids=_ids(CASES))
    def test_scalar_matches_pinned(self, golden, name, label, mode, target):
        entry = TRICKPLAY[name]["modes"][label]
        pairs = trick_decode(
            golden.data(name), mode, target=target,
            index=golden.index(name), engine="scalar",
        )
        assert [d for d, _ in pairs] == entry["display_indices"], (name, label)
        assert [f.digest() for _, f in pairs] == entry["frame_digests"], (
            f"{name} {label}: scalar trick decode drifted from the "
            "pinned digests"
        )

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    def test_trick_digests_are_subsets_of_linear(self, name):
        # Transitivity anchor: every pinned trick digest IS the pinned
        # linear digest at its display index, by construction.
        linear = _DOC["streams"][name]["frame_digests"]
        for label, entry in TRICKPLAY[name]["modes"].items():
            assert entry["frame_digests"] == [
                linear[d] for d in entry["display_indices"]
            ], (name, label)


class TestEngineParity:
    """batched and mp agree with the shared linear-oracle selection."""

    @pytest.mark.parametrize("name,label,mode,target", CASES, ids=_ids(CASES))
    @pytest.mark.parametrize("path", ["batched", "mp-inprocess"])
    def test_path_matches_oracle(self, golden, name, label, mode, target, path):
        expect = golden.trick(name, mode, target=target)
        if path == "batched":
            pairs = trick_decode(
                golden.data(name), mode, target=target,
                index=golden.index(name), engine="batched",
            )
        else:
            pairs = trick_decode_mp(
                golden.data(name), mode, target=target,
                index=golden.index(name), workers=0,
            )
        assert [d for d, _ in pairs] == [d for d, _ in expect], (name, label)
        for (d, got), (_, want) in zip(pairs, expect):
            assert got.digest() == want.digest(), (
                f"{name} {label} [{path}]: display index {d} diverges "
                "from the linear oracle"
            )

    def test_mp_worker_processes_match_oracle(self, golden):
        # One real worker-pool run (the in-process fallback covered the
        # full matrix above); two GOPs so the pool actually fans out.
        name = "two_gop_48x32"
        expect = golden.trick(name, "ff2")
        pairs = trick_decode_mp(golden.data(name), "ff2", workers=2)
        assert [(d, f.digest()) for d, f in pairs] == [
            (d, f.digest()) for d, f in expect
        ]


class TestTrickSemantics:
    """Mode semantics pinned structurally, not just by digest."""

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    def test_seek_emits_exact_tail(self, golden, name):
        index = golden.index(name)
        for target in TRICKPLAY[name]["seek_targets"]:
            plan = plan_trick(index, "seek", target=target)
            assert plan.display_indices(index) == list(
                range(target, index.picture_count)
            ), (name, target)

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    def test_reverse_is_reversed_linear(self, golden, name):
        index = golden.index(name)
        plan = plan_trick(index, "reverse")
        assert plan.display_indices(index) == list(
            reversed(range(index.picture_count))
        )

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    @pytest.mark.parametrize("rate", sorted(FF_GOP_STRIDE))
    def test_ff_emits_only_references(self, golden, name, rate):
        index = golden.index(name)
        plan = plan_trick(index, f"ff{rate}")
        by_display = {}
        for gi, gop in enumerate(index.gops):
            for rank, pic in enumerate(
                sorted(gop.pictures, key=lambda p: p.temporal_reference)
            ):
                by_display[index.gop_display_base(gi) + rank] = (
                    pic.picture_type.letter
                )
        letters = {by_display[d] for d in plan.display_indices(index)}
        assert "B" not in letters, (name, rate)


def _paths(data, mode, target=0):
    """``(path, pairs, counters)`` for every trick decode path."""
    for path, run in (
        ("scalar", lambda c: trick_decode(
            data, mode, target=target, engine="scalar", counters=c)),
        ("batched", lambda c: trick_decode(
            data, mode, target=target, engine="batched", counters=c)),
        ("mp-inprocess", lambda c: trick_decode_mp(
            data, mode, target=target, workers=0, counters=c)),
    ):
        counters = WorkCounters()
        yield path, run(counters), counters


class TestPlannedWork:
    """A plan charges its reference closure, and nothing else."""

    def test_seek_decodes_only_its_closure(self, golden):
        # Seek@7 into I0 P3 B1 B2 P6 B4 B5 P9 B7 B8 P12 B10 B11 decodes
        # I0 P3 P6 P9 B7 B8 P12 B10 B11: the GOP header plus 9 pictures
        # of a header and 3 slices each, not the whole GOP's 53.
        for path, pairs, counters in _paths(
            golden.data("ipb_64x48_gop13"), "seek", 7
        ):
            assert [d for d, _ in pairs] == list(range(7, 13)), path
            assert counters.headers == 37, path

    @pytest.mark.parametrize("name", VECTOR_NAMES)
    @pytest.mark.parametrize("mode", ["ff2", "ff4", "iframes"])
    def test_skims_charge_only_reference_pictures(self, golden, name, mode):
        index = golden.index(name)
        plan = plan_trick(index, mode)
        shown = []
        for gop, rank in plan.emissions:
            g = index.gops[gop]
            shown.append(g.pictures[g.display_order()[rank]])
        assert all(pic.picture_type.is_reference for pic in shown)
        gops = len({gop for gop, _ in plan.emissions})
        headers = gops + sum(1 + len(pic.slices) for pic in shown)
        for path, _pairs, counters in _paths(golden.data(name), mode):
            assert counters.headers == headers, (name, mode, path)


@pytest.fixture(scope="module")
def two_gop_13():
    """26 pictures in two closed 13-picture GOPs."""
    video = SyntheticVideo(width=48, height=32, seed=29).frames(26)
    return encode_sequence(video, EncoderConfig(gop_size=13, qscale_code=3))


class TestSeekAndFastForward:
    def test_ff_target_joins_and_keeps_source_indices(self, two_gop_13):
        # ff2 from picture 15 joins at GOP 1 and emits its I/P pictures
        # under their own display indices, so a dump of them diffs 1:1
        # against a linear decode's.
        linear = SequenceDecoder(two_gop_13).decode_all()
        for path, pairs, _ in _paths(two_gop_13, "ff2", 15):
            assert [d for d, _ in pairs] == [13, 16, 19, 22, 25], path
            assert [f.digest() for _, f in pairs] == [
                linear[d].digest() for d, _ in pairs
            ], path

    def test_ff_target_past_eof_refused(self, two_gop_13):
        with pytest.raises(SeekError):
            plan_trick(build_index(two_gop_13), "ff2", 26)


class TestNegativeSurface:
    @pytest.mark.parametrize("name", VECTOR_NAMES)
    def test_seek_past_eof_refused(self, golden, name):
        count = golden.index(name).picture_count
        for attempt in (
            lambda: trick_decode(golden.data(name), "seek", target=count),
            lambda: trick_decode_mp(
                golden.data(name), "seek", target=count, workers=0
            ),
        ):
            with pytest.raises(SeekError):
                attempt()

    def test_join_past_eof_refused(self, golden):
        index = golden.index("two_gop_48x32")
        with pytest.raises(StreamIndexError):
            index.join_point(len(index.gops))

    def test_open_gop_seek_refused_on_every_path(self):
        entry = NEGATIVE["neg_open_gop_seek"]
        data = load_vector("neg_open_gop_seek")
        target = entry["seek_target"]
        for attempt in (
            lambda: trick_decode(data, "seek", target=target, engine="scalar"),
            lambda: trick_decode(data, "seek", target=target, engine="batched"),
            lambda: trick_decode_mp(data, "seek", target=target, workers=0),
        ):
            with pytest.raises(SeekError):
                attempt()
        # join_point must refuse too: no closed GOP remains at/after 1.
        with pytest.raises(StreamIndexError):
            build_index(data).join_point(1)
