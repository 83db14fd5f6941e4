"""Cycle-for-cycle pins of the simulated decoders.

The simulated SMP is deterministic, so a refactor of the simulator that
claims to change no behaviour can be held to exact equality: every row
of ``sim_golden.json`` is one simulated run — decoder x worker count x
pacing, plus the bounded pool, the NUMA decoder and the untiled
stream — and pins its finish time, display times, per-worker busy /
stall / sync-wait cycles, memory curve and lateness.  The stall table
is deliberately not pinned: ``merge.reorder`` attribution is
bookkeeping beside the cycle counts, not part of them.

Regenerate (only when a change *means* to move cycle counts, and says
why) with ``PYTHONPATH=src python -m tests.parallel.test_sim_golden``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import pytest

from repro.parallel import (
    GopLevelDecoder,
    MacroblockLevelDecoder,
    ParallelConfig,
    PlacedGopDecoder,
    SliceLevelDecoder,
    SliceMode,
    profile_stream,
)
from repro.parallel.profile import tile_profile
from repro.smp import challenge, dash

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "sim_golden.json")

WORKERS = (1, 2, 4, 8, 14)
#: (display rate Hz, preroll pictures)
PACING = ((None, 0), (30.0, 0), (30.0, 2))
KINDS = ("gop", "slice-simple", "slice-improved", "macroblock")


def matrix() -> dict[str, tuple[str, dict]]:
    """Run id -> (decoder kind, ``ParallelConfig`` keywords)."""
    runs: dict[str, tuple[str, dict]] = {}
    for kind in KINDS:
        for workers in WORKERS:
            for rate, preroll in PACING:
                pace = "unpaced" if rate is None else f"30hz-preroll{preroll}"
                runs[f"{kind}-p{workers}-{pace}"] = (kind, dict(
                    workers=workers, display_rate_hz=rate,
                    display_preroll_pictures=preroll,
                ))
    # Bounded frame pool (one run paced faster than it can decode, so
    # the late-picture path is pinned too).
    for workers, cap, rate in (
        (2, 1, None), (4, 4, None), (4, 13, None), (8, 13, 3000.0),
        (14, 26, None),
    ):
        runs[f"gop-p{workers}-cap{cap}" + ("-late" if rate else "")] = (
            "gop",
            dict(workers=workers, max_frames_in_flight=cap, display_rate_hz=rate),
        )
    for workers in WORKERS:
        late = workers == 4
        runs[f"numa-p{workers}" + ("-late" if late else "")] = ("numa", dict(
            workers=workers, machine=dash(16),
            display_rate_hz=3000.0 if late else None,
            display_preroll_pictures=int(late),
        ))
    for kind in KINDS[:3]:
        for workers in (1, 3):
            runs[f"{kind}-p{workers}-untiled"] = (kind, dict(workers=workers))
    return runs


@functools.lru_cache(maxsize=1)
def _profiles(data: bytes):
    base = profile_stream(data)
    return base, tile_profile(base, 4)


def simulate(run_id: str, kind: str, kwargs: dict, data: bytes):
    # The untiled runs replay the two-GOP stream's own profile; the
    # rest replay it tiled x4 (8 GOPs, 104 pictures).
    profile = _profiles(data)[0 if run_id.endswith("-untiled") else 1]
    config = ParallelConfig(**{"machine": challenge(16), **kwargs})
    if kind == "gop":
        return GopLevelDecoder(profile).run(config)
    if kind == "numa":
        return PlacedGopDecoder(profile).run(config)
    if kind == "macroblock":
        return MacroblockLevelDecoder(profile).run(config)
    mode = SliceMode(kind.removeprefix("slice-"))
    return SliceLevelDecoder(profile).run(config, mode)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def measure(kind: str, result) -> dict:
    row = {
        "finish_cycles": result.finish_cycles,
        "display_times": _sha(result.display_times),
        "worker_busy": result.worker_busy,
        "worker_stall": result.worker_stall,
        "worker_sync": result.worker_sync,
        "peak_memory": result.peak_memory,
        "memory_curve": _sha(result.memory.curve()),
        "late_pictures": result.late_pictures,
        "max_lateness_cycles": result.max_lateness_cycles,
    }
    if kind != "macroblock":
        row["startup_cycles"] = result.startup_cycles
    return row


def stream_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def pins() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_matrix_is_the_pinned_one(pins):
    assert sorted(matrix()) == sorted(pins["runs"])
    assert len(pins["runs"]) == 76


@pytest.mark.parametrize("run_id", sorted(matrix()))
def test_run_matches_golden(run_id, pins, medium_stream):
    # The pins are of this input: a stream that encodes differently
    # needs new pins, not a comparison against the old ones.
    assert stream_sha(medium_stream) == pins["stream_sha256"], (
        "the medium_stream fixture changed; regenerate sim_golden.json"
    )
    kind, kwargs = matrix()[run_id]
    assert measure(kind, simulate(run_id, kind, kwargs, medium_stream)) == (
        pins["runs"][run_id]
    )


if __name__ == "__main__":
    from repro.mpeg2.encoder import EncoderConfig, encode_sequence
    from repro.video.synthetic import SyntheticVideo

    # The ``medium_stream`` fixture of tests/conftest.py.
    stream = encode_sequence(
        SyntheticVideo(width=96, height=64, seed=3).frames(26),
        EncoderConfig(gop_size=13, qscale_code=3),
    )
    doc = {
        "stream_sha256": stream_sha(stream),
        "runs": {
            run_id: measure(kind, simulate(run_id, kind, kwargs, stream))
            for run_id, (kind, kwargs) in sorted(matrix().items())
        },
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc['runs'])} runs to {GOLDEN_PATH}")
