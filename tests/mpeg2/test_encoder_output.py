"""The encoder's output is pinned byte for byte.

The decoders are checked against committed streams, but nothing else
checks that the encoder still *produces* them.  These tests re-encode
every golden-vector recipe and compare the committed stream hash, and
pin the two benchmark clip specifications, so any change to motion
search, mode decision, transform, quantisation, entropy coding or
decode-back that alters a single bit fails here first.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.video.streams import TestStreamSpec, build_stream
from tests.vectors.generate_vectors import VECTORS, build_vector

DIGEST_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "vectors", "digests.json"
)

#: The benchmark clips (352x240 at 5 Mb/s and 176x120 at 2 Mb/s, one
#: rate-controlled 13-picture GOP, seed 1) and their stream hashes.
BENCH_CLIPS = {
    "352x240": (
        TestStreamSpec(
            name="bench/352x240", width=352, height=240, gop_size=13,
            pictures=13, bit_rate=5_000_000, seed=1,
        ),
        "bf9736afe910acf111d374319be12d385760a19cd6c3bf801d48bfcda5741c98",
    ),
    "176x120": (
        TestStreamSpec(
            name="bench/176x120", width=176, height=120, gop_size=13,
            pictures=13, bit_rate=2_000_000, seed=1,
        ),
        "241029260481b2dce8efcabe69090b57ca4e4dea4bd6b50e182065a4c80d3c45",
    ),
}


def _committed() -> dict[str, dict]:
    with open(DIGEST_PATH) as fh:
        return json.load(fh)["streams"]


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_golden_recipe_reencodes_to_committed_stream(name):
    data = build_vector(name, VECTORS[name])
    assert hashlib.sha256(data).hexdigest() == _committed()[name]["stream_sha256"]


@pytest.mark.parametrize("clip", sorted(BENCH_CLIPS))
def test_bench_clip_spec_encodes_to_pinned_stream(clip):
    spec, digest = BENCH_CLIPS[clip]
    data = build_stream(spec, use_cache=False)
    assert hashlib.sha256(data).hexdigest() == digest
