"""Shared fixtures: small encoded streams reused across test modules.

Streams are built once per session at small sizes that still exercise
every syntax element (I/P/B pictures, skips, multiple slices and GOPs).
Encoding is not the slow part of the suite: a whole tier-1 run spends
≈ 5 s of its ≈ 95 s in the encoder on a 2-vCPU VM, and ≈ 1.3 s of
that pins the two benchmark clips (``test_encoder_output.py``).

A larger cost is *re-decoding the committed golden vectors*:
several parity suites (scalar vs batched vs mp-gop vs mp-slice vs
serve) each used to decode the same 6 corpus streams per module.  The
session-scoped :class:`GoldenCache` (``golden`` fixture) decodes each
vector through the scalar oracle exactly once per test session and
hands out the shared frames/counters, so adding another parity
consumer no longer adds another full-corpus decode to the wall time.

The process-level suites (mp decoders, executor, serve) share one pair
of "no leaks, no hangs" postcondition fixtures: :func:`no_shm_leak`
and the SIGALRM :func:`deadline` (``watchdog`` to the serve suites).
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.video.synthetic import SyntheticVideo

VECTOR_DIR = os.path.join(os.path.dirname(__file__), "vectors")
DIGEST_PATH = os.path.join(VECTOR_DIR, "digests.json")


class GoldenCache:
    """Lazy per-session cache of golden-vector bytes + scalar decodes.

    ``data(name)`` returns the committed coded bytes; ``scalar(name)``
    returns ``(frames, counters)`` from the sequential scalar oracle,
    decoded at most once per session.  Vectors a test run never asks
    for are never decoded (keeps ``pytest -k`` focused runs fast).
    Callers must treat the returned frames/counters as immutable —
    they are shared across every consumer suite.
    """

    def __init__(self) -> None:
        with open(DIGEST_PATH) as fh:
            doc = json.load(fh)
        self.corpus: dict[str, dict] = doc["streams"]
        self.negative: dict[str, dict] = doc["negative"]
        self.trickplay: dict[str, dict] = doc.get("trickplay", {})
        self._bytes: dict[str, bytes] = {}
        #: (vector, mode[, target]) -> decode products.  Keying on the
        #: *mode* matters: trick-play oracles are selections over the
        #: one linear decode, so asking for every mode of a vector
        #: still costs exactly one scalar decode per session.
        self._oracle: dict[tuple, tuple] = {}
        self._index: dict[str, object] = {}

    @property
    def names(self) -> list[str]:
        return sorted(self.corpus)

    def entry(self, name: str) -> dict:
        return self.corpus.get(name) or self.negative[name]

    def data(self, name: str) -> bytes:
        if name not in self._bytes:
            path = os.path.join(VECTOR_DIR, self.entry(name)["file"])
            with open(path, "rb") as fh:
                self._bytes[name] = fh.read()
        return self._bytes[name]

    def index(self, name: str):
        """Shared scan index for a committed vector."""
        if name not in self._index:
            from repro.mpeg2.index import build_index

            self._index[name] = build_index(self.data(name))
        return self._index[name]

    def scalar(self, name: str) -> tuple:
        """``(frames, counters)`` from one shared scalar-oracle decode."""
        key = (name, "linear")
        if key not in self._oracle:
            from repro.mpeg2.counters import WorkCounters
            from repro.mpeg2.decoder import SequenceDecoder

            counters = WorkCounters()
            frames = SequenceDecoder(
                self.data(name), engine="scalar"
            ).decode_all(counters)
            self._oracle[key] = (frames, counters)
        return self._oracle[key]

    def trick(self, name: str, mode: str, target: int = 0) -> list:
        """Expected ``(display_index, frame)`` pairs for a trick mode.

        Closed GOPs make every trick mode an exact *subset* of the
        linear decode, so the oracle is the planner's selection over
        the shared scalar frames — no second decode, and any decoder
        output compared against it is transitively compared against
        the pinned linear digests.
        """
        key = (name, mode, target)
        if key not in self._oracle:
            from repro.access import plan_trick

            frames, _ = self.scalar(name)
            plan = plan_trick(self.index(name), mode, target=target)
            dis = plan.display_indices(self.index(name))
            self._oracle[key] = [(d, frames[d]) for d in dis]
        return self._oracle[key]


#: Upper bound on how long a faulted or wedged run may take to fail —
#: "no hang" made executable.  Generous (CI boxes are slow); the
#: liveness poll should surface a death within ~a second.
FAIL_DEADLINE_S = 60

SHM_DIR = "/dev/shm"


def shm_snapshot() -> set[str]:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux
        return set()
    return set(os.listdir(SHM_DIR))


@pytest.fixture
def no_shm_leak():
    """Assert the test leaves no new /dev/shm entries behind."""
    before = shm_snapshot()
    yield
    # Allow the resource tracker a beat to finish unlinking.
    for _ in range(20):
        leaked = shm_snapshot() - before
        if not leaked:
            return
        time.sleep(0.1)
    raise AssertionError(f"leaked shared-memory segments: {sorted(leaked)}")


@pytest.fixture
def deadline():
    """SIGALRM watchdog: a fault must surface — a crashed worker as a
    DecodeError, a wedged service as a failed run — not hang the suite."""

    def on_alarm(signum, frame):  # pragma: no cover - only on bug
        raise TimeoutError(
            f"run did not fail or finish within {FAIL_DEADLINE_S}s — "
            "the liveness poll is broken or the service hung"
        )

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(FAIL_DEADLINE_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def watchdog(deadline):
    """The serve suites' name for :func:`deadline`."""


@pytest.fixture(scope="session")
def golden() -> GoldenCache:
    """Session-scoped decoded-golden-vector cache (see GoldenCache)."""
    return GoldenCache()


@pytest.fixture(scope="session")
def small_video():
    """13 frames of 64x48 synthetic video (display order)."""
    return SyntheticVideo(width=64, height=48, seed=7).frames(13)


@pytest.fixture(scope="session")
def small_stream(small_video):
    """One closed 13-picture GOP at 64x48."""
    return encode_sequence(small_video, EncoderConfig(gop_size=13, qscale_code=3))


@pytest.fixture(scope="session")
def two_gop_video():
    """8 frames of 48x32 video: two 4-picture GOPs."""
    return SyntheticVideo(width=48, height=32, seed=11).frames(8)


@pytest.fixture(scope="session")
def two_gop_stream(two_gop_video):
    return encode_sequence(two_gop_video, EncoderConfig(gop_size=4, qscale_code=3))


@pytest.fixture(scope="session")
def medium_video():
    """26 frames of 96x64 video: two 13-picture GOPs (parallel tests)."""
    return SyntheticVideo(width=96, height=64, seed=3).frames(26)


@pytest.fixture(scope="session")
def medium_stream(medium_video):
    return encode_sequence(medium_video, EncoderConfig(gop_size=13, qscale_code=3))
