"""The fixed rule ``--grain auto`` and ``--engine auto`` resolve to.

The paper ends (§6) on a fixed rule: GOP grain for throughput, slice
grain for latency.  GOP tasks here hand over each picture as it is
decoded, so GOP grain matches slice grain on the first picture of play
too, and both grains run the same kernels on the same cores.  So
``auto`` is GOP grain and the ``batched`` engine; a pinned axis stays
pinned.  EXPERIMENTS.md ("Fixed vs auto") has the evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.bandwidth import BandwidthProfile

GRAIN_CHOICES = ("auto", "gop", "slice")
ENGINE_CHOICES = ("auto", "scalar", "batched")


@dataclass(frozen=True)
class Decision:
    """What runs; ``reason`` is ``"pinned"`` when both axes were
    given, else ``"rule"``."""

    grain: str
    engine: str
    reason: str


def resolve(grain: str = "auto", engine: str = "auto") -> Decision:
    """Apply the rule.  Slice grain runs only the batched engine, so
    asking for it with ``scalar`` raises rather than being ignored."""
    for axis, value, choices in (
        ("grain", grain, GRAIN_CHOICES), ("engine", engine, ENGINE_CHOICES)
    ):
        if value not in choices:
            raise ValueError(f"unknown {axis} {value!r}; expected {choices}")
    if (grain, engine) == ("slice", "scalar"):
        raise ValueError(
            "grain 'slice' with engine 'scalar': slice grain runs only "
            "the batched engine"
        )
    return Decision(
        grain="gop" if grain == "auto" else grain,
        engine="batched" if engine == "auto" else engine,
        reason="pinned" if "auto" not in (grain, engine) else "rule",
    )


@dataclass(frozen=True)
class AutoGranularity:
    """:func:`resolve` for one stream; a hint pins its axis."""

    profile: BandwidthProfile
    workers: int
    grain_hint: str | None = None
    engine_hint: str | None = None

    def decide(self) -> Decision:
        # Reads neither profile nor workers; bench/probes.py builds it (ROADMAP item 1(e)).
        return resolve(self.grain_hint or "auto", self.engine_hint or "auto")
