"""Per-stream bandwidth / burstiness profiling for admission control.

MPEG-2 rate is bursty at two scales: pictures (an I costs several times
a B) and GOPs (the I-picture recurs once per GOP).  A streaming server
that admits sessions on the *mean* rate alone overcommits the link
every GOP period; the "Bandwidth Characterization Tool for MPEG-2
File" line of work profiles exactly this peak-to-mean structure.  This
module measures it from the scan index — no decode needed, wire bytes
only — and the serve/net admission controllers consume the result:

* :func:`profile_stream` → :class:`BandwidthProfile` with mean and
  per-GOP peak bit rates, per-picture-type cost split, and the
  ``burstiness`` ratio (peak/mean, >= 1.0);
* :func:`admissible_sessions` answers "how many of these profiles fit
  a link budget" using **peak** rates, so an admitted set never
  oversubscribes the wire even when every stream hits its I-picture
  burst simultaneously (the conservative, no-statistical-muxing bound).

Run standalone for a report::

    PYTHONPATH=src python -m repro.analysis.bandwidth stream.m2v --fps 30
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.mpeg2.index import StreamIndex, build_index


@dataclass(frozen=True)
class GopBandwidth:
    """Wire cost of one GOP at a display rate."""

    gop: int
    pictures: int
    wire_bytes: int
    seconds: float
    bps: float


@dataclass(frozen=True)
class BandwidthProfile:
    """Bandwidth shape of one coded stream at a display rate.

    ``peak_bps`` is the largest per-GOP rate — the window admission
    control must budget for; ``burstiness`` is ``peak_bps / mean_bps``
    (1.0 for a perfectly smooth stream).
    """

    stream_bytes: int
    pictures: int
    fps: float
    mean_bps: float
    peak_bps: float
    burstiness: float
    gops: tuple[GopBandwidth, ...]
    #: Mean wire bytes per picture, keyed by picture type letter.
    mean_picture_bytes: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "stream_bytes": self.stream_bytes,
            "pictures": self.pictures,
            "fps": self.fps,
            "mean_bps": self.mean_bps,
            "peak_bps": self.peak_bps,
            "burstiness": self.burstiness,
            "mean_picture_bytes": dict(self.mean_picture_bytes),
            "gops": [
                {
                    "gop": g.gop,
                    "pictures": g.pictures,
                    "wire_bytes": g.wire_bytes,
                    "bps": g.bps,
                }
                for g in self.gops
            ],
        }


def profile_stream(
    data: bytes,
    fps: float = 30.0,
    index: StreamIndex | None = None,
) -> BandwidthProfile:
    """Measure a stream's bandwidth shape from its scan index.

    Pure byte accounting over the already-built index — no decode, so
    profiling an admission candidate costs microseconds, not a
    real-time budget.
    """
    if fps <= 0:
        raise ValueError(f"fps must be > 0, got {fps}")
    idx = index if index is not None else build_index(data)
    gops: list[GopBandwidth] = []
    per_type: dict[str, list[int]] = {}
    total_pictures = 0
    for gi, gop in enumerate(idx.gops):
        gop_bytes = gop.header_bits // 8
        for pic in gop.pictures:
            nbytes = pic.wire_bytes
            gop_bytes += nbytes
            per_type.setdefault(pic.picture_type.letter, []).append(nbytes)
        n = len(gop.pictures)
        total_pictures += n
        seconds = max(n, 1) / fps
        gops.append(
            GopBandwidth(
                gop=gi,
                pictures=n,
                wire_bytes=gop_bytes,
                seconds=seconds,
                bps=gop_bytes * 8 / seconds,
            )
        )
    total_bytes = len(data)
    duration = max(total_pictures, 1) / fps
    mean_bps = total_bytes * 8 / duration
    peak_bps = max((g.bps for g in gops), default=mean_bps)
    return BandwidthProfile(
        stream_bytes=total_bytes,
        pictures=total_pictures,
        fps=fps,
        mean_bps=mean_bps,
        peak_bps=max(peak_bps, mean_bps),
        burstiness=max(peak_bps, mean_bps) / mean_bps if mean_bps else 1.0,
        gops=tuple(gops),
        mean_picture_bytes={
            letter: sum(sizes) / len(sizes)
            for letter, sizes in sorted(per_type.items())
        },
    )


def admissible_sessions(
    profiles: list[BandwidthProfile], link_bps: float
) -> int:
    """How many of ``profiles`` (in order) fit a link budget on peaks.

    Greedy prefix admission — the serve layer offers sessions in
    arrival order, so the answer is "the longest prefix whose summed
    *peak* rates stay within the link".  The first session is always
    admitted even if it alone exceeds the budget (it degrades on the
    wire rather than being unservable), as a decode service always
    has at least one session slot.
    """
    if link_bps <= 0:
        raise ValueError(f"link_bps must be > 0, got {link_bps}")
    admitted = 0
    used = 0.0
    for p in profiles:
        if admitted > 0 and used + p.peak_bps > link_bps:
            break
        used += p.peak_bps
        admitted += 1
    return admitted


def format_profile(profile: BandwidthProfile) -> str:
    """Render a profile as a monospace report table."""
    from repro.analysis.report import TextTable

    table = TextTable(
        ["gop", "pictures", "bytes", "kbps"], title="per-GOP bandwidth"
    )
    for g in profile.gops:
        table.add_row(str(g.gop), str(g.pictures), str(g.wire_bytes),
                      f"{g.bps / 1e3:.1f}")
    lines = [
        f"stream: {profile.stream_bytes} bytes, "
        f"{profile.pictures} pictures @ {profile.fps:g} fps",
        f"mean rate:  {profile.mean_bps / 1e3:.1f} kbps",
        f"peak rate:  {profile.peak_bps / 1e3:.1f} kbps (per-GOP window)",
        f"burstiness: {profile.burstiness:.2f}x",
        "mean picture bytes: "
        + ", ".join(
            f"{k}={v:.0f}" for k, v in profile.mean_picture_bytes.items()
        ),
        table.render(),
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Profile an MPEG-2 stream's bandwidth shape."
    )
    parser.add_argument("stream", help="coded .m2v file")
    parser.add_argument("--fps", type=float, default=30.0)
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of the table"
    )
    args = parser.parse_args(argv)
    with open(args.stream, "rb") as fh:
        data = fh.read()
    profile = profile_stream(data, fps=args.fps)
    if args.json:
        print(json.dumps(profile.to_json(), indent=2))
    else:
        print(format_profile(profile))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
