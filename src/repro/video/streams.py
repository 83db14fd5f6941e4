"""The paper's Table 1 test-stream matrix, with scaling for Python speed.

Table 1 crosses four resolutions with four GOP sizes (I/P distance 3,
30 pictures/sec, 5-7 Mb/s, 1120 pictures, one slice per macroblock
row).  One 13-picture GOP encodes in ≈ 1 s at 352x240 and ≈ 12 s at
1408x960 on a 2-vCPU VM, so 1120 pictures at 1408x960 take ≈ 18
minutes; :func:`paper_stream_matrix` therefore exposes two scale knobs —
``resolution_divisor`` and ``pictures`` — that preserve every
*structural* property the experiments depend on (slices/picture ratio
across resolutions, GOP size, picture-type mix).  EXPERIMENTS.md
records which scale each experiment ran at.  Encoded streams are
cached on disk keyed by their spec.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

from repro.mpeg2.encoder import EncoderConfig, encode_sequence
from repro.video.synthetic import SyntheticVideo

#: The paper's four resolutions (Table 1), smallest to largest.
PAPER_RESOLUTIONS: dict[str, tuple[int, int]] = {
    "176x120": (176, 120),
    "352x240": (352, 240),
    "704x480": (704, 480),
    "1408x960": (1408, 960),
}

#: The paper's four GOP sizes (pictures per GOP).
PAPER_GOP_SIZES: tuple[int, ...] = (4, 13, 16, 31)

#: Bit rates per resolution (paper Section 3: 5 Mb/s for the two middle
#: sizes, 7 Mb/s for 1408x960; the paper omits the smallest from all
#: results — we give it a proportional 1.25 Mb/s).
PAPER_BIT_RATES: dict[str, int] = {
    "176x120": 1_250_000,
    "352x240": 5_000_000,
    "704x480": 5_000_000,
    "1408x960": 7_000_000,
}


@dataclass(frozen=True)
class TestStreamSpec:
    """One row of (our) Table 1: everything needed to build the stream."""

    __test__ = False  # not a pytest class despite the Test* name

    name: str
    width: int
    height: int
    gop_size: int
    pictures: int
    ip_distance: int = 3
    bit_rate: int = 5_000_000
    qscale_code: int = 2
    search_range: int = 7
    seed: int = 0
    pan_per_frame: float = 2.0
    #: Rate-controlled streams hold bits/picture ~constant across
    #: resolutions, like the paper's fixed-bit-rate streams; the decode
    #: cost of larger pictures then grows sub-linearly in pixels
    #: (Tables 3-4 shape).
    rate_controlled: bool = True

    def __post_init__(self) -> None:
        if self.pictures % self.gop_size != 0:
            raise ValueError(
                f"{self.name}: {self.pictures} pictures is not a whole "
                f"number of {self.gop_size}-picture GOPs"
            )

    @property
    def gop_count(self) -> int:
        return self.pictures // self.gop_size

    @property
    def slices_per_picture(self) -> int:
        """One slice per macroblock row, as in the paper's streams."""
        return (self.height + 15) // 16

    def cache_key(self) -> str:
        text = (
            f"{self.width}x{self.height}/g{self.gop_size}/n{self.pictures}"
            f"/m{self.ip_distance}/q{self.qscale_code}/r{self.search_range}"
            f"/s{self.seed}/p{self.pan_per_frame}/b{self.bit_rate}"
            f"/rc{int(self.rate_controlled)}/v4"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def encoder_config(self) -> EncoderConfig:
        target = None
        if self.rate_controlled:
            target = int(self.bit_rate / 30.0)
        return EncoderConfig(
            gop_size=self.gop_size,
            ip_distance=self.ip_distance,
            qscale_code=self.qscale_code,
            search_range=self.search_range,
            bit_rate=self.bit_rate,
            target_bits_per_picture=target,
        )

    def video(self) -> SyntheticVideo:
        return SyntheticVideo(
            width=self.width,
            height=self.height,
            pan_per_frame=self.pan_per_frame,
            seed=self.seed,
        )


def paper_stream_matrix(
    pictures: int | None = None,
    resolution_divisor: int = 1,
    gop_sizes: tuple[int, ...] = PAPER_GOP_SIZES,
    resolutions: dict[str, tuple[int, int]] | None = None,
) -> list[TestStreamSpec]:
    """Build the 16-stream Table 1 matrix (optionally scaled down).

    ``pictures`` defaults to the least common multiple of the GOP sizes
    (so every stream has whole GOPs); the paper used 1120 pictures.
    ``resolution_divisor`` divides each dimension (keeping the paper's
    2x ratios between adjacent resolutions intact).
    """
    resolutions = resolutions or PAPER_RESOLUTIONS
    specs: list[TestStreamSpec] = []
    for res_name, (w, h) in resolutions.items():
        for gop_size in gop_sizes:
            count = pictures if pictures is not None else _lcm(gop_sizes)
            count = _round_to_gops(count, gop_size)
            # Bit rate scales with pixel count when the resolution is
            # divided, keeping compression ratio (hence bits/pixel and
            # the parse/pixel work split) faithful to the paper.
            rate = PAPER_BIT_RATES.get(res_name, 5_000_000) // resolution_divisor**2
            specs.append(
                TestStreamSpec(
                    name=f"{res_name}/gop{gop_size}",
                    width=max(w // resolution_divisor, 16),
                    height=max(h // resolution_divisor, 16),
                    gop_size=gop_size,
                    pictures=count,
                    bit_rate=max(rate, 100_000),
                )
            )
    return specs


def _lcm(values: tuple[int, ...]) -> int:
    import math

    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def _round_to_gops(pictures: int, gop_size: int) -> int:
    """Round up to a whole number of GOPs (at least one)."""
    gops = max((pictures + gop_size - 1) // gop_size, 1)
    return gops * gop_size


# ----------------------------------------------------------------------
# on-disk stream cache
# ----------------------------------------------------------------------
def default_cache_dir() -> str:
    return os.environ.get(
        "REPRO_STREAM_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-streams"),
    )


def build_stream(
    spec: TestStreamSpec, cache_dir: str | None = None, use_cache: bool = True
) -> bytes:
    """Encode (or load from cache) the stream for ``spec``."""
    cache_dir = cache_dir or default_cache_dir()
    path = os.path.join(cache_dir, f"{spec.cache_key()}.m2v")
    if use_cache and os.path.exists(path):
        with open(path, "rb") as fh:
            return fh.read()
    video = spec.video()
    frames = video.frames(spec.pictures)
    data = encode_sequence(frames, spec.encoder_config())
    if use_cache:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    return data
