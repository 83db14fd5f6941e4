"""Stream profiling: per-task work counters for replay simulation.

Decoding is deterministic (paper Section 2), so the work performed by
any task — a GOP or a slice — is a property of the bitstream, not of
the schedule.  We exploit that: the stream is decoded *once* by the
instrumented sequential decoder, recording exact work counters per
slice; processor-count sweeps then replay those counters through the
cost model on the simulated machine without re-decoding.  This is the
same trick TangoLite-style trace-driven simulation plays, and it keeps
a 14-point speedup sweep as cheap as one decode.

Profiles are picklable and cached on disk next to the encoded streams.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field, replace

from repro.mpeg2.counters import WorkCounters
from repro.mpeg2.decoder import SequenceDecoder
from repro.mpeg2.frame import Frame, frame_bytes
from repro.mpeg2.constants import PictureType
from repro.mpeg2.kernel import reference_frames, reference_table


@dataclass
class SliceProfile:
    """One slice task: its row and exact decode work."""

    vertical_position: int
    counters: WorkCounters


@dataclass
class PictureProfile:
    """One picture: type, ordering info, per-slice work."""

    picture_type: PictureType
    temporal_reference: int
    #: Position within the GOP in coding (bitstream) order.
    coding_position: int
    #: Global display index across the whole stream.
    display_index: int
    #: Wire bytes of the picture (header + slices, with start codes).
    wire_bytes: int
    header_bits: int
    slices: list[SliceProfile] = field(default_factory=list)

    def total_counters(self) -> WorkCounters:
        total = WorkCounters()
        total.bits += self.header_bits
        total.headers += 1
        for s in self.slices:
            total.add(s.counters)
        return total

    @property
    def slice_count(self) -> int:
        return len(self.slices)


@dataclass
class GopProfile:
    """One closed GOP: its pictures in coding order."""

    index: int
    wire_bytes: int
    header_bits: int
    pictures: list[PictureProfile] = field(default_factory=list)

    def total_counters(self) -> WorkCounters:
        total = WorkCounters()
        total.bits += self.header_bits
        total.headers += 1
        for p in self.pictures:
            total.add(p.total_counters())
        return total

    def reference_positions(self, coding_position: int) -> list[int]:
        """Coding positions of the pictures this one references (the
        kernel's :func:`~repro.mpeg2.kernel.reference_table`)."""
        return [r for r in self._references()[coding_position] if r is not None]

    def dependents(self, coding_position: int) -> list[int]:
        """Coding positions of pictures that reference this one."""
        return [
            pos
            for pos, refs in enumerate(self._references())
            if coding_position in refs
        ]

    def _references(self) -> list[tuple[int | None, int | None]]:
        return reference_table([p.picture_type for p in self.pictures])


@dataclass
class StreamProfile:
    """Everything the parallel simulations need to know about a stream."""

    width: int
    height: int
    frame_rate: float
    bit_rate: int
    total_bytes: int
    gops: list[GopProfile] = field(default_factory=list)

    @property
    def picture_count(self) -> int:
        return sum(len(g.pictures) for g in self.gops)

    @property
    def slice_count(self) -> int:
        return sum(p.slice_count for g in self.gops for p in g.pictures)

    @property
    def slices_per_picture(self) -> int:
        return self.gops[0].pictures[0].slice_count

    @property
    def frame_bytes(self) -> int:
        """Decoded 4:2:0 frame size (the memory-model unit)."""
        return frame_bytes(self.width, self.height)

    @property
    def picture_pixels(self) -> int:
        return self.width * self.height

    @property
    def gop_size(self) -> int:
        return len(self.gops[0].pictures)

    def total_counters(self) -> WorkCounters:
        total = WorkCounters()
        for g in self.gops:
            total.add(g.total_counters())
        return total


def profile_stream(data: bytes) -> StreamProfile:
    """Decode ``data`` sequentially, recording per-slice work counters.

    The decode runs the batched engine; its counters equal the scalar
    oracle's slice for slice (``tests/mpeg2/test_batched_parity.py``),
    so the profile does not depend on the engine.
    """
    dec = SequenceDecoder(data)
    idx = dec.index
    seq = idx.sequence_header
    profile = StreamProfile(
        width=seq.width,
        height=seq.height,
        frame_rate=seq.frame_rate,
        bit_rate=seq.bit_rate,
        total_bytes=idx.total_bytes,
    )
    display_base = 0
    for gi, gop in enumerate(idx.gops):
        gp = GopProfile(
            index=gi,
            wire_bytes=gop.wire_bytes,
            header_bits=gop.header_bits,
        )
        gop_frames: list[Frame] = []
        for pos, (pic, refs) in enumerate(zip(gop.pictures, gop.references())):
            fwd, bwd = reference_frames(refs, gop_frames)
            slice_counters: list = []
            frame = dec.decode_picture(pic, fwd, bwd, per_slice=slice_counters)
            pp = PictureProfile(
                picture_type=pic.picture_type,
                temporal_reference=pic.temporal_reference,
                coding_position=pos,
                display_index=display_base + pic.temporal_reference,
                wire_bytes=pic.wire_bytes,
                header_bits=pic.header_bits,
            )
            pp.slices.extend(
                SliceProfile(vertical_position=vpos, counters=counters)
                for vpos, counters in slice_counters
            )
            gp.pictures.append(pp)
            gop_frames.append(frame)
        profile.gops.append(gp)
        display_base += len(gop.pictures)
    return profile


def tile_profile(profile: StreamProfile, repeats: int) -> StreamProfile:
    """Extend a profile by repeating its GOPs ``repeats`` times.

    The paper built its 1120-picture test streams by *repeating* a
    short clip (Section 3); tiling a profiled stream is the same
    methodology one level up: every GOP's work counters are exact,
    and closed GOPs make the repetition semantically valid.  Slice
    profiles are shared (not copied) — only the ordering metadata is
    rebuilt.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return _restream(profile, profile.gops * repeats, profile.total_bytes * repeats)


def slice_gops(profile: StreamProfile, start: int, end: int | None = None) -> StreamProfile:
    """A sub-profile covering GOPs ``start:end`` (renumbered from 0).

    Used to drop the encoder's rate-control warm-up GOP before tiling:
    the first GOP of a stream is coded at the controller's initial
    quantiser and is not representative of steady state.
    """
    gops = profile.gops[start:end]
    if not gops:
        raise ValueError(f"empty GOP range {start}:{end}")
    return _restream(profile, gops, sum(g.wire_bytes for g in gops))


def _restream(
    profile: StreamProfile, gops: list[GopProfile], total_bytes: int
) -> StreamProfile:
    """``gops`` as a stream of their own: GOPs renumbered from 0 and
    display indices rebuilt, slice profiles shared."""
    out = replace(profile, total_bytes=total_bytes, gops=[])
    display_base = 0
    for gop in gops:
        out.gops.append(
            replace(
                gop,
                index=len(out.gops),
                pictures=[
                    replace(pic, display_index=display_base + pic.temporal_reference)
                    for pic in gop.pictures
                ],
            )
        )
        display_base += len(gop.pictures)
    return out


def synthesize_profile(
    base: StreamProfile, gop_size: int, gops: int, ip_distance: int = 3
) -> StreamProfile:
    """Build a profile with a different GOP structure from measured data.

    Used by the GOP-size sweeps (Figs. 5, 6, 8, 9): the per-picture
    work of an I, P or B picture does not depend on the GOP length, so
    a ``gop_size``-picture GOP is assembled by drawing measured
    pictures of the right type from ``base`` (round-robin, preserving
    their per-slice variation).  Structure comes from
    :class:`~repro.mpeg2.gop.GopStructure`; work counters come from
    real decodes.
    """
    from repro.mpeg2.gop import GopStructure

    structure = GopStructure(gop_size, ip_distance)
    by_type: dict[PictureType, list[PictureProfile]] = {t: [] for t in PictureType}
    for g in base.gops:
        for p in g.pictures:
            by_type[p.picture_type].append(p)
    for t, pool in by_type.items():
        if not pool and any(
            structure.type_of(d) is t for d in range(gop_size)
        ):
            raise ValueError(f"base profile has no {t.letter}-pictures to draw from")

    counters: dict[PictureType, int] = {t: 0 for t in PictureType}

    def draw(ptype: PictureType) -> PictureProfile:
        pool = by_type[ptype]
        pic = pool[counters[ptype] % len(pool)]
        counters[ptype] += 1
        return pic

    mean_gop_header = sum(g.header_bits for g in base.gops) // len(base.gops)
    out = StreamProfile(
        width=base.width,
        height=base.height,
        frame_rate=base.frame_rate,
        bit_rate=base.bit_rate,
        total_bytes=0,
    )
    display_base = 0
    for gi in range(gops):
        gop = GopProfile(index=gi, wire_bytes=0, header_bits=mean_gop_header)
        for pos, display_idx in enumerate(structure.coding_order()):
            src = draw(structure.type_of(display_idx))
            gop.pictures.append(
                replace(
                    src,
                    temporal_reference=display_idx,
                    coding_position=pos,
                    display_index=display_base + display_idx,
                )
            )
            gop.wire_bytes += src.wire_bytes
        gop.wire_bytes += mean_gop_header // 8
        display_base += gop_size
        out.gops.append(gop)
        out.total_bytes += gop.wire_bytes
    return out


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------
def cached_profile(
    data: bytes, cache_key: str, cache_dir: str | None = None
) -> StreamProfile:
    """Profile ``data`` with a pickle cache keyed by ``cache_key``."""
    from repro.video.streams import default_cache_dir

    cache_dir = cache_dir or default_cache_dir()
    path = os.path.join(cache_dir, f"{cache_key}.profile.pkl")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            return pickle.load(fh)
    profile = profile_stream(data)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(profile, fh)
    os.replace(tmp, path)
    return profile
