"""Shared-memory substrate for every parallel decode path.

The frame pool and bitstream arena were born in ``repro.parallel.mp``
and grew identical consumers in ``mp_slice`` and the serve layer; they
now live here so all three schedulers (and the unified executor) share
one copy.  ``repro.parallel.mp`` re-exports these names, so historical
imports keep working.

* :class:`FrameLayout` — byte layout of one decoded 4:2:0 frame slot.
* :class:`FramePoolBase` — slot-addressed decoded-frame storage over
  an arbitrary buffer.
* :class:`SharedFramePool` — the POSIX-shared-memory pool (real
  silicon path; workers write planes in place).
* :class:`LocalFramePool` — the same slot discipline on a plain
  ``numpy`` buffer (``workers=0`` paths; nothing to unlink).
* :class:`StreamArena` — the coded bitstream in shared memory, published
  a byte range at a time and parsed in place by every worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.mpeg2.frame import Frame


@dataclass(frozen=True)
class FrameLayout:
    """Byte layout of one decoded 4:2:0 frame slot in the shared pool.

    Slots are sized for *coded* planes (multiples of 16); display
    dimensions ride along so frames can be rebuilt exactly.
    """

    display_width: int
    display_height: int
    coded_width: int
    coded_height: int

    @classmethod
    def for_display(cls, width: int, height: int) -> "FrameLayout":
        blank = Frame.blank(width, height)
        return cls(
            display_width=width,
            display_height=height,
            coded_width=blank.coded_width,
            coded_height=blank.coded_height,
        )

    @property
    def y_bytes(self) -> int:
        return self.coded_width * self.coded_height

    @property
    def chroma_bytes(self) -> int:
        return (self.coded_width // 2) * (self.coded_height // 2)

    @property
    def slot_bytes(self) -> int:
        """Bytes per frame slot: Y + Cb + Cr, stored contiguously."""
        return self.y_bytes + 2 * self.chroma_bytes

    def slot_views(
        self, buf, slot: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``uint8`` plane views over slot ``slot`` of ``buf``."""
        base = slot * self.slot_bytes
        ch, cw = self.coded_height, self.coded_width
        y = np.ndarray((ch, cw), dtype=np.uint8, buffer=buf, offset=base)
        cb = np.ndarray(
            (ch // 2, cw // 2),
            dtype=np.uint8,
            buffer=buf,
            offset=base + self.y_bytes,
        )
        cr = np.ndarray(
            (ch // 2, cw // 2),
            dtype=np.uint8,
            buffer=buf,
            offset=base + self.y_bytes + self.chroma_bytes,
        )
        return y, cb, cr


class FramePoolBase:
    """Slot-addressed decoded-frame storage over an arbitrary buffer.

    Concrete pools supply ``_pool_buf`` (a writable buffer of at least
    ``layout.slot_bytes * slots`` bytes).  :class:`SharedFramePool`
    backs it with POSIX shared memory (the real-silicon path);
    :class:`LocalFramePool` with a plain ``numpy`` array (the
    ``workers=0`` in-process path and the serve layer's fallback).
    """

    layout: FrameLayout
    slots: int

    @property
    def _pool_buf(self):  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Allocated pool size (the Fig. 8 quantity, measured for real)."""
        return self.layout.slot_bytes * self.slots

    def write_frame(self, slot: int, frame: Frame) -> None:
        """Copy ``frame``'s planes into ``slot`` (worker side)."""
        y, cb, cr = self.layout.slot_views(self._pool_buf, slot)
        y[:, :] = frame.y
        cb[:, :] = frame.cb
        cr[:, :] = frame.cr
        del y, cb, cr  # release exported buffers before any close()

    def clear_frame(self, slot: int) -> None:
        """Zero ``slot`` (a reused slot must read as a blank frame)."""
        for plane in self.layout.slot_views(self._pool_buf, slot):
            plane[:, :] = 0

    def read_frame(self, slot: int, temporal_reference: int) -> Frame:
        """Rebuild the :class:`Frame` stored in ``slot`` (display side)."""
        y, cb, cr = self.layout.slot_views(self._pool_buf, slot)
        frame = Frame(
            y=y.copy(),
            cb=cb.copy(),
            cr=cr.copy(),
            display_width=self.layout.display_width,
            display_height=self.layout.display_height,
            temporal_reference=temporal_reference,
        )
        del y, cb, cr
        return frame

    def view_frame(self, slot: int, temporal_reference: int = 0) -> Frame:
        """A zero-copy :class:`Frame` whose planes alias slot ``slot``.

        This is how the slice-level workers read reference pictures
        and write their own rows **in place**: no pixel ever crosses a
        process boundary.  The caller must drop every reference to the
        returned frame (and any views derived from it) before
        :meth:`close`, or the exported-buffer check in
        ``SharedMemory.close`` will raise.
        """
        y, cb, cr = self.layout.slot_views(self._pool_buf, slot)
        return Frame(
            y=y,
            cb=cb,
            cr=cr,
            display_width=self.layout.display_width,
            display_height=self.layout.display_height,
            temporal_reference=temporal_reference,
        )

    def close(self) -> None:  # pragma: no cover - overridden
        pass

    def unlink(self) -> None:  # pragma: no cover - overridden
        pass


class SharedFramePool(FramePoolBase):
    """A block of ``slots`` decoded-frame slots in POSIX shared memory.

    Workers decode into slots in place (:meth:`view_frame`); the display
    merger copies them out (:meth:`read_frame`).  The *owner* (parent
    process) creates and eventually unlinks the segment; workers attach
    by name and never unlink.
    """

    def __init__(
        self, layout: FrameLayout, slots: int, name: str | None = None
    ) -> None:
        self.layout = layout
        self.slots = slots
        if name is None:
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(layout.slot_bytes * slots, 1)
            )
            self._owner = True
        else:
            # Attach-only: pool workers share the parent's resource
            # tracker (they are forked/spawned from it), so the segment
            # is registered exactly once and unlinked exactly once by
            # the owning parent — no per-worker unregister needed.
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False

    @property
    def _pool_buf(self):
        return self._shm.buf

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        if self._owner:
            self._shm.unlink()


class LocalFramePool(FramePoolBase):
    """The same slot discipline on a process-local ``numpy`` buffer.

    Used by the in-process (``workers=0``) paths — deterministic on
    constrained CI, never touches ``/dev/shm``, nothing to unlink.
    """

    def __init__(self, layout: FrameLayout, slots: int) -> None:
        self.layout = layout
        self.slots = slots
        self._arr = np.zeros(max(layout.slot_bytes * slots, 1), dtype=np.uint8)

    @property
    def _pool_buf(self):
        return self._arr.data

    def close(self) -> None:
        pass

    def unlink(self) -> None:
        pass


class StreamArena:
    """The coded bitstream in POSIX shared memory, parsed in place.

    The low-overhead dispatch contract: every worker attaches by name
    and parses **in place** through :attr:`view`, materialising only
    the few-KB byte range of its own task.  Nothing about the bitstream
    ever rides the task pipe — with a spawn start method the per-worker
    cost drops from pickling the whole stream to pickling a segment
    name, and with fork it removes the initargs copy entirely.

    The segment is the size of the stream and keeps its offsets, so a
    task addresses it by the scan's offsets whatever has been copied
    in.  :meth:`publish` is the one copy: ``StreamArena(data)`` creates
    the segment and publishes all of ``data``; ``StreamArena(size=n)``
    creates it empty, for an owner that publishes a GOP's byte range as
    the scan reaches it, before any of the GOP's tasks is submitted.

    The parent (owner) creates and eventually unlinks the segment;
    workers attach (``name`` and ``size``) and only ever :meth:`close`.
    """

    def __init__(
        self,
        data: bytes | None = None,
        *,
        name: str | None = None,
        size: int = 0,
    ) -> None:
        self.size = len(data) if data is not None else size
        self._owner = name is None
        if self._owner:
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(self.size, 1)
            )
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self._view: memoryview | None = None
        if data is not None:
            self.publish(data, 0, self.size)

    def publish(self, data: bytes, start: int, end: int) -> None:
        """Copy ``data[start:end]`` into the segment at the same offsets."""
        self._shm.buf[start:end] = memoryview(data)[start:end]

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def view(self) -> memoryview:
        """Zero-copy view of the stream's bytes (cached; released by
        :meth:`close`)."""
        if self._view is None:
            self._view = self._shm.buf[: self.size]
        return self._view

    def close(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        self._shm.close()

    def unlink(self) -> None:
        if self._owner:
            self._shm.unlink()
