"""The frame window: the one allocator of the real-process grains' frame
pool, lending slots by coding order (DESIGN §2.2, "The frame window",
states the rule and why it can neither overflow nor deadlock)."""

from __future__ import annotations

from typing import Iterable

from repro.obs.metrics import metrics

#: Slots the pictures hold, acquire to release; zero once a run ends.
OCCUPANCY = "mp.frame_pool.occupancy"


class FrameWindow:
    """``size`` slots lent to pictures numbered in coding order.

    A picture is :meth:`add`-ed with its references, takes a slot with
    :meth:`acquire` and is :meth:`emitted` once the consumer has it; it
    holds its slot until it and every later picture that references it
    are emitted.  :attr:`base` is the first picture still holding (or
    yet to take) a slot, and only a picture below :attr:`limit` may
    take one.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.base = 0
        #: Slots held right now.
        self.held = 0
        self._fresh = iter(range(size))
        #: Slots given back, lent again last-in first-out.
        self._free: list[int] = []
        self._deps: list[tuple[int, ...]] = []
        #: Per picture: the emissions its slot still waits for.
        self._holds: list[int] = []
        self._slots: list[int | None] = []

    @property
    def limit(self) -> int:
        return self.base + self.size

    @property
    def pictures(self) -> int:
        return len(self._holds)

    def add(self, order: int, deps: Iterable[int]) -> None:
        """Register picture ``order``, the next in coding order, and the
        earlier pictures it references."""
        if order != self.pictures:
            raise ValueError(f"picture {order} added out of order")
        deps = tuple(dict.fromkeys(deps))
        self._deps.append(deps)
        self._slots.append(None)
        self._holds.append(1)
        for d in deps:
            self._holds[d] += 1

    def acquire(self, order: int) -> tuple[int, bool]:
        """Picture ``order``'s slot, and whether this call lent it one an
        earlier picture used (which the caller blanks)."""
        if (slot := self._slots[order]) is not None:
            return slot, False
        if not self.base <= order < self.limit:
            raise ValueError(
                f"picture {order} outside the frame window "
                f"[{self.base}, {self.limit})"
            )
        reused = bool(self._free)
        slot = self._slots[order] = self._free.pop() if reused else next(self._fresh)
        self._count(1)
        return slot, reused

    def slot(self, order: int) -> int | None:
        return self._slots[order] if order < self.pictures else None

    def emitted(self, order: int) -> None:
        """Picture ``order`` has left the display merge: drop its hold on
        its own slot and its references', freeing those no later
        emission waits for."""
        for d in (order, *self._deps[order]):
            self._holds[d] -= 1
            if not self._holds[d]:
                self._free.append(self._slots[d])
                self._slots[d] = None
                self._count(-1)
        while self.base < self.pictures and not self._holds[self.base]:
            self.base += 1

    def _count(self, step: int) -> None:
        self.held += step
        metrics().gauge(OCCUPANCY).set(self.held)

    def close(self) -> None:
        """The run is over, however it ended: no slot is held."""
        metrics().gauge(OCCUPANCY).set(0)
