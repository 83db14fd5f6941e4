"""The display process's reorder buffer (pure logic, no decoder imports).

Completions arrive in load-dependent order; the display side emits in
display order.  :class:`DisplayMerger` is the one reorder buffer every
display side uses — the GOP merge and the slice merge on real cores,
the serve sessions, and the display process of the simulated decoders
(:mod:`repro.parallel.simrun`), which differ only in the clock a hold
is measured on.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.stalls import REASON_MERGE, StallTable
from repro.obs.trace import trace_complete


class DisplayMerger:
    """Reorder completed items into display order (pure logic).

    :meth:`push` banks one completion and returns the run of items
    that are now emittable in display order.  The paper's display
    process plays exactly this role with its picture reorder queue.

    ``on_hold(item, since, held)`` (optional) books the ``merge.reorder``
    stall once per *hold episode*: the stretch from the buffer first
    holding an item that must wait for an earlier one until it drains.
    It fires at the drain, with the item that opened the episode and
    both times read from ``clock`` (wall nanoseconds by default; the
    simulator passes its virtual time).  Holds that overlap are one
    episode, so the stall never exceeds the display side's own time.
    """

    def __init__(
        self,
        total: int,
        on_hold: Callable[[object, int, int], None] | None = None,
        clock: Callable[[], int] = time.monotonic_ns,
    ) -> None:
        if total < 0:
            raise ValueError(f"negative picture count: {total}")
        self.total = total
        self._pending: dict[int, object] = {}
        self._next = 0
        self._on_hold = on_hold
        self._clock = clock
        #: ``(item, since)`` of the open hold episode.
        self._episode: tuple[object, int] | None = None
        #: High-water mark of the reorder buffer (memory diagnostics).
        self.max_depth = 0

    def push(self, display_index: int, item) -> list:
        if not 0 <= display_index < self.total:
            raise ValueError(
                f"display index {display_index} out of range 0..{self.total - 1}"
            )
        if display_index < self._next or display_index in self._pending:
            raise ValueError(f"display index {display_index} pushed twice")
        self._pending[display_index] = item
        self.max_depth = max(self.max_depth, len(self._pending))
        if (
            self._on_hold is not None
            and self._episode is None
            and display_index != self._next
        ):
            self._episode = item, self._clock()
        out = []
        while self._next in self._pending:
            out.append(self._pending.pop(self._next))
            self._next += 1
        if self._episode is not None and not self._pending:
            first, since = self._episode
            self._episode = None
            self._on_hold(first, since, self._clock() - since)
        return out

    def finish(self, what: str) -> None:
        """Raise if any index was never pushed (a lost result)."""
        if not self.done:
            missing = sorted(
                set(range(self._next, self.total)) - self._pending.keys()
            )
            raise RuntimeError(f"worker pool lost {what}: {missing}")

    @property
    def emitted(self) -> int:
        return self._next

    @property
    def held(self) -> int:
        return len(self._pending)

    @property
    def done(self) -> bool:
        return self._next == self.total


def record_merge_hold(
    stalls: StallTable, since_ns: int, held_ns: int, **ident
) -> None:
    """Book one wall-clock reorder-buffer hold episode as the
    ``merge.reorder`` stall."""
    stalls.record("merge", REASON_MERGE, held_ns / 1e9)
    trace_complete(
        "mp.merge.hold", "stall", since_ns, held_ns,
        reason=REASON_MERGE, **ident,
    )
