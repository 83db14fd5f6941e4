"""Group-of-pictures structure: picture types, coding order, references.

The paper's streams use an I/P distance of 3 (two B-pictures between
consecutive reference pictures) and GOP sizes of 4, 13, 16 and 31 —
all of the form ``N = 1 + k*M`` so every GOP is *closed*: it starts
with an I-picture in display order, ends with a reference picture, and
no picture references anything outside the GOP.  Closed GOPs are the
precondition of the paper's GOP-level parallel decomposition
(Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpeg2.constants import PictureType
from repro.mpeg2.kernel import reference_table


@dataclass(frozen=True)
class GopStructure:
    """A closed GOP of ``size`` pictures with I/P distance ``ip_distance``.

    Display order is ``I (B^(M-1) P)*``; e.g. size 13, M=3:
    ``I B B P B B P B B P B B P``.
    """

    size: int
    ip_distance: int = 3

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"GOP size must be >= 1, got {self.size}")
        if self.ip_distance < 1:
            raise ValueError(f"I/P distance must be >= 1, got {self.ip_distance}")
        if (self.size - 1) % self.ip_distance != 0:
            raise ValueError(
                f"GOP size {self.size} with I/P distance {self.ip_distance} "
                "cannot form a closed GOP (need size == 1 + k*distance so the "
                "GOP ends on a reference picture)"
            )

    # ------------------------------------------------------------------
    def display_types(self) -> list[PictureType]:
        """Picture type at each display position."""
        types = []
        for d in range(self.size):
            if d == 0:
                types.append(PictureType.I)
            elif d % self.ip_distance == 0:
                types.append(PictureType.P)
            else:
                types.append(PictureType.B)
        return types

    def coding_order(self) -> list[int]:
        """Display indices in bitstream (coding) order.

        References are coded before the B-pictures that use them:
        ``I0, P3, B1, B2, P6, B4, B5, ...``.
        """
        order = [0]
        m = self.ip_distance
        for ref in range(m, self.size, m):
            order.append(ref)
            order.extend(range(ref - m + 1, ref))
        return order

    def display_order_of_coded(self) -> list[int]:
        """Inverse of :meth:`coding_order`: coded position per display index."""
        order = self.coding_order()
        inv = [0] * self.size
        for coded_pos, disp in enumerate(order):
            inv[disp] = coded_pos
        return inv

    def references(self, display_index: int) -> tuple[int | None, int | None]:
        """(forward, backward) reference display indices of a picture:
        the kernel's :func:`~repro.mpeg2.kernel.reference_table` over
        the coding order, in display indices.

        I-pictures have none; P-pictures reference the previous
        reference picture; B-pictures reference the surrounding pair.
        """
        if not 0 <= display_index < self.size:
            raise ValueError(f"display index {display_index} out of range")
        order = self.coding_order()
        table = reference_table([self.type_of(d) for d in order])
        fwd, bwd = table[order.index(display_index)]
        return (
            None if fwd is None else order[fwd],
            None if bwd is None else order[bwd],
        )

    def type_of(self, display_index: int) -> PictureType:
        if display_index == 0:
            return PictureType.I
        return (
            PictureType.P
            if display_index % self.ip_distance == 0
            else PictureType.B
        )

    @property
    def reference_count(self) -> int:
        """Number of I+P pictures in the GOP."""
        return 1 + (self.size - 1) // self.ip_distance

    @property
    def b_count(self) -> int:
        return self.size - self.reference_count

    def dependents_of(self, display_index: int) -> list[int]:
        """Display indices of pictures that reference ``display_index``.

        Used by the improved slice-level decoder to know which pictures
        become decodable once a reference picture completes.
        """
        out = []
        for d in range(self.size):
            fwd, bwd = self.references(d)
            if display_index in (fwd, bwd):
                out.append(d)
        return out
