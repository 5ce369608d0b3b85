"""Multi-dimensional prefix membership verification.

The paper picks the SafeQ machinery partly because it "could be efficiently
extended to multi-dimensional data utilization [11]".  The location
protocol is exactly such a use — a conjunctive 2-D box query — and this
module provides the general d-dimensional abstraction:

* :class:`MaskedPoint` — one masked prefix family per coordinate;
* :class:`MaskedBox` — one masked range cover per axis interval;
* :func:`point_in_box` — the conjunctive test: the point lies in the box
  iff *every* axis family intersects the corresponding axis cover.

Correctness is inherited axis-wise from the 1-D scheme; domain separation
per axis prevents a value on axis 0 matching a range on axis 1 under the
shared key.  :mod:`repro.lppa.location` is the 2-D instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.prefix.membership import (
    DEFAULT_DIGEST_BYTES,
    MaskedSet,
    MaskSpec,
    is_member,
    mask_specs,
)

__all__ = ["MaskedPoint", "MaskedBox", "mask_point", "mask_box", "point_in_box"]


def _axis_domain(axis: int) -> bytes:
    return b"repro/multidim/axis-" + str(axis).encode("ascii")


@dataclass(frozen=True)
class MaskedPoint:
    """A d-dimensional value, masked one prefix family per axis."""

    families: Tuple[MaskedSet, ...]

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("a point needs at least one dimension")

    @property
    def dimensions(self) -> int:
        return len(self.families)

    def wire_bytes(self) -> int:
        """Total masked payload bytes across all axes."""
        return sum(f.wire_bytes() for f in self.families)


@dataclass(frozen=True)
class MaskedBox:
    """An axis-aligned d-dimensional box, masked one range cover per axis."""

    covers: Tuple[MaskedSet, ...]

    def __post_init__(self) -> None:
        if not self.covers:
            raise ValueError("a box needs at least one dimension")

    @property
    def dimensions(self) -> int:
        return len(self.covers)

    def wire_bytes(self) -> int:
        """Total masked payload bytes across all axes."""
        return sum(c.wire_bytes() for c in self.covers)


def mask_point(
    key: bytes,
    coordinates: Sequence[int],
    widths: Sequence[int],
    *,
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> MaskedPoint:
    """Mask a point; ``widths[i]`` is axis i's bit width."""
    if len(coordinates) != len(widths):
        raise ValueError("one width per coordinate required")
    # All axes go through one backend batch.
    return MaskedPoint(
        families=tuple(
            mask_specs(
                [
                    MaskSpec.family(
                        key,
                        coordinate,
                        width,
                        domain=_axis_domain(axis),
                        digest_bytes=digest_bytes,
                    )
                    for axis, (coordinate, width) in enumerate(
                        zip(coordinates, widths)
                    )
                ]
            )
        )
    )


def mask_box(
    key: bytes,
    intervals: Sequence[Tuple[int, int]],
    widths: Sequence[int],
    *,
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> MaskedBox:
    """Mask a box given per-axis closed intervals ``(low, high)``."""
    if len(intervals) != len(widths):
        raise ValueError("one width per interval required")
    covers = mask_specs(
        [
            MaskSpec.cover(
                key,
                low,
                high,
                width,
                domain=_axis_domain(axis),
                digest_bytes=digest_bytes,
            )
            for axis, ((low, high), width) in enumerate(zip(intervals, widths))
        ]
    )
    return MaskedBox(covers=tuple(covers))


def point_in_box(point: MaskedPoint, box: MaskedBox) -> bool:
    """Conjunctive membership: inside iff every axis test passes."""
    if point.dimensions != box.dimensions:
        raise ValueError(
            f"dimension mismatch: point {point.dimensions}-D, "
            f"box {box.dimensions}-D"
        )
    return all(
        is_member(family, cover)
        for family, cover in zip(point.families, box.covers)
    )
