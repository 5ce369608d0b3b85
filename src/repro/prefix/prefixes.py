"""Binary prefixes and prefix families (paper section II.B).

A *prefix* ``t1 t2 ... ts * ... *`` of width ``w`` fixes its first ``s`` bits
and wildcards the remaining ``w - s``; as a set it is the contiguous range of
all ``w``-bit values sharing those leading bits.

The *prefix family* ``G(x)`` of a ``w``-bit number ``x`` is the chain of
``w + 1`` prefixes obtained by wildcarding 0, 1, ..., w trailing bits — every
prefix that contains ``x``.  Prefix membership verification rests on the fact
that ``x`` lies in a range ``[a, b]`` iff ``G(x)`` intersects the prefix
cover of ``[a, b]`` (see :mod:`repro.prefix.ranges`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

__all__ = ["Prefix", "prefix_family", "bit_width_for"]


@dataclass(frozen=True, order=True)
class Prefix:
    """An ``s``-prefix of ``w``-bit numbers: ``s`` fixed bits then wildcards.

    Attributes
    ----------
    value:
        The fixed leading bits, as an integer in ``[0, 2**length)``.
    length:
        Number of fixed bits ``s`` (0 gives the all-wildcard prefix).
    width:
        Total bit width ``w`` of the numbers this prefix ranges over.
    """

    value: int
    length: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("prefix width must be >= 1")
        if not 0 <= self.length <= self.width:
            raise ValueError(
                f"prefix length {self.length} outside 0..{self.width}"
            )
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(
                f"prefix value {self.value} does not fit in {self.length} bits"
            )

    @property
    def low(self) -> int:
        """Smallest w-bit number matching this prefix."""
        return self.value << (self.width - self.length)

    @property
    def high(self) -> int:
        """Largest w-bit number matching this prefix."""
        return self.low + (1 << (self.width - self.length)) - 1

    def contains(self, x: int) -> bool:
        """True when the w-bit number ``x`` matches the fixed bits."""
        if not 0 <= x < (1 << self.width):
            raise ValueError(f"{x} is not a {self.width}-bit number")
        return (x >> (self.width - self.length)) == self.value

    def children(self) -> Iterator["Prefix"]:
        """The two (s+1)-prefixes refining this one (trie children)."""
        if self.length == self.width:
            return iter(())
        return iter(
            (
                Prefix(self.value << 1, self.length + 1, self.width),
                Prefix((self.value << 1) | 1, self.length + 1, self.width),
            )
        )

    def __str__(self) -> str:
        fixed = format(self.value, f"0{self.length}b") if self.length else ""
        return fixed + "*" * (self.width - self.length)


def bit_width_for(max_value: int) -> int:
    """Smallest bit width that can represent every value in [0, max_value]."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return max(1, max_value.bit_length())


def prefix_family(x: int, width: int) -> List[Prefix]:
    """The prefix family ``G(x)``: all ``width + 1`` prefixes containing x.

    Ordered from the full ``width``-bit value down to the all-wildcard
    prefix, matching the paper's presentation (the i-th element wildcards
    ``i`` trailing bits).  Not memoised: the masking layer memoises what it
    builds from a family (see :mod:`repro.prefix.membership`).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0 <= x < (1 << width):
        raise ValueError(f"{x} is not a {width}-bit number")
    return [Prefix(x >> i, width - i, width) for i in range(width + 1)]
