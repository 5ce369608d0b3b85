"""Minimal prefix cover ``Q([a, b])`` of an integer range (section II.B).

Converting a range to the minimal set of disjoint prefixes whose union is
exactly the range is the classical IP-routing trick (Gupta & McKeown [15]):
walk the binary trie and emit every maximal subtree fully inside the range.
For ``w``-bit numbers the cover never exceeds ``2w - 2`` prefixes, which is
why the advanced bid scheme pads every masked range set to exactly that size.
"""

from __future__ import annotations

from typing import List

from repro.prefix.prefixes import Prefix

__all__ = ["range_cover", "max_cover_size"]


def max_cover_size(width: int) -> int:
    """Worst-case cover cardinality ``2w - 2`` for ``w >= 2`` (else 1)."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return max(1, 2 * width - 2)


def range_cover(low: int, high: int, width: int) -> List[Prefix]:
    """Minimal set of prefixes whose union is exactly ``[low, high]``.

    The prefixes are pairwise disjoint and returned in increasing order of
    their covered interval.  ``low``/``high`` are clamped callers' business:
    both must already be valid ``width``-bit values with ``low <= high``.
    Not memoised: the masking layer memoises what it builds from a cover
    (see :mod:`repro.prefix.membership`).

    Examples
    --------
    >>> [str(p) for p in range_cover(6, 14, 4)]
    ['011*', '10**', '110*', '1110']
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0 <= low <= high < (1 << width):
        raise ValueError(
            f"[{low}, {high}] is not a valid {width}-bit range"
        )
    cover: List[Prefix] = []
    # Iterative trie walk: a stack of candidate prefixes, refined until each
    # is either fully inside (emit) or partially overlapping (split).
    stack = [Prefix(0, 0, width)]
    while stack:
        node = stack.pop()
        if node.low >= low and node.high <= high:
            cover.append(node)
            continue
        if node.high < low or node.low > high:
            continue
        left, right = node.children()
        # Push right first so the left subtree is processed first and the
        # output comes out sorted by interval.
        stack.append(right)
        stack.append(left)
    return cover
