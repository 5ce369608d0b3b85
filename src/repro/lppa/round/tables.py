"""The integer view of the masked bid table (the plain backend's table).

Moved here from :mod:`repro.lppa.fastsim` (which re-exports it) so the
round core's :class:`~repro.lppa.round.backends.PlainBackend` can build it
without importing the wrapper layered on top of the core.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.auction.table import BidTable

__all__ = ["IntegerMaskedTable"]


class IntegerMaskedTable(BidTable):
    """What the masked table *is*, numerically: every cell holds a value.

    Unlike :class:`~repro.auction.table.PlainBidTable`, zeros (spread or
    disguised) are genuine entries — the auctioneer cannot tell them apart,
    which is the entire point of the advanced scheme.
    """

    def __init__(self, values: Sequence[Sequence[int]]) -> None:
        if not values:
            raise ValueError("bid table needs at least one row")
        widths = {len(row) for row in values}
        if len(widths) != 1:
            raise ValueError("all rows must cover the same channels")
        self._n_channels = widths.pop()
        if self._n_channels < 1:
            raise ValueError("bid table needs at least one channel")
        self._values = [list(map(int, row)) for row in values]
        self._n_users = len(values)
        self._live: List[Set[int]] = [
            set(range(self._n_users)) for _ in range(self._n_channels)
        ]

    @property
    def n_channels(self) -> int:
        return self._n_channels

    def has_entries(self) -> bool:
        return any(self._live)

    def channel_bidders(self, channel: int) -> Set[int]:
        self._check_channel(channel)
        return set(self._live[channel])

    def has_channel_entries(self, channel: int) -> bool:
        self._check_channel(channel)
        return bool(self._live[channel])

    def max_bidders(self, channel: int) -> List[int]:
        self._check_channel(channel)
        live = self._live[channel]
        if not live:
            raise ValueError(f"channel {channel} has no remaining bids")
        best = max(self._values[b][channel] for b in live)
        return sorted(b for b in live if self._values[b][channel] == best)

    def remove_row(self, bidder: int) -> None:
        for live in self._live:
            live.discard(bidder)

    def remove_entry(self, bidder: int, channel: int) -> None:
        self._check_channel(channel)
        self._live[channel].discard(bidder)

    def ranking(self, channel: int) -> List[List[int]]:
        """Equivalence-class ranking, identical in shape to the masked table's."""
        self._check_channel(channel)
        by_value: Dict[int, List[int]] = {}
        for bidder in range(self._n_users):
            by_value.setdefault(self._values[bidder][channel], []).append(bidder)
        return [by_value[v] for v in sorted(by_value, reverse=True)]

    def rankings(self) -> List[List[List[int]]]:
        """All channels' rankings (the attacker's full view)."""
        return [self.ranking(ch) for ch in range(self._n_channels)]

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self._n_channels:
            raise IndexError(f"channel {channel} outside 0..{self._n_channels - 1}")
