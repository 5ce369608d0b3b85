"""Algorithm 3's bid table: each channel's ranking plus its live bidders.

Algorithm 3 works on a table ``T`` whose rows are bidders and whose columns
are channels, repeatedly finding a column's maximum and deleting entries.
The PSD (section V.A) lets the auctioneer run it "transparently" on masked
bids because the membership relation gives it each column's full order:
the ranking *is* the table.  :class:`RankedTable` holds, per channel, that
ranking and the set of bidders still live in the column, and the greedy
allocator of :mod:`repro.auction.allocation` runs on it for every
auctioneer.  Each auctioneer only produces rankings:

* PPBS — :func:`repro.lppa.psd.masked_rankings` over the masked sets;
* Bloom — :func:`rank_values` over the OPE values;
* the fast simulator — :func:`rank_values` over the expanded values;
* the plaintext baseline — :func:`rank_values` over the positive bids (a
  plaintext auctioneer sees that a zero bid is worthless, so zeros are not
  entries).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set

__all__ = ["Ranking", "RankedTable", "rank_values"]

#: One channel's order: equivalence classes of bidders, best first, each
#: class listed in ascending bidder order.
Ranking = List[List[int]]


def rank_values(values: Mapping[int, int]) -> Ranking:
    """The ranking of ``{bidder: value}``: bidders grouped by equal value,
    the largest value first."""
    by_value: Dict[int, List[int]] = {}
    for bidder in sorted(values):
        by_value.setdefault(values[bidder], []).append(bidder)
    return [by_value[v] for v in sorted(by_value, reverse=True)]


class RankedTable:
    """Algorithm 3's table ``T`` over ``n_users`` rows, one ranking per column.

    A bidder is an entry of a column iff the column's ranking lists it.
    Deletions never change the order, so :meth:`max_bidders` walks a
    per-channel cursor over the classes: a class with no live bidder left
    stays dead, and the cursor only moves forward.
    """

    def __init__(self, rankings: Sequence[Ranking], n_users: int) -> None:
        if not rankings:
            raise ValueError("bid table needs at least one channel")
        self._rankings = list(rankings)
        self._n_users = n_users
        self._live: List[Set[int]] = []
        for channel, ranking in enumerate(self._rankings):
            live = {bidder for members in ranking for bidder in members}
            if len(live) != sum(map(len, ranking)):
                raise ValueError(f"channel {channel} ranks a bidder twice")
            if live and not (min(live) >= 0 and max(live) < n_users):
                raise ValueError(
                    f"channel {channel} ranks a bidder outside 0..{n_users - 1}"
                )
            self._live.append(live)
        self._cursors = [0] * len(self._rankings)

    @property
    def n_channels(self) -> int:
        """Number of columns ``k``."""
        return len(self._rankings)

    @property
    def n_users(self) -> int:
        """Number of rows: bidders are ``0..n_users - 1``."""
        return self._n_users

    def has_entries(self) -> bool:
        """True while any (bidder, channel) entry remains."""
        return any(self._live)

    def has_channel_entries(self, channel: int) -> bool:
        """True while this column has at least one remaining entry."""
        return bool(self._live[self._check_channel(channel)])

    def max_bidders(self, channel: int) -> List[int]:
        """The live bidders of the best class that still holds one, ascending.

        More than one element means a genuine tie; the allocator breaks it
        uniformly at random.  Raises ``ValueError`` on an empty column.
        """
        live = self._live[self._check_channel(channel)]
        if not live:
            raise ValueError(f"channel {channel} has no remaining bids")
        ranking = self._rankings[channel]
        cursor = self._cursors[channel]
        while True:
            remaining = [b for b in ranking[cursor] if b in live]
            if remaining:
                self._cursors[channel] = cursor
                return remaining
            cursor += 1

    def remove_row(self, bidder: int) -> None:
        """Delete every remaining entry of this bidder (a winner's row)."""
        self._check_bidder(bidder)
        for live in self._live:
            live.discard(bidder)

    def remove_entry(self, bidder: int, channel: int) -> None:
        """Delete one entry if present (a conflicting neighbour's bid)."""
        self._check_bidder(bidder)
        self._live[self._check_channel(channel)].discard(bidder)

    def _check_channel(self, channel: int) -> int:
        if not 0 <= channel < len(self._rankings):
            raise IndexError(
                f"channel {channel} outside 0..{len(self._rankings) - 1}"
            )
        return channel

    def _check_bidder(self, bidder: int) -> None:
        if not 0 <= bidder < self._n_users:
            raise IndexError(f"bidder {bidder} outside 0..{self._n_users - 1}")
