"""Private Spectrum Distribution — the masked bid table (section V.A).

After PPBS the auctioneer holds, for every (bidder, channel), a masked
prefix family and tail cover.  :class:`MaskedBidTable` turns that pile into
the :class:`~repro.auction.table.BidTable` interface, so the greedy
Algorithm 3 in :mod:`repro.auction.allocation` runs on it unchanged.

"Find the maximum of a column" is implemented by first recovering each
channel's total *order* of bidders from the membership relation
``G(b_i) ∩ Q([b_j, emax]) != ∅  <=>  b_i >= b_j`` — an operation the
curious auctioneer can always perform, which is precisely why the paper's
attacker model (section VI.C) grants the adversary the ordered bid table.
The same ranking is therefore exposed via :meth:`MaskedBidTable.ranking`
as the attack surface for :mod:`repro.attacks.against_lppa`.

The whole relation of a column comes from one masked index
(:func:`~repro.prefix.membership.reaches`: the tails indexed, each
distinct family probed once): ``b_i >= b_j`` for exactly the bidders
``j`` that ``i``'s family reaches, so sorting the distinct reaches orders
the column.  The index holds only digests some family holds, and the
non-total guard walks the classes with a byte-array down-set, so time
and memory grow with the number of bidders times the number of distinct
bid values, not with its square.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.auction.table import BidTable
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.prefix.membership import reaches

__all__ = ["MaskedBidTable"]


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

    # BidTable interface --------------------------------------------------------

    @property
    def n_channels(self) -> int:
        return self._n_channels

    @property
    def n_users(self) -> int:
        """Number of bidders (rows) the table was built from."""
        return self._n_users

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

    def ranking(self, channel: int) -> List[List[int]]:
        """Total order of *all* bidders on a channel, best first.

        Returned as equivalence classes: bidders within a class submitted
        equal masked values (mutually >=), listed by index.  Bit ``j`` of
        the reach of ``i``'s family (tails indexed) is ``b_i >= b_j``;
        bidders with one family digest set share one reach, computed once.
        In a total preorder the reaches are nested down-sets, so a better
        class has the numerically larger reach: sorting the distinct
        reaches (descending) orders the column, and families with equal
        reaches merge into one class.  Walking the classes worst first,
        each must reach exactly the bidders at or below it; anything else
        means the relation is not a total preorder.  Computed once per
        channel and cached — deletions never change the underlying order.
        """
        self._check_channel(channel)
        cached = self._rankings[channel]
        if cached is not None:
            return cached
        column = self._bids[channel]
        groups: Dict[FrozenSet[bytes], List[int]] = {}
        for bidder, bid in enumerate(column):
            groups.setdefault(bid.family.digests, []).append(bidder)
        reach_of = reaches(
            [bid.tail for bid in column], [bid.family for bid in column]
        )
        classes: List[List[int]] = []
        class_reaches: List[int] = []
        for family in sorted(groups, key=reach_of.__getitem__, reverse=True):
            bits = reach_of[family]
            if class_reaches and bits == class_reaches[-1]:
                classes[-1] = sorted(classes[-1] + groups[family])
            else:
                classes.append(groups[family])
                class_reaches.append(bits)
        below = bytearray((self._n_users + 7) // 8)
        for members, bits in zip(reversed(classes), reversed(class_reaches)):
            for bidder in members:
                below[bidder >> 3] |= 1 << (bidder & 7)
            if bits != int.from_bytes(below, "little"):
                raise AssertionError(
                    "masked comparison is not total: filler-digest collision?"
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
