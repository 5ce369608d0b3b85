"""Charging: first price (the paper's choice) and second price.

Section V.C.1: "We choose our charging algorithm as the first-price payment
where the winner pays the exact amount of his bid.  Note that although this
auction may not be truthful (strategy-proof) ... [we] leave the truthfulness
of the auction to future work."  This module supplies that future work as
an optional extension:

* **first price** — the winner pays its own bid (charging stays exactly as
  in :mod:`repro.lppa.ttp`);
* **second price** — the winner pays the highest *losing* bid remaining in
  the column at the moment of sale (the classical incentive for truthful
  bidding).  Under LPPA the auctioneer reads the runner-up off the masked
  ranking and forwards *that* bidder's ciphertext to the TTP; a disguised
  zero runner-up is skipped (the TTP walks down the recorded order), so the
  disguises cannot deflate a winner's charge to zero.

Second prices need nothing from inside the allocation loop: the winner
list, the rankings and the conflict graph fix the sale at which every
entry left the table (:func:`second_prices`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.auction.allocation import Assignment
from repro.auction.conflict import ConflictGraph
from repro.auction.outcome import WinRecord
from repro.auction.table import Ranking

__all__ = ["charge_wins", "second_prices"]

#: ``true_bid(bidder, channel)``: the hidden integer bid behind an entry.
TrueBid = Callable[[int, int], int]


def second_prices(
    assignments: Sequence[Assignment],
    rankings: Sequence[Ranking],
    conflict: ConflictGraph,
    true_bid: TrueBid,
) -> List[int]:
    """Each sale's second price, in sale order.

    An entry ``(b, channel)`` leaves the table at the sale ``b`` wins (its
    row goes) or at the first sale of ``channel`` to one of its
    neighbours, whichever comes first.  A sale charges the first genuine
    (``true_bid > 0`` — the TTP's walk over decrypted values) entry of its
    column's ranking still in the table at that sale, the winner excepted,
    and the winner's own bid when there is none.  Entries behind each
    channel's cursor are gone or not genuine for every later sale of the
    channel too, so every entry is passed over once.
    """
    never = len(assignments)
    won_at: Dict[int, int] = {}
    blocked_at: List[Dict[int, int]] = [{} for _ in rankings]
    for sale, a in enumerate(assignments):
        won_at[a.bidder] = sale
        blocked = blocked_at[a.channel]
        for neighbor in conflict.neighbors(a.bidder):
            blocked.setdefault(neighbor, sale)
    columns = [[b for tied in ranking for b in tied] for ranking in rankings]
    cursors = [0] * len(rankings)
    prices: List[int] = []
    for sale, a in enumerate(assignments):
        channel = a.channel
        column = columns[channel]
        blocked = blocked_at[channel]
        at = cursors[channel]
        price = 0
        while at < len(column):
            bidder = column[at]
            # won_at == sale is the winner itself; a neighbour blocked at
            # this sale still competed in it.
            if won_at.get(bidder, never) > sale and blocked.get(bidder, never) >= sale:
                price = true_bid(bidder, channel)
                if price > 0:
                    break
            at += 1
        cursors[channel] = at
        prices.append(price if price > 0 else true_bid(a.bidder, channel))
    return prices


def charge_wins(
    assignments: Sequence[Assignment],
    true_bid: TrueBid,
    *,
    pricing: str,
    rankings: Sequence[Ranking],
    conflict: ConflictGraph,
) -> Tuple[WinRecord, ...]:
    """Charge the winner list by the TTP's rule.

    A win is valid iff the winner's true bid is positive; an invalid win (a
    disguised zero that took the column) pays nothing.  A valid win pays
    its own bid under ``"first"`` pricing and :func:`second_prices` under
    ``"second"``.  The plaintext baseline never ranks a zero, so all its
    wins are valid.
    """
    if pricing not in ("first", "second"):
        raise ValueError('pricing must be "first" or "second"')
    own = [true_bid(a.bidder, a.channel) for a in assignments]
    if pricing == "second":
        prices = second_prices(assignments, rankings, conflict, true_bid)
    else:
        prices = own
    return tuple(
        WinRecord(
            bidder=a.bidder,
            channel=a.channel,
            charge=price if bid > 0 else 0,
            valid=bid > 0,
        )
        for a, bid, price in zip(assignments, own, prices)
    )
