"""Pricing rules: first price (the paper's choice) and second price.

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

:func:`greedy_allocate_priced` is Algorithm 3 with the per-sale runner-up
order recorded; it reads the column's ranking and its live bidders off the
same :class:`~repro.auction.table.RankedTable` every auctioneer allocates
over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.auction.conflict import ConflictGraph
from repro.auction.table import RankedTable

__all__ = [
    "PricedAssignment",
    "greedy_allocate_priced",
    "second_price_charge",
]


@dataclass(frozen=True)
class PricedAssignment:
    """One sale with the runner-up order captured at the moment of sale.

    ``losers_desc`` lists the bidders still competing in the column when it
    was sold, best first, excluding the winner — the candidates a
    second-price rule charges from.
    """

    bidder: int
    channel: int
    losers_desc: Tuple[int, ...]


def greedy_allocate_priced(
    table: RankedTable,
    conflict: ConflictGraph,
    rng: random.Random,
) -> List[PricedAssignment]:
    """Algorithm 3, recording each sale's remaining column order."""
    adjacency = conflict.adjacency()
    sales: List[PricedAssignment] = []
    pool: List[int] = []
    while table.has_entries():
        if not pool:
            pool = list(range(table.n_channels))
        channel = pool.pop(rng.randrange(len(pool)))
        live = table.channel_bidders(channel)
        if not live:
            continue
        candidates = table.max_bidders(channel)
        winner = candidates[rng.randrange(len(candidates))]
        losers = tuple(
            bidder
            for tie_class in table.ranking(channel)
            for bidder in tie_class
            if bidder in live and bidder != winner
        )
        sales.append(
            PricedAssignment(bidder=winner, channel=channel, losers_desc=losers)
        )
        for neighbor in adjacency.get(winner, ()):
            table.remove_entry(neighbor, channel)
        table.remove_row(winner)
    return sales


def second_price_charge(
    sale: PricedAssignment,
    true_bid_of: Callable[[int, int], int],
) -> int:
    """The winner's second-price charge for one sale.

    Walks the recorded runner-up order and charges the first *genuine*
    losing bid (``true_bid_of > 0`` — under LPPA the TTP performs this walk
    on decrypted values, so disguised zeros are transparent to it).  A sale
    with no genuine competition charges the winner its own bid, the
    standard reserve-at-own-bid fallback.
    """
    for loser in sale.losers_desc:
        loser_bid = true_bid_of(loser, sale.channel)
        if loser_bid > 0:
            return loser_bid
    return true_bid_of(sale.bidder, sale.channel)
