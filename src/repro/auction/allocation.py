"""Greedy spectrum allocation — Algorithm 3 of the paper.

The auctioneer repeatedly: picks a channel uniformly at random from a pool
``R`` (refilled once exhausted, so channels are revisited — this is what
implements *spectrum reuse*: a channel won in one round is re-auctioned to
the winner's non-conflicting peers in later rounds), finds the maximum
remaining bid in that column, declares the bidder a winner, deletes the
winner's whole row (one channel per buyer) and the conflicting neighbours'
entries in that column.

The algorithm runs on :class:`~repro.auction.table.RankedTable`, built from
each channel's ranking, so it is *identical* for the plaintext baseline and
for LPPA's masked bids — faithfully reflecting the paper's claim that PSD
lets the auctioneer run the auction "transparently".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.auction.conflict import ConflictGraph
from repro.auction.table import RankedTable

__all__ = ["Assignment", "greedy_allocate"]


@dataclass(frozen=True)
class Assignment:
    """One winner: bidder ``bx`` gets ``channel`` r (the ``[bx, r]`` of W)."""

    bidder: int
    channel: int


def greedy_allocate(
    table: RankedTable,
    conflict: ConflictGraph,
    rng: random.Random,
    is_valid: Optional[Callable[[int, int], bool]] = None,
) -> List[Assignment]:
    """Run Algorithm 3 to completion and return the winner list ``W``.

    ``table`` is consumed (entries are deleted as the algorithm runs).
    Termination: every visit to a non-empty column deletes at least one
    entry, and the channel pool guarantees each channel is visited once
    per refill cycle, so the table strictly shrinks.

    ``is_valid(bidder, channel)`` puts the TTP's invalid-winner
    notification (section V.B) into the loop, an extension: a refused
    winner's entry is deleted (not its row — the bidder may still hold
    genuine bids elsewhere) and the channel's max search re-runs, until a
    valid winner emerges or the column drains.  It trades extra TTP
    round-trips (the oracle's refusals) for the revenue a wasted channel
    would lose.  ``None``, the paper's batch mode, takes every maximum.
    """
    adjacency = conflict.adjacency()
    winners: List[Assignment] = []
    pool: List[int] = []
    while table.has_entries():
        if not pool:
            pool = list(range(table.n_channels))
        channel = pool.pop(rng.randrange(len(pool)))
        while table.has_channel_entries(channel):
            candidates = table.max_bidders(channel)
            winner = candidates[rng.randrange(len(candidates))]
            if is_valid is not None and not is_valid(winner, channel):
                table.remove_entry(winner, channel)
                continue
            winners.append(Assignment(bidder=winner, channel=channel))
            for neighbor in adjacency.get(winner, ()):  # delete T[o, r], o in N(bx)
                table.remove_entry(neighbor, channel)
            table.remove_row(winner)
            break
    return winners
