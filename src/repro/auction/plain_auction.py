"""The non-private baseline auction.

This is the auction the paper assumes as its starting point (section II.A):
SUs submit ID, plaintext location and plaintext bid vector; the auctioneer
builds the conflict graph directly from the locations, runs the greedy
allocation on the plaintext table, and charges first price (second price
as the truthfulness extension).  It serves two
roles in the reproduction:

1. the attack surface for BCM/BPM (the attacker sees everything it sees),
2. the performance yardstick for Fig. 5(e)(f) — LPPA's revenue and
   satisfaction are reported relative to this baseline.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.auction.allocation import greedy_allocate
from repro.auction.bidders import SecondaryUser
from repro.auction.pricing import charge_wins
from repro.auction.conflict import ConflictGraph, build_conflict_graph
from repro.auction.outcome import AuctionOutcome
from repro.auction.table import RankedTable, Ranking, rank_values

__all__ = ["plain_rankings", "run_plain_auction"]


def plain_rankings(bid_rows: Sequence[Sequence[int]]) -> List[Ranking]:
    """Each channel's ranking of the positive bids in ``bid_rows``.

    A plaintext auctioneer can see that a zero bid is worthless (and that
    the channel is unavailable to the bidder), so zeros are not entries —
    the baseline behaviour LPPA is compared against.
    """
    widths = {len(row) for row in bid_rows}
    if len(widths) != 1:
        raise ValueError("bid rows must be non-empty and of one channel count")
    return [
        rank_values({bidder: row[ch] for bidder, row in enumerate(bid_rows) if row[ch] > 0})
        for ch in range(widths.pop())
    ]


def run_plain_auction(
    users: Sequence[SecondaryUser],
    rng: random.Random,
    *,
    two_lambda: int,
    conflict: Optional[ConflictGraph] = None,
    pricing: str = "first",
) -> AuctionOutcome:
    """One complete plaintext auction round.

    Parameters
    ----------
    users:
        The bidders (locations and true bids are visible to the auctioneer).
    rng:
        Randomness for channel selection and tie-breaking in Algorithm 3.
    two_lambda:
        Interference-square side length in cell units.
    conflict:
        Pre-built conflict graph (else built from the users' plaintext cells).
    pricing:
        ``"first"`` (the paper's rule: winners pay their bid) or
        ``"second"`` (winners pay the best losing bid at the moment of
        sale — the truthfulness extension).
    """
    if not users:
        raise ValueError("need at least one user")
    if pricing not in ("first", "second"):
        raise ValueError('pricing must be "first" or "second"')
    if conflict is None:
        conflict = build_conflict_graph([u.cell for u in users], two_lambda)
    rankings = plain_rankings([u.bids for u in users])
    assignments = greedy_allocate(RankedTable(rankings, len(users)), conflict, rng)
    wins = charge_wins(
        assignments,
        lambda bidder, channel: users[bidder].bids[channel],
        pricing=pricing,
        rankings=rankings,
        conflict=conflict,
    )
    return AuctionOutcome(n_users=len(users), wins=wins)
