"""Dynamic spectrum auction substrate: bidders, conflicts, greedy allocation.

Implements the paper's baseline auction (section II.A) and the pieces LPPA
reuses: truthful bid generation, the 2λ interference conflict graph, the
greedy Algorithm 3 allocator (one ranked table for plaintext and masked bids),
first- and second-price charging, and outcome metrics.
"""

from repro.auction.analysis import (
    ConflictStats,
    conflict_stats,
    greedy_coloring,
    is_independent_set,
    to_networkx,
)
from repro.auction.allocation import Assignment, greedy_allocate
from repro.auction.bidders import (
    BID_NOISE_FRACTION,
    DEFAULT_BETA_RANGE,
    SecondaryUser,
    generate_users,
    generate_users_from_sensing,
    rebid_users,
)
from repro.auction.conflict import ConflictGraph, build_conflict_graph, cells_conflict
from repro.auction.interference import InterferenceReport, count_violations
from repro.auction.outcome import AuctionOutcome, WinRecord
from repro.auction.pricing import charge_wins, second_prices
from repro.auction.plain_auction import run_plain_auction
from repro.auction.table import RankedTable, Ranking, rank_values

__all__ = [
    "ConflictStats",
    "conflict_stats",
    "greedy_coloring",
    "is_independent_set",
    "to_networkx",
    "Assignment",
    "greedy_allocate",
    "BID_NOISE_FRACTION",
    "DEFAULT_BETA_RANGE",
    "SecondaryUser",
    "generate_users",
    "generate_users_from_sensing",
    "rebid_users",
    "ConflictGraph",
    "build_conflict_graph",
    "cells_conflict",
    "InterferenceReport",
    "count_violations",
    "AuctionOutcome",
    "WinRecord",
    "charge_wins",
    "second_prices",
    "run_plain_auction",
    "RankedTable",
    "Ranking",
    "rank_values",
]
