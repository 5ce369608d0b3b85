#!/usr/bin/env python3
"""Quickstart: one privacy-preserving spectrum auction, end to end.

Builds a synthetic coverage map (what the paper extracts from FCC/TVFool
data), creates secondary users with truthful bids, and runs the full LPPA
protocol — private location submission, advanced private bid submission,
masked allocation, TTP charging — printing what each party saw.

Run:  python examples/quickstart.py
"""

import random

from repro.auction import generate_users, run_plain_auction
from repro.geo import make_database
from repro.lppa import UniformReplacePolicy, run_lppa_auction


def main() -> None:
    # --- The world: Area 3 (mixed urban/rural), 20 TV channels -----------------
    database = make_database(area=3, n_channels=20)
    grid = database.coverage.grid
    print(f"Coverage map: {database.n_channels} channels over "
          f"{grid.rows}x{grid.cols} cells ({grid.extent_km[0]:.0f} km square)")

    # --- The bidders: 40 SUs at secret locations -------------------------------
    users = generate_users(database, 40, random.Random(7))
    sample = users[0]
    print(f"\nSU 0 (location secret: cell {sample.cell}) bids on "
          f"{len(sample.available_set())} available channels, "
          f"max bid {sample.max_bid()}")

    # --- The private auction ----------------------------------------------------
    result = run_lppa_auction(
        users,
        grid,
        two_lambda=6,          # interference square: 6 cells = 4.5 km
        bmax=127,              # public bid bound
        policy=UniformReplacePolicy(0.3),  # disguise 30 % of zero bids
        entropy=42,
    )
    outcome = result.outcome
    print(f"\nLPPA auction: {len(outcome.wins)} allocations, "
          f"{len(outcome.valid_wins)} valid")
    print(f"  revenue (sum of winning bids): {outcome.sum_of_winning_bids()}")
    print(f"  user satisfaction:             {outcome.user_satisfaction():.1%}")
    print(f"  spectrum reuse factor:         {outcome.reuse_factor():.2f} "
          f"winners/channel")
    print(f"  conflict graph:                {result.conflict_graph.n_edges} edges "
          f"(built from masked coordinates only)")
    print(f"  wire volume:                   {result.total_bytes / 1024:.1f} KiB "
          f"({result.location_bytes / 1024:.1f} location, "
          f"{result.bid_bytes / 1024:.1f} bids)")

    # --- The non-private baseline for comparison --------------------------------
    plain = run_plain_auction(users, random.Random(42), two_lambda=6)
    ratio = outcome.sum_of_winning_bids() / plain.sum_of_winning_bids()
    print(f"\nPlain (no privacy) auction revenue: {plain.sum_of_winning_bids()} "
          f"-> LPPA keeps {ratio:.1%} of it")


if __name__ == "__main__":
    main()
