#!/usr/bin/env python3
"""A multi-round private auction campaign with pseudonym mixing.

Runs several consecutive LPPA rounds over the full 129-channel Area 3 map
(the paper's LPPA-evaluation area) with a fresh ID pool per round (section
V.C.3), reporting per-round performance, the TTP's batched charging
workload, and the cumulative communication volume — the operational view a
spectrum-license holder deploying LPPA would care about.

Uses the fast numeric simulator for the repeated rounds and one full
cryptographic round to report true wire sizes.

Run:  python examples/private_auction_la.py
"""

import random

from repro.auction import generate_users, run_plain_auction
from repro.geo import make_database
from repro.lppa import (
    IdPool,
    UniformReplacePolicy,
    run_fast_lppa,
    run_lppa_auction,
)

N_ROUNDS = 5
N_USERS = 120
REPLACE_PROB = 0.4


def main() -> None:
    database = make_database(area=3, n_channels=129)
    grid = database.coverage.grid
    users = generate_users(database, N_USERS, random.Random(11))
    policy = UniformReplacePolicy(REPLACE_PROB)

    print(f"Campaign: {N_ROUNDS} rounds, {N_USERS} SUs, 129 channels, "
          f"zero-replace probability {REPLACE_PROB}")
    print(f"{'round':>5}  {'pseudonym sample':>18}  {'revenue':>8}  "
          f"{'satisfaction':>12}  {'invalid wins':>12}")

    mix_rng = random.Random(99)
    for round_idx in range(N_ROUNDS):
        # Fresh pseudonyms every round: the auctioneer cannot link bidders
        # across rounds, so BCM constraints cannot accumulate.
        pool = IdPool.fresh(N_USERS, mix_rng)
        result = run_fast_lppa(
            users,
            two_lambda=6,
            bmax=127,
            policy=policy,
            entropy=1000 + round_idx,
        )
        outcome = result.outcome
        invalid = len(outcome.wins) - len(outcome.valid_wins)
        print(f"{round_idx:>5}  {str(pool.wire_id(0)):>18}  "
              f"{outcome.sum_of_winning_bids():>8}  "
              f"{outcome.user_satisfaction():>11.1%}  {invalid:>12}")

    # --- Baseline and true wire costs (one full-crypto round) --------------------
    plain = run_plain_auction(users, random.Random(0), two_lambda=6)
    print(f"\nPlain-auction baseline revenue: {plain.sum_of_winning_bids()}, "
          f"satisfaction {plain.user_satisfaction():.1%}")

    crypto_users = users[:30]  # full HMAC path on a population slice
    crypto = run_lppa_auction(
        crypto_users,
        grid,
        two_lambda=6,
        bmax=127,
        policy=policy,
        entropy=5,
    )
    per_user_kib = crypto.bid_bytes / len(crypto_users) / 1024
    print(f"\nFull-crypto round ({len(crypto_users)} SUs): "
          f"{crypto.total_bytes / 1024:.0f} KiB on the wire "
          f"({per_user_kib:.1f} KiB per bidder for the 129-channel bid vector)")
    print(f"TTP batch size: {len(crypto.outcome.wins)} charge requests "
          f"(one online period per round, section V.C.2)")


if __name__ == "__main__":
    main()
