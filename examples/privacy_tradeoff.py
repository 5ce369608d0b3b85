#!/usr/bin/env python3
"""The privacy / performance dial: choosing the zero-replace probability.

Section IV.C.3: each user picks its disguise intensity ``1 - p0`` to trade
location privacy against auction performance.  This example sweeps the dial
and prints both sides — the anti-LPPA attacker's failure rate and candidate
count, next to the auction's revenue and satisfaction relative to the
non-private baseline — so an operator can pick an operating point.

Run:  python examples/privacy_tradeoff.py
"""

import random

from repro.attacks import lppa_bcm_attack, score_attack
from repro.auction import generate_users, run_plain_auction
from repro.experiments import format_table
from repro.geo import make_database
from repro.lppa import UniformReplacePolicy, run_fast_lppa

SWEEP = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
ATTACK_FRACTION = 0.5
N_USERS = 80


def main() -> None:
    database = make_database(area=3, n_channels=129)
    grid = database.coverage.grid
    users = generate_users(database, N_USERS, random.Random(21))
    plain = run_plain_auction(users, random.Random(0), two_lambda=6)

    rows = []
    for replace_prob in SWEEP:
        result = run_fast_lppa(
            users,
            two_lambda=6,
            bmax=127,
            policy=UniformReplacePolicy(replace_prob),
            entropy=int(replace_prob * 100),
        )
        masks = lppa_bcm_attack(
            database, result.rankings, N_USERS, ATTACK_FRACTION
        )
        scores = [
            score_attack(mask, user.cell, grid)
            for mask, user in zip(masks, users)
        ]
        failure = sum(1 for s in scores if s.failed) / len(scores)
        cells = sum(s.n_cells for s in scores) / len(scores)
        outcome = result.outcome
        rows.append(
            {
                "zero_replace": replace_prob,
                "attacker_failure": round(failure, 3),
                "attacker_cells": round(cells, 1),
                "revenue_ratio": round(
                    outcome.sum_of_winning_bids()
                    / plain.sum_of_winning_bids(),
                    3,
                ),
                "satisfaction": round(outcome.user_satisfaction(), 3),
            }
        )

    print(
        format_table(
            rows,
            title=(
                f"Privacy vs performance (Area 3, {N_USERS} SUs, attacker "
                f"keeps top {int(ATTACK_FRACTION * 100)}% per channel)"
            ),
        )
    )
    print(
        "\nReading: privacy (failure, cells) improves down the table while "
        "revenue/satisfaction degrade — pick the row matching your needs."
    )


if __name__ == "__main__":
    main()
