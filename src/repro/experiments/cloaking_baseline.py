"""Cloaking vs LPPA: the defence-baseline experiment.

For each cloak size ``g`` the baseline submits locations snapped to
``g x g`` super-cells and plaintext bids; LPPA submits exact-but-masked
everything.  Reported per row:

* the *location* privacy the cloak buys (the attacker's residual candidate
  set is at best the cloak area — but BPM still runs on the plaintext bids,
  so the bid channel's leak is untouched);
* the *interference violations* the wrong conflict graph causes;
* the performance relative to the exact-graph plain auction.

Expected shape: privacy grows ~quadratically in ``g``, but so do the
violations — whereas LPPA (the last row) gets privacy without either cost,
paying instead through the disguise mechanism's bounded revenue loss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.attacks.bcm import bcm_attack
from repro.attacks.bpm import bpm_attack
from repro.attacks.metrics import aggregate_scores, score_attack
from repro.auction.bidders import generate_users
from repro.auction.interference import count_violations
from repro.auction.plain_auction import run_plain_auction
from repro.experiments.config import ExperimentConfig, default_config
from repro.geo.datasets import make_database
from repro.lppa.cloaking import run_cloaked_auction
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy
from repro.utils.rng import spawn_rng, stable_seed

__all__ = ["cloaking_comparison_table"]


def cloaking_comparison_table(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    cloak_sizes: Sequence[int] = (1, 5, 10, 20),
    lppa_replace: float = 0.5,
    n_users: int = 150,
    n_channels: int = 20,
    two_lambda: int = 10,
) -> List[Dict[str, object]]:
    """One row per cloak size plus an LPPA reference row.

    Density parameters default to a channel-scarce, interference-heavy
    world (150 users competing for 20 channels with wide interference
    squares): that is where conflict-graph *exactness* matters — in a
    sparse world co-channel winners are rarely neighbours and every defence
    looks violation-free.
    """
    if config is None:
        config = default_config()
    database = make_database(area, n_channels=n_channels, seed=config.seed)
    grid = database.coverage.grid
    users = generate_users(
        database, n_users, spawn_rng(config.seed, "cloak", "users")
    )
    true_cells = [u.cell for u in users]
    plain = run_plain_auction(
        users, spawn_rng(config.seed, "cloak", "plain"), two_lambda=two_lambda
    )
    plain_revenue = plain.sum_of_winning_bids()

    def bpm_scores(users_subset):
        scores = []
        for user in users_subset:
            if not user.available_set():
                continue
            possible = bcm_attack(database, user)
            refined = bpm_attack(
                database,
                user,
                possible,
                keep_fraction=config.bpm_fractions[0],
                max_cells=config.bpm_max_cells,
            )
            scores.append(score_attack(refined, user.cell, grid))
        return aggregate_scores(scores)

    rows: List[Dict[str, object]] = []
    for cloak in cloak_sizes:
        outcome, _ = run_cloaked_auction(
            users,
            grid,
            spawn_rng(config.seed, "cloak", f"cloak-{cloak}"),
            two_lambda=two_lambda,
            cloak_size=cloak,
        )
        audit = count_violations(outcome, true_cells, two_lambda)
        # Location privacy floor: the direct submission reveals the cloak
        # cell; BPM on the still-plaintext bids can cut further but never
        # below one cell — report the BPM result for comparability.
        agg = bpm_scores(users)
        rows.append(
            {
                "defence": f"cloak {cloak}x{cloak}",
                "bpm_cells": round(agg.mean_cells, 1),
                "bpm_failure": round(agg.failure_rate, 3),
                "violations": audit.n_violations,
                "revenue_ratio": round(
                    outcome.sum_of_winning_bids() / plain_revenue, 4
                ),
            }
        )

    lppa = run_fast_lppa(
        users,
        two_lambda=two_lambda,
        bmax=config.bmax,
        policy=UniformReplacePolicy(lppa_replace),
        entropy=stable_seed(config.seed, "cloak", "lppa"),
    )
    audit = count_violations(lppa.outcome, true_cells, two_lambda)
    rows.append(
        {
            "defence": f"LPPA (1-p0={lppa_replace:g})",
            "bpm_cells": float("nan"),  # bids are masked: BPM impossible
            "bpm_failure": 1.0,
            "violations": audit.n_violations,
            "revenue_ratio": round(
                lppa.outcome.sum_of_winning_bids() / plain_revenue, 4
            ),
        }
    )
    return rows
