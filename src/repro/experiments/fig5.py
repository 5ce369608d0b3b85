"""Fig. 5 — LPPA's privacy gain (a-d) and performance cost (e-f).

Privacy sweep (panels a-d), Area 3: for each zero-replace probability
``1 - p0`` the bidders run the advanced scheme; the attacker keeps the top
25/50/66/80 % of each channel's masked-bid ranking, infers availability and
runs BCM.  Reference rows give BCM and BPM against the *unprotected*
auction.  Reported per point: uncertainty, incorrectness, number of
possible cells, failure rate.

Performance sweep (panels e-f): sum of winning bids and user satisfaction
of the LPPA auction relative to the plaintext baseline, versus ``1 - p0``,
for several population sizes (the paper's scalability claim: N matters
little; the cost tops out near 30 %).

Both sweeps run on the parallel experiment engine: one task per sweep
point.  Each task rebuilds its (memoised) database and regenerates the
population from the same master-seed labels the serial code used, so the
row tables are bit-identical at any worker count.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.attacks.against_lppa import lppa_bcm_attack
from repro.attacks.bcm import bcm_attack
from repro.attacks.bpm import bpm_attack
from repro.attacks.metrics import aggregate_scores, score_attack
from repro.auction.bidders import generate_users
from repro.auction.plain_auction import run_plain_auction
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.engine import SweepReport, run_sweep
from repro.geo.datasets import cached_database
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy
from repro.utils.rng import spawn_rng, stable_seed
from repro.utils.stats import bootstrap_ci

__all__ = ["fig5_privacy_sweep", "fig5_performance_sweep"]


def _privacy_users(config: ExperimentConfig, area: int):
    database = cached_database(
        area, n_channels=config.n_channels, seed=config.seed
    )
    users = generate_users(
        database, config.n_users, spawn_rng(config.seed, "fig5", "users")
    )
    return database, users


def _fig5_reference_rows(spec: Dict[str, object]) -> List[Dict[str, object]]:
    """Attacks on the unprotected auction (engine task)."""
    config: ExperimentConfig = spec["config"]
    area: int = spec["area"]
    database, users = _privacy_users(config, area)
    grid = database.coverage.grid
    bcm_scores, bpm_scores = [], []
    for user in users:
        possible = bcm_attack(database, user)
        bcm_scores.append(score_attack(possible, user.cell, grid))
        if user.available_set():
            refined = bpm_attack(
                database,
                user,
                possible,
                keep_fraction=config.bpm_fractions[0],
                max_cells=config.bpm_max_cells,
            )
            bpm_scores.append(score_attack(refined, user.cell, grid))
    rows: List[Dict[str, object]] = []
    for name, scores in (("BCM (no LPPA)", bcm_scores), ("BPM (no LPPA)", bpm_scores)):
        if not scores:
            continue
        agg = aggregate_scores(scores)
        rows.append(
            {
                "zero_replace": "-",
                "attack": name,
                "cells": round(agg.mean_cells, 1),
                "uncertainty_bits": round(agg.mean_uncertainty_bits, 3),
                "incorrectness_cells": round(agg.mean_incorrectness_cells, 2),
                "failure_rate": round(agg.failure_rate, 4),
            }
        )
    return rows


def _fig5_privacy_point(spec: Dict[str, object]) -> List[Dict[str, object]]:
    """One zero-replace probability of the privacy sweep (engine task)."""
    config: ExperimentConfig = spec["config"]
    area: int = spec["area"]
    replace_prob: float = spec["replace_prob"]
    database, users = _privacy_users(config, area)
    grid = database.coverage.grid
    result = run_fast_lppa(
        users,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        policy=UniformReplacePolicy(replace_prob),
        entropy=stable_seed(config.seed, "fig5", f"round-{replace_prob}"),
    )
    rows: List[Dict[str, object]] = []
    for fraction in config.attack_fractions:
        masks = lppa_bcm_attack(database, result.rankings, len(users), fraction)
        scores = [
            score_attack(mask, user.cell, grid)
            for mask, user in zip(masks, users)
        ]
        agg = aggregate_scores(scores)
        rows.append(
            {
                "zero_replace": round(replace_prob, 2),
                "attack": f"LPPA-BCM top {int(fraction * 100)}%",
                "cells": round(agg.mean_cells, 1),
                "uncertainty_bits": round(agg.mean_uncertainty_bits, 3),
                "incorrectness_cells": round(agg.mean_incorrectness_cells, 2),
                "failure_rate": round(agg.failure_rate, 4),
            }
        )
    return rows


def _fig5_privacy_task(spec: Dict[str, object]) -> List[Dict[str, object]]:
    if spec["kind"] == "refs":
        return _fig5_reference_rows(spec)
    return _fig5_privacy_point(spec)


def fig5_privacy_sweep(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    workers: Optional[int] = None,
    on_report: Optional[Callable[[SweepReport], None]] = None,
) -> List[Dict[str, object]]:
    """Panels (a)-(d): privacy metrics vs ``1 - p0`` and attacker fraction.

    Rows tagged ``attack = "BCM (no LPPA)"`` / ``"BPM (no LPPA)"`` are the
    unprotected references; the remaining rows are the anti-LPPA attacker at
    each configured fraction.
    """
    if config is None:
        config = default_config()
    specs: List[Dict[str, object]] = [
        {"kind": "refs", "config": config, "area": area}
    ]
    specs.extend(
        {
            "kind": "lppa",
            "config": config,
            "area": area,
            "replace_prob": replace_prob,
        }
        for replace_prob in config.zero_replace_probs
    )
    per_point = run_sweep(
        _fig5_privacy_task,
        specs,
        workers=workers,
        name="fig5-privacy",
        on_report=on_report,
    )
    return [row for rows in per_point for row in rows]


def _fig5_performance_point(spec: Dict[str, object]) -> Dict[str, object]:
    """One (N, zero-replace) point of the performance sweep (engine task)."""
    config: ExperimentConfig = spec["config"]
    area: int = spec["area"]
    n_users: int = spec["n_users"]
    replace_prob: float = spec["replace_prob"]
    database = cached_database(
        area, n_channels=config.n_channels, seed=config.seed
    )
    users = generate_users(
        database, n_users, spawn_rng(config.seed, "fig5ef", f"users-{n_users}")
    )
    revenue_ratios, satisfaction_ratios = [], []
    for round_idx in range(config.n_rounds):
        label = f"{n_users}-{replace_prob}-{round_idx}"
        plain = run_plain_auction(
            users,
            spawn_rng(config.seed, "fig5ef", label),
            two_lambda=config.two_lambda,
        )
        private = run_fast_lppa(
            users,
            two_lambda=config.two_lambda,
            bmax=config.bmax,
            policy=UniformReplacePolicy(replace_prob),
            entropy=stable_seed(config.seed, "fig5ef", label),
        )
        plain_revenue = plain.sum_of_winning_bids()
        plain_satisfaction = plain.user_satisfaction()
        if plain_revenue > 0:
            revenue_ratios.append(
                private.outcome.sum_of_winning_bids() / plain_revenue
            )
        if plain_satisfaction > 0:
            satisfaction_ratios.append(
                private.outcome.user_satisfaction() / plain_satisfaction
            )
    row = {
        "n_users": n_users,
        "zero_replace": round(replace_prob, 2),
        "revenue_ratio": round(sum(revenue_ratios) / len(revenue_ratios), 4),
        "satisfaction_ratio": round(
            sum(satisfaction_ratios) / len(satisfaction_ratios), 4
        ),
    }
    if config.n_rounds >= 3:
        # Enough rounds for a meaningful bootstrap error bar.
        ci_rng = spawn_rng(config.seed, "fig5ef-ci", f"{n_users}-{replace_prob}")
        low, high = bootstrap_ci(revenue_ratios, ci_rng, resamples=500)
        row["revenue_ci95"] = f"[{low:.3f}, {high:.3f}]"
    return row


def fig5_performance_sweep(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    workers: Optional[int] = None,
    on_report: Optional[Callable[[SweepReport], None]] = None,
) -> List[Dict[str, object]]:
    """Panels (e)-(f): revenue and satisfaction ratios vs ``1 - p0`` and N.

    Ratios are LPPA / plaintext baseline, averaged over ``n_rounds``
    independent rounds (fresh allocation randomness each round, same
    population per N so the comparison is paired).
    """
    if config is None:
        config = default_config()
    specs = [
        {
            "config": config,
            "area": area,
            "n_users": n_users,
            "replace_prob": replace_prob,
        }
        for n_users in config.n_users_sweep
        for replace_prob in config.zero_replace_probs
    ]
    return run_sweep(
        _fig5_performance_point,
        specs,
        workers=workers,
        name="fig5-performance",
        on_report=on_report,
    )
