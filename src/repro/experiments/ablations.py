"""Ablations of LPPA's design choices (beyond the paper's evaluation).

The independent-trial ablations (re-validation, ``cr`` expansion, crowd
mixing, disguise law) run on the parallel experiment engine — one task per
design point, label-addressed randomness, results identical at any worker
count.  The multi-round linkage ablations (ID mixing, winner lists) are
inherently sequential — round ``t`` rebids the population produced by
round ``t - 1`` — and stay serial.

Each ablation isolates one mechanism DESIGN.md calls out and measures what
the system loses without it:

* **ID mixing** (§V.C.3) — the multi-round linkage attack against stable
  identities vs fresh per-round pseudonyms;
* **TTP re-validation** (§V.B) — feeding invalid-winner notifications back
  into allocation vs the paper's fire-and-forget batch charging;
* **``cr`` expansion** (§V.B) — how many masked-bid collisions (and hence
  plaintext-ciphertext dereferences after charging) each expansion factor
  leaves on the table;
* **disguise law** (§IV.C.3) — the linear-decreasing vs conditional-uniform
  substitution laws, on both privacy and performance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.against_lppa import lppa_bcm_attack
from repro.attacks.metrics import aggregate_scores, score_attack
from repro.attacks.multiround import multiround_linkage_attack
from repro.auction.bidders import generate_users, rebid_users
from repro.auction.plain_auction import run_plain_auction
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.engine import SweepReport, run_sweep
from repro.geo.datasets import cached_database, make_database
from repro.lppa.bids_advanced import BidScale, disguise_and_expand
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import LinearDecreasingPolicy, UniformReplacePolicy
from repro.utils.rng import spawn_rng, stable_seed

__all__ = [
    "ablation_id_mixing",
    "ablation_winner_lists",
    "ablation_revalidation",
    "ablation_colocation",
    "ablation_cr_expansion",
    "ablation_crowd_mixing",
    "ablation_masking_backend",
    "ablation_disguise_policy",
]


def ablation_id_mixing(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    n_rounds: int = 5,
    replace_prob: float = 0.1,
    fraction: float = 0.25,
) -> List[Dict[str, object]]:
    """Linked identities vs per-round mixing, over a multi-round campaign.

    One row per number of observed rounds; columns give the linkage
    attacker's candidate count and failure rate.  The single-round row is
    what a mixed-ID adversary is limited to forever.
    """
    if config is None:
        config = default_config()
    database = make_database(area, n_channels=config.n_channels, seed=config.seed)
    grid = database.coverage.grid
    user_rng = spawn_rng(config.seed, "abl-mix", "users")
    users = generate_users(database, config.n_users, user_rng)

    rounds_rankings = []
    population = users
    for round_idx in range(n_rounds):
        label = f"round{round_idx}"
        result = run_fast_lppa(
            population,
            two_lambda=config.two_lambda,
            bmax=config.bmax,
            policy=UniformReplacePolicy(replace_prob),
            entropy=stable_seed(config.seed, "abl-mix", label),
        )
        rounds_rankings.append(result.rankings)
        population = rebid_users(
            population, database, spawn_rng(config.seed, "abl-mix", label)
        )

    rows = []
    for upto in range(1, n_rounds + 1):
        masks = multiround_linkage_attack(
            database, rounds_rankings[:upto], len(users), fraction
        )
        agg = aggregate_scores(
            [score_attack(m, u.cell, grid) for m, u in zip(masks, users)]
        )
        rows.append(
            {
                "rounds_linked": upto,
                "identities": "mixed (per-round)" if upto == 1 else "stable",
                "cells": round(agg.mean_cells, 1),
                "failure_rate": round(agg.failure_rate, 4),
            }
        )
    return rows


def ablation_winner_lists(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 4,
    n_rounds: int = 40,
    checkpoints: Sequence[int] = (1, 5, 10, 20, 40),
    replace_prob: float = 0.5,
) -> List[Dict[str, object]]:
    """§V.C.3's second threat: BCM from published winner lists.

    With stable identities the attacker accumulates each user's won
    channels across rounds.  Valid wins are genuine availability — the
    disguises cannot poison this channel — so the attack *never* fails;
    it is merely slow (one channel per user per round, mostly
    uninformative clear channels).  The one-round row is the ceiling a
    per-round ID pool imposes forever.
    """
    if config is None:
        config = default_config()
    from repro.attacks.winners import winner_list_attack
    from repro.lppa.campaign import Campaign

    database = make_database(area, n_channels=config.n_channels, seed=config.seed)
    grid = database.coverage.grid
    users = generate_users(
        database, config.n_users, spawn_rng(config.seed, "abl-win", "users")
    )
    campaign = Campaign(
        database,
        users,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        policy=UniformReplacePolicy(replace_prob),
        mix_ids=False,
        rng=spawn_rng(config.seed, "abl-win", "rng"),
    )
    campaign.run(n_rounds)
    outcomes = campaign.public_outcomes()

    rows = []
    for upto in checkpoints:
        if upto > n_rounds:
            continue
        masks = winner_list_attack(database, outcomes[:upto], len(users))
        agg = aggregate_scores(
            [score_attack(m, u.cell, grid) for m, u in zip(masks, users)]
        )
        rows.append(
            {
                "rounds_observed": upto,
                "identities": "mixed (per-round)" if upto == 1 else "stable",
                "cells": round(agg.mean_cells, 1),
                "failure_rate": round(agg.failure_rate, 4),
            }
        )
    return rows


def _revalidation_round(spec: Dict[str, object]) -> Dict[str, float]:
    """One (charging mode, round) trial of the re-validation ablation."""
    config: ExperimentConfig = spec["config"]
    area: int = spec["area"]
    replace_prob: float = spec["replace_prob"]
    revalidate: bool = spec["revalidate"]
    round_idx: int = spec["round_idx"]
    database = cached_database(
        area, n_channels=config.n_channels, seed=config.seed
    )
    users = generate_users(
        database, config.n_users, spawn_rng(config.seed, "abl-reval", "users")
    )
    label = f"{revalidate}-{round_idx}"
    plain = run_plain_auction(
        users,
        spawn_rng(config.seed, "abl-reval", label),
        two_lambda=config.two_lambda,
    )
    private = run_fast_lppa(
        users,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        policy=UniformReplacePolicy(replace_prob),
        entropy=stable_seed(config.seed, "abl-reval", label),
        revalidate=revalidate,
    )
    return {
        "revenue": private.outcome.sum_of_winning_bids()
        / plain.sum_of_winning_bids(),
        "satisfaction": private.outcome.user_satisfaction()
        / max(plain.user_satisfaction(), 1e-9),
        "rejections": private.ttp_rejections,
    }


def ablation_revalidation(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    replace_prob: float = 0.8,
    workers: Optional[int] = None,
    on_report: Optional[Callable[[SweepReport], None]] = None,
) -> List[Dict[str, object]]:
    """Batch charging (paper) vs in-loop TTP re-validation (extension)."""
    if config is None:
        config = default_config()
    modes = (False, True)
    specs = [
        {
            "config": config,
            "area": area,
            "replace_prob": replace_prob,
            "revalidate": revalidate,
            "round_idx": round_idx,
        }
        for revalidate in modes
        for round_idx in range(config.n_rounds)
    ]
    trials = run_sweep(
        _revalidation_round,
        specs,
        workers=workers,
        name="abl-reval",
        on_report=on_report,
    )
    rows = []
    for mode_idx, revalidate in enumerate(modes):
        chunk = trials[mode_idx * config.n_rounds : (mode_idx + 1) * config.n_rounds]
        rows.append(
            {
                "charging": "revalidated" if revalidate else "batched (paper)",
                "revenue_ratio": round(
                    sum(t["revenue"] for t in chunk) / len(chunk), 4
                ),
                "satisfaction_ratio": round(
                    sum(t["satisfaction"] for t in chunk) / len(chunk), 4
                ),
                "ttp_rejections": round(
                    sum(t["rejections"] for t in chunk) / len(chunk), 1
                ),
            }
        )
    return rows


def _cr_expansion_point(spec: Dict[str, object]) -> Dict[str, object]:
    """Collision count for one expansion factor ``cr`` (engine task)."""
    cr: int = spec["cr"]
    n_users: int = spec["n_users"]
    scale = BidScale(bmax=spec["bmax"], rd=spec["rd"], cr=cr)
    rng = spawn_rng(spec["seed"], "abl-cr", str(cr))
    bids = [rng.randint(0, spec["bmax"]) for _ in range(n_users)]
    disclosures = disguise_and_expand(bids, scale, rng)
    values = [d.masked_expanded for d in disclosures]
    collisions = len(values) - len(set(values))
    return {
        "cr": cr,
        "width_bits": scale.width,
        "collisions": collisions,
        "collision_rate": round(collisions / n_users, 4),
    }


def ablation_cr_expansion(
    *,
    n_users: int = 60,
    bmax: int = 127,
    rd: int = 4,
    seed: str = "lppa-repro",
    workers: Optional[int] = None,
    on_report: Optional[Callable[[SweepReport], None]] = None,
) -> List[Dict[str, object]]:
    """Masked-value collisions per channel as a function of ``cr``.

    After charging, the auctioneer holds plaintext-ciphertext pairs for the
    winners; every *collision* (two users submitting the same masked value
    on a channel) lets it dereference a second bidder's price for free.
    ``cr = 1`` disables the expansion and maximises collisions.
    """
    specs = [
        {"cr": cr, "n_users": n_users, "bmax": bmax, "rd": rd, "seed": seed}
        for cr in (1, 2, 4, 8, 16)
    ]
    return run_sweep(
        _cr_expansion_point,
        specs,
        workers=workers,
        name="abl-cr",
        on_report=on_report,
    )


def ablation_colocation(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    anchor_counts: Sequence[int] = (1, 2, 5, 10, 20),
) -> List[Dict[str, object]]:
    """The conflict-graph side channel vs anchor (sybil) density.

    The conflict bits LPPA must reveal let an adversary with ``a`` known-
    location anchors box every other bidder (no bids needed, disguises
    irrelevant, failure rate identically zero).  This prices the one leak
    the protocol cannot remove: how many deployed radios buy how much
    localisation.
    """
    if config is None:
        config = default_config()
    from repro.attacks.colocation import colocation_attack
    from repro.auction.conflict import build_conflict_graph
    from repro.geo.grid import GridSpec

    grid = GridSpec()
    rng = spawn_rng(config.seed, "abl-coloc", "cells")
    cells = grid.random_cells(rng, config.n_users)
    conflict = build_conflict_graph(cells, config.two_lambda)
    rows = []
    for n_anchors in anchor_counts:
        if n_anchors >= config.n_users:
            continue
        anchors = {i: cells[i] for i in range(n_anchors)}
        masks = colocation_attack(grid, conflict, anchors, config.two_lambda)
        agg = aggregate_scores(
            [
                score_attack(mask, cells[user], grid)
                for user, mask in enumerate(masks)
                if user >= n_anchors
            ]
        )
        rows.append(
            {
                "anchors": n_anchors,
                "cells": round(agg.mean_cells, 1),
                "uncertainty_bits": round(agg.mean_uncertainty_bits, 3),
                "failure_rate": round(agg.failure_rate, 4),
            }
        )
    return rows


def _crowd_mixing_point(spec: Dict[str, object]) -> Dict[str, object]:
    """One protector-fraction point of the crowd ablation (engine task)."""
    from repro.lppa.policies import KeepZeroPolicy

    config: ExperimentConfig = spec["config"]
    area: int = spec["area"]
    prot_fraction: float = spec["prot_fraction"]
    replace_prob: float = spec["replace_prob"]
    fraction: float = spec["fraction"]
    database = cached_database(
        area, n_channels=config.n_channels, seed=config.seed
    )
    grid = database.coverage.grid
    users = generate_users(
        database, config.n_users, spawn_rng(config.seed, "abl-crowd", "users")
    )
    n_protectors = round(prot_fraction * len(users))
    policies = [
        UniformReplacePolicy(replace_prob)
        if idx < n_protectors
        else KeepZeroPolicy()
        for idx in range(len(users))
    ]
    result = run_fast_lppa(
        users,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        policy=policies,
        entropy=stable_seed(config.seed, "abl-crowd", f"{prot_fraction}"),
    )
    masks = lppa_bcm_attack(database, result.rankings, len(users), fraction)
    scores = [
        score_attack(mask, user.cell, grid)
        for mask, user in zip(masks, users)
    ]
    row: Dict[str, object] = {"protector_fraction": prot_fraction}
    groups = {
        "protectors": scores[:n_protectors],
        "optouts": scores[n_protectors:],
    }
    for name, group in groups.items():
        if group:
            agg = aggregate_scores(group)
            row[f"{name}_failure"] = round(agg.failure_rate, 3)
            row[f"{name}_cells"] = round(agg.mean_cells, 1)
        else:
            row[f"{name}_failure"] = "-"
            row[f"{name}_cells"] = "-"
    return row


def ablation_crowd_mixing(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    protector_fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    replace_prob: float = 0.8,
    fraction: float = 0.5,
    workers: Optional[int] = None,
    on_report: Optional[Callable[[SweepReport], None]] = None,
) -> List[Dict[str, object]]:
    """Heterogeneous crowds (§IV.C.3): do opt-outs ride free on the rest?

    The paper lets every user pick its own zero-replace probability.  Here
    a *protector* share of the population disguises at ``replace_prob``
    while the rest opt out entirely (``p0 = 1``), and the anti-LPPA
    attacker is scored per group.  The interesting question is the
    externality: does a larger protecting crowd change the attacker's
    success against the opt-outs?
    """
    if config is None:
        config = default_config()
    specs = [
        {
            "config": config,
            "area": area,
            "prot_fraction": prot_fraction,
            "replace_prob": replace_prob,
            "fraction": fraction,
        }
        for prot_fraction in protector_fractions
    ]
    return run_sweep(
        _crowd_mixing_point,
        specs,
        workers=workers,
        name="abl-crowd",
        on_report=on_report,
    )


def ablation_masking_backend(
    *,
    bmax: int = 127,
    rd: int = 4,
    cr: int = 8,
    digest_bytes: int = 16,
) -> List[Dict[str, object]]:
    """Prefix masking vs one-ciphertext OPE vs Paillier, per bid entry.

    What each backend sends per (user, channel) and what it can / cannot
    do — the design-space row the paper's §IV.B remark ("a kind of order
    preserving encryption") invites.
    """
    from repro.crypto.ope import OrderPreservingEncoder
    from repro.experiments.paillier_baseline import paillier_submission_bytes

    scale = BidScale(bmax=bmax, rd=rd, cr=cr)
    prefix_bytes = (3 * scale.width - 1) * digest_bytes
    encoder = OrderPreservingEncoder(b"ablation-key", scale.emax + 1)
    paillier_bytes = paillier_submission_bytes(1, 1, 2048)
    return [
        {
            "backend": "prefix sets (LPPA)",
            "bytes_per_entry": prefix_bytes,
            "local_compare": "yes",
            "hidden_range_query": "yes",
            "equality_leak": "no (after cr)",
        },
        {
            "backend": "keyed OPE",
            "bytes_per_entry": encoder.ciphertext_bytes,
            "local_compare": "yes",
            "hidden_range_query": "no",
            "equality_leak": "yes + distance",
        },
        {
            "backend": "Paillier (ref [7])",
            "bytes_per_entry": paillier_bytes,
            "local_compare": "no (interactive)",
            "hidden_range_query": "no",
            "equality_leak": "no",
        },
    ]


def _disguise_policy_point(spec: Dict[str, object]) -> Dict[str, object]:
    """One substitution law of the disguise ablation (engine task).

    The plaintext baseline is recomputed per task from its own label — a
    small duplication that keeps every task independent of sweep order.
    """
    config: ExperimentConfig = spec["config"]
    area: int = spec["area"]
    name: str = spec["policy"]
    replace_prob: float = spec["replace_prob"]
    fraction: float = spec["fraction"]
    policy = (
        LinearDecreasingPolicy(replace_prob)
        if name == "linear-decreasing"
        else UniformReplacePolicy(replace_prob)
    )
    database = cached_database(
        area, n_channels=config.n_channels, seed=config.seed
    )
    grid = database.coverage.grid
    users = generate_users(
        database, config.n_users, spawn_rng(config.seed, "abl-pol", "users")
    )
    plain = run_plain_auction(
        users,
        spawn_rng(config.seed, "abl-pol", "plain"),
        two_lambda=config.two_lambda,
    )
    result = run_fast_lppa(
        users,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        policy=policy,
        entropy=stable_seed(config.seed, "abl-pol", name),
    )
    masks = lppa_bcm_attack(database, result.rankings, len(users), fraction)
    agg = aggregate_scores(
        [score_attack(m, u.cell, grid) for m, u in zip(masks, users)]
    )
    return {
        "policy": name,
        "attacker_failure": round(agg.failure_rate, 4),
        "attacker_cells": round(agg.mean_cells, 1),
        "revenue_ratio": round(
            result.outcome.sum_of_winning_bids() / plain.sum_of_winning_bids(),
            4,
        ),
        "satisfaction": round(result.outcome.user_satisfaction(), 4),
    }


def ablation_disguise_policy(
    config: Optional[ExperimentConfig] = None,
    *,
    area: int = 3,
    replace_prob: float = 0.8,
    fraction: float = 0.5,
    workers: Optional[int] = None,
    on_report: Optional[Callable[[SweepReport], None]] = None,
) -> List[Dict[str, object]]:
    """Linear-decreasing vs conditional-uniform substitution laws."""
    if config is None:
        config = default_config()
    specs = [
        {
            "config": config,
            "area": area,
            "policy": name,
            "replace_prob": replace_prob,
            "fraction": fraction,
        }
        for name in ("linear-decreasing", "uniform")
    ]
    return run_sweep(
        _disguise_policy_point,
        specs,
        workers=workers,
        name="abl-pol",
        on_report=on_report,
    )
