"""Ablation harnesses — structure and direction on a tiny preset."""

import pytest

from repro.experiments.ablations import (
    ablation_cr_expansion,
    ablation_disguise_policy,
    ablation_id_mixing,
    ablation_revalidation,
)
from repro.experiments.config import ExperimentConfig

TINY = ExperimentConfig(
    n_users=20,
    n_channels=25,
    channel_sweep=(25,),
    bpm_fractions=(0.5,),
    attack_fractions=(0.5,),
    zero_replace_probs=(0.5,),
    n_users_sweep=(20,),
    n_rounds=1,
    bpm_max_cells=250,
    two_lambda=6,
    bmax=127,
    seed="test-abl",
)


def test_id_mixing_rows():
    rows = ablation_id_mixing(TINY, n_rounds=3)
    assert [row["rounds_linked"] for row in rows] == [1, 2, 3]
    assert rows[0]["identities"].startswith("mixed")
    assert rows[-1]["cells"] <= rows[0]["cells"]


def test_revalidation_recovers_performance():
    rows = ablation_revalidation(TINY)
    batched = next(r for r in rows if r["charging"].startswith("batched"))
    revalidated = next(r for r in rows if r["charging"] == "revalidated")
    assert revalidated["satisfaction_ratio"] >= batched["satisfaction_ratio"]
    assert revalidated["ttp_rejections"] > 0
    assert batched["ttp_rejections"] == 0


def test_cr_expansion_monotone():
    rows = ablation_cr_expansion(n_users=80)
    collisions = [row["collisions"] for row in rows]
    assert collisions[-1] <= collisions[0]
    assert rows[0]["cr"] == 1
    # Width grows with cr (log2 of the expanded domain).
    widths = [row["width_bits"] for row in rows]
    assert widths == sorted(widths)


def test_disguise_policy_rows():
    rows = ablation_disguise_policy(TINY)
    assert {row["policy"] for row in rows} == {"linear-decreasing", "uniform"}
    for row in rows:
        assert 0.0 <= row["attacker_failure"] <= 1.0


def test_crowd_mixing_rows():
    from repro.experiments.ablations import ablation_crowd_mixing

    rows = ablation_crowd_mixing(
        TINY, protector_fractions=(0.0, 0.5, 1.0), replace_prob=0.8
    )
    assert [row["protector_fraction"] for row in rows] == [0.0, 0.5, 1.0]
    # Degenerate ends have a '-' for the empty group.
    assert rows[0]["protectors_cells"] == "-"
    assert rows[-1]["optouts_cells"] == "-"
    middle = rows[1]
    assert isinstance(middle["protectors_failure"], float)
    assert isinstance(middle["optouts_failure"], float)


def test_per_user_policies_flow_into_fastsim():
    """The heterogeneous-policy plumbing the crowd ablation relies on."""
    import random

    from repro.auction.bidders import generate_users
    from repro.geo.datasets import make_database
    from repro.lppa.fastsim import run_fast_lppa
    from repro.lppa.policies import KeepZeroPolicy, UniformReplacePolicy

    database = make_database(3, n_channels=10, seed=TINY.seed)
    users = generate_users(database, 10, random.Random(0))
    policies = [KeepZeroPolicy()] * 5 + [UniformReplacePolicy(1.0)] * 5
    result = run_fast_lppa(
        users, two_lambda=6, bmax=127, policy=policies, entropy=1
    )
    keepers = sum(
        c.disguised for d in result.disclosures[:5] for c in d.channels
    )
    replacers = sum(
        c.disguised for d in result.disclosures[5:] for c in d.channels
    )
    assert keepers == 0
    assert replacers > 0


def test_colocation_rows():
    from repro.experiments.ablations import ablation_colocation

    rows = ablation_colocation(TINY, anchor_counts=(1, 5, 15))
    assert [row["anchors"] for row in rows] == [1, 5, 15]
    for row in rows:
        assert row["failure_rate"] == 0.0  # conflict bits never lie
    assert rows[-1]["cells"] <= rows[0]["cells"]
