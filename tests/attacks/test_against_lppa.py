"""The anti-LPPA adversary."""

import numpy as np
import pytest

from repro.attacks.against_lppa import (
    infer_available_sets,
    lppa_bcm_attack,
    top_fraction_bidders,
)
from repro.attacks.metrics import score_attack
from repro.auction.bidders import generate_users
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy


def test_top_fraction_counts():
    ranking = [[3], [1, 4], [0], [2]]  # 5 users
    assert top_fraction_bidders(ranking, 0.2) == {3}
    assert top_fraction_bidders(ranking, 0.6) == {3, 1, 4}
    assert top_fraction_bidders(ranking, 1.0) == {0, 1, 2, 3, 4}


def test_top_fraction_truncates_tie_class():
    ranking = [[5, 6, 7], [0]]
    chosen = top_fraction_bidders(ranking, 0.5)  # ceil(0.5 * 4) = 2
    assert len(chosen) == 2
    assert chosen <= {5, 6, 7}


def test_top_fraction_validation():
    with pytest.raises(ValueError):
        top_fraction_bidders([[0]], 0.0)
    with pytest.raises(ValueError):
        top_fraction_bidders([[0]], 1.1)


def test_infer_available_sets():
    rankings = [[[0], [1], [2]], [[2], [1], [0]]]
    inferred = infer_available_sets(rankings, 3, 0.3)  # ceil(0.9) = top 1
    assert 0 in inferred[0] and 1 in inferred[2]
    assert inferred[1] == set()


def test_infer_rejects_unknown_users():
    with pytest.raises(ValueError):
        infer_available_sets([[[7]]], 3, 0.5)


def test_attack_pipeline_shapes(tiny_db, rng):
    users = generate_users(tiny_db, 12, rng)
    result = run_fast_lppa(
        users, two_lambda=3, bmax=127, entropy=0
    )
    masks = lppa_bcm_attack(tiny_db, result.rankings, len(users), 0.5)
    grid = tiny_db.coverage.grid
    assert len(masks) == 12
    for mask in masks:
        assert mask.shape == (grid.rows, grid.cols)
        assert mask.sum() >= 1  # robust mode never returns empty


def test_ranking_count_must_match_channels(tiny_db):
    with pytest.raises(ValueError):
        lppa_bcm_attack(tiny_db, [[[0]]], 1, 0.5)


def test_disguises_raise_failure_rate(tiny_db, rng):
    """More zero replacement -> more forged constraints -> more failures."""
    users = generate_users(tiny_db, 25, rng)

    def failure_rate(replace):
        result = run_fast_lppa(
            users,
            two_lambda=3,
            bmax=127,
            policy=UniformReplacePolicy(replace),
            entropy=1,
        )
        masks = lppa_bcm_attack(tiny_db, result.rankings, len(users), 0.5)
        scores = [
            score_attack(m, u.cell, tiny_db.coverage.grid)
            for m, u in zip(masks, users)
        ]
        return sum(1 for s in scores if s.failed) / len(scores)

    assert failure_rate(1.0) >= failure_rate(0.0)
