"""Cross-module integration: the complete story of one auction round.

These tests exercise the whole pipeline the way the examples do — coverage
map -> users -> full-crypto LPPA round -> attacks -> metrics — and assert
the paper's end-to-end claims rather than per-module behaviour.
"""

import random

import pytest

from repro.attacks.against_lppa import lppa_bcm_attack
from repro.attacks.bcm import bcm_attack
from repro.attacks.bpm import bpm_attack
from repro.attacks.metrics import aggregate_scores, score_attack
from repro.auction.plain_auction import run_plain_auction
from repro.lppa.policies import UniformReplacePolicy
from repro.lppa.session import run_lppa_auction


@pytest.fixture(scope="module")
def world(small_db, small_users):
    users = small_users[:15]
    result = run_lppa_auction(
        users,
        small_db.coverage.grid,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(0.5),
        entropy=2024,
    )
    return small_db, users, result


def test_auction_completes_and_charges_consistently(world):
    db, users, result = world
    outcome = result.outcome
    assert len(outcome.wins) == len(users)  # full rows: everyone wins a slot
    for win in outcome.valid_wins:
        assert users[win.bidder].bids[win.channel] == win.charge


def test_winner_sets_respect_conflicts(world):
    db, users, result = world
    per_channel = {}
    for win in result.outcome.wins:
        per_channel.setdefault(win.channel, []).append(win.bidder)
    for bidders in per_channel.values():
        for i in range(len(bidders)):
            for j in range(i + 1, len(bidders)):
                assert not result.conflict_graph.are_conflicting(
                    bidders[i], bidders[j]
                )


def test_attack_chain_on_unprotected_auction(world):
    """BCM then BPM on plaintext bids: monotone refinement, perfect recall."""
    db, users, _ = world
    grid = db.coverage.grid
    bcm_scores, bpm_scores = [], []
    for user in users:
        possible = bcm_attack(db, user)
        bcm_scores.append(score_attack(possible, user.cell, grid))
        if user.available_set():
            refined = bpm_attack(db, user, possible, keep_fraction=0.3)
            assert refined.sum() <= possible.sum()
            bpm_scores.append(score_attack(refined, user.cell, grid))
    bcm_agg = aggregate_scores(bcm_scores)
    assert bcm_agg.failure_rate == 0.0  # truthful bids never mislead BCM
    assert bcm_agg.mean_cells < grid.n_cells
    if bpm_scores:
        assert aggregate_scores(bpm_scores).mean_cells <= bcm_agg.mean_cells


def test_lppa_protects_against_its_attacker(world):
    """Headline claim: the anti-LPPA attacker does worse than plain BCM."""
    db, users, result = world
    grid = db.coverage.grid
    masks = lppa_bcm_attack(db, result.rankings, len(users), 0.5)
    lppa_scores = [
        score_attack(mask, user.cell, grid) for mask, user in zip(masks, users)
    ]
    plain_scores = [
        score_attack(bcm_attack(db, user), user.cell, grid) for user in users
    ]
    assert (
        aggregate_scores(lppa_scores).failure_rate
        >= aggregate_scores(plain_scores).failure_rate
    )


def test_lppa_cost_is_bounded(small_db, small_users):
    """Revenue under LPPA stays within a sane band of the plain auction."""
    users = small_users
    plain = run_plain_auction(users, random.Random(5), two_lambda=6)
    private = run_lppa_auction(
        users,
        small_db.coverage.grid,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(0.3),
        entropy=5,
    )
    ratio = private.outcome.sum_of_winning_bids() / plain.sum_of_winning_bids()
    assert 0.4 <= ratio <= 1.3
