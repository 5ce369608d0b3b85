"""Executable summary: the paper's headline claims at test scale.

One assertion per claim the reproduction stands on, each runnable in
seconds.  EXPERIMENTS.md quotes the full-scale numbers; this file keeps the
*directions* permanently true under CI.
"""

import random

import pytest

from repro.attacks.against_lppa import lppa_bcm_attack
from repro.attacks.bcm import bcm_attack
from repro.attacks.bpm import bpm_attack
from repro.attacks.metrics import aggregate_scores, score_attack
from repro.auction.bidders import generate_users
from repro.auction.plain_auction import run_plain_auction
from repro.geo.datasets import make_database
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy

N_USERS = 40
N_CHANNELS = 60
TWO_LAMBDA = 6
SEED = "paper-claims"


@pytest.fixture(scope="module")
def world():
    database = make_database(3, n_channels=N_CHANNELS, seed=SEED)
    users = generate_users(database, N_USERS, random.Random(99))
    return database, users


@pytest.fixture(scope="module")
def attacked(world):
    """BCM and BPM scores over the unprotected population."""
    database, users = world
    grid = database.coverage.grid
    bcm_scores, bpm_scores = [], []
    for user in users:
        possible = bcm_attack(database, user)
        bcm_scores.append(score_attack(possible, user.cell, grid))
        if user.available_set():
            refined = bpm_attack(
                database, user, possible, keep_fraction=0.25, max_cells=250
            )
            bpm_scores.append(score_attack(refined, user.cell, grid))
    return aggregate_scores(bcm_scores), aggregate_scores(bpm_scores)


def test_claim_1_bcm_shrinks_the_prior(world, attacked):
    """§III.A: intersecting coverage complements localises bidders."""
    database, _ = world
    bcm, _ = attacked
    assert bcm.mean_cells < database.coverage.grid.n_cells / 5
    assert bcm.failure_rate == 0.0


def test_claim_2_bpm_refines_bcm(attacked):
    """§III.B: bid prices pin bidders beyond availability alone."""
    bcm, bpm = attacked
    assert bpm.mean_cells < bcm.mean_cells
    assert bpm.mean_uncertainty_bits < bcm.mean_uncertainty_bits


def test_claim_3_rural_beats_urban(world):
    """§VI.B: the attack is more effective in rural areas than urban."""
    def bcm_cells(area):
        database = make_database(area, n_channels=N_CHANNELS, seed=SEED)
        users = generate_users(database, 25, random.Random(7))
        scores = [
            score_attack(bcm_attack(database, u), u.cell, database.coverage.grid)
            for u in users
        ]
        return aggregate_scores(scores).mean_cells

    assert bcm_cells(4) < bcm_cells(2)


def test_claim_4_lppa_thwarts_the_attacker(world, attacked):
    """§VI.C: under LPPA the attacker's failure rate rises dramatically."""
    database, users = world
    grid = database.coverage.grid
    bcm, _ = attacked
    result = run_fast_lppa(
        users,
        two_lambda=TWO_LAMBDA,
        bmax=127,
        policy=UniformReplacePolicy(0.5),
        entropy=1,
    )
    masks = lppa_bcm_attack(database, result.rankings, len(users), 0.5)
    scores = [score_attack(m, u.cell, grid) for m, u in zip(masks, users)]
    protected = aggregate_scores(scores)
    assert protected.failure_rate >= bcm.failure_rate + 0.5


def test_claim_5_performance_cost_is_bounded(world):
    """§VI.D: the privacy mechanism costs a bounded share of performance."""
    database, users = world
    plain = run_plain_auction(users, random.Random(2), two_lambda=TWO_LAMBDA)
    private = run_fast_lppa(
        users,
        two_lambda=TWO_LAMBDA,
        bmax=127,
        policy=UniformReplacePolicy(1.0),  # the harshest setting
        entropy=2,
    )
    ratio = private.outcome.sum_of_winning_bids() / plain.sum_of_winning_bids()
    assert ratio > 0.6  # the paper's "maximum cost is less than 30%" band


def test_claim_6_conflict_graph_is_exact(world):
    """§IV.A: the masked location protocol loses nothing — allocations under
    LPPA are interference-free against ground truth."""
    from repro.auction.interference import count_violations

    database, users = world
    result = run_fast_lppa(
        users,
        two_lambda=TWO_LAMBDA,
        bmax=127,
        policy=UniformReplacePolicy(0.8),
        entropy=3,
    )
    audit = count_violations(
        result.outcome, [u.cell for u in users], TWO_LAMBDA
    )
    assert audit.n_violations == 0


def test_claim_7_theorem_1_is_exact():
    """§IV.C.3: the zero-win probability closed form matches simulation."""
    from repro.analysis.montecarlo import simulate_zero_not_winning
    from repro.analysis.theorems import theorem1_paper

    probs = (0.4, 0.3, 0.2, 0.1)
    closed = theorem1_paper(2, 6, probs)
    estimate = simulate_zero_not_winning(
        2, 6, probs, random.Random(4), trials=30000
    )
    assert closed == pytest.approx(estimate, abs=0.02)


def test_claim_8_theorem_4_is_exact():
    """§IV.C.4: the communication-cost formula equals measured bytes."""
    from repro.analysis.comm_cost import measure_bid_cost
    from repro.crypto.keys import generate_keyring
    from repro.lppa.bids_advanced import BidScale, submit_bids_advanced

    keyring = generate_keyring(b"claims", 3, rd=4, cr=8)
    scale = BidScale(bmax=30, rd=4, cr=8)
    rng = random.Random(5)
    submissions = [
        submit_bids_advanced(i, [5, 0, 17], keyring, scale, rng)[0]
        for i in range(4)
    ]
    assert measure_bid_cost(submissions, scale).prediction_error == 0.0
