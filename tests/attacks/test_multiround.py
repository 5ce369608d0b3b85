"""Multi-round linkage attack and pseudonym mixing."""

import random

import pytest

from repro.attacks.metrics import aggregate_scores, score_attack
from repro.attacks.multiround import multiround_linkage_attack
from repro.auction.bidders import generate_users, rebid_users
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy


@pytest.fixture(scope="module")
def campaign(tiny_db):
    users = generate_users(tiny_db, 15, random.Random(7))
    rounds = []
    population = users
    rng = random.Random(0)
    for _ in range(3):
        result = run_fast_lppa(
            population,
            two_lambda=3,
            bmax=127,
            policy=UniformReplacePolicy(0.2),
            entropy=rng.getrandbits(64),
        )
        rounds.append(result.rankings)
        population = rebid_users(population, tiny_db, rng)
    return users, rounds


def test_rebid_preserves_identity_and_availability(tiny_db):
    users = generate_users(tiny_db, 10, random.Random(1))
    fresh = rebid_users(users, tiny_db, random.Random(2))
    for before, after in zip(users, fresh):
        assert after.user_id == before.user_id
        assert after.cell == before.cell
        assert after.beta == before.beta
        available = tiny_db.available_channels(before.cell)
        for ch, bid in enumerate(after.bids):
            if ch not in available:
                assert bid == 0


def test_rebid_changes_noise(tiny_db):
    users = generate_users(tiny_db, 10, random.Random(3))
    fresh = rebid_users(users, tiny_db, random.Random(4))
    assert any(a.bids != b.bids for a, b in zip(users, fresh))


def test_linking_rounds_never_grows_candidates(tiny_db, campaign):
    users, rounds = campaign
    grid = tiny_db.coverage.grid

    def mean_cells(upto):
        masks = multiround_linkage_attack(
            tiny_db, rounds[:upto], len(users), 0.5
        )
        return aggregate_scores(
            [score_attack(m, u.cell, grid) for m, u in zip(masks, users)]
        ).mean_cells

    assert mean_cells(3) <= mean_cells(1)


def test_single_round_equals_plain_lppa_attack(tiny_db, campaign):
    from repro.attacks.against_lppa import lppa_bcm_attack

    users, rounds = campaign
    multi = multiround_linkage_attack(tiny_db, rounds[:1], len(users), 0.5)
    single = lppa_bcm_attack(tiny_db, rounds[0], len(users), 0.5)
    for a, b in zip(multi, single):
        assert (a == b).all()


def test_validation(tiny_db):
    with pytest.raises(ValueError):
        multiround_linkage_attack(tiny_db, [], 5, 0.5)
    with pytest.raises(ValueError):
        multiround_linkage_attack(tiny_db, [[[[0]]]], 5, 0.5)
