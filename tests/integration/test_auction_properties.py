"""Cross-cutting auction properties over randomly generated worlds.

Hypothesis drives whole mini-worlds (random bids, geometry, disguise
intensity, pricing rule) through the full allocation/charging stack and
checks the economic and physical invariants that must hold regardless of
parameters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.bidders import SecondaryUser
from repro.auction.conflict import build_conflict_graph
from repro.auction.interference import count_violations
from repro.auction.plain_auction import run_plain_auction
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy


@st.composite
def _worlds(draw):
    n_users = draw(st.integers(min_value=2, max_value=10))
    n_channels = draw(st.integers(min_value=1, max_value=4))
    users = []
    for uid in range(n_users):
        cell = (
            draw(st.integers(min_value=0, max_value=30)),
            draw(st.integers(min_value=0, max_value=30)),
        )
        bids = tuple(
            draw(st.integers(min_value=0, max_value=50))
            for _ in range(n_channels)
        )
        users.append(
            SecondaryUser(user_id=uid, cell=cell, beta=10.0, bids=bids)
        )
    two_lambda = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return users, two_lambda, seed


@settings(max_examples=30, deadline=None)
@given(_worlds())
def test_plain_auction_never_violates_interference(world):
    users, two_lambda, seed = world
    if not any(b > 0 for u in users for b in u.bids):
        return
    outcome = run_plain_auction(
        users, random.Random(seed), two_lambda=two_lambda
    )
    cells = [u.cell for u in users]
    assert count_violations(outcome, cells, two_lambda).n_violations == 0


@settings(max_examples=30, deadline=None)
@given(_worlds())
def test_lppa_never_violates_interference(world):
    users, two_lambda, seed = world
    result = run_fast_lppa(
        users,
        two_lambda=two_lambda,
        bmax=50,
        policy=UniformReplacePolicy(0.7),
        entropy=seed,
    )
    cells = [u.cell for u in users]
    assert count_violations(result.outcome, cells, two_lambda).n_violations == 0


@settings(max_examples=30, deadline=None)
@given(_worlds())
def test_second_price_revenue_never_exceeds_first(world):
    """Same allocation order (same RNG), runner-up charges can only lower
    the total."""
    users, two_lambda, seed = world
    if not any(b > 0 for u in users for b in u.bids):
        return
    first = run_plain_auction(
        users, random.Random(seed), two_lambda=two_lambda, pricing="first"
    )
    second = run_plain_auction(
        users, random.Random(seed), two_lambda=two_lambda, pricing="second"
    )
    assert second.sum_of_winning_bids() <= first.sum_of_winning_bids()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_worlds())
def test_revalidation_dominates_batching(world):
    """Feeding TTP rejections back improves (or preserves) satisfaction.

    Not a theorem — the two modes delete different entries, so adversarial
    geometries could in principle diverge the other way — hence the pinned
    (derandomized) example set: the property documents typical dominance
    rather than a universal guarantee.
    """
    users, two_lambda, seed = world
    kwargs = dict(
        two_lambda=two_lambda,
        bmax=50,
        policy=UniformReplacePolicy(1.0),
    )
    batched = run_fast_lppa(users, entropy=seed, **kwargs)
    revalidated = run_fast_lppa(
        users, entropy=seed, revalidate=True, **kwargs
    )
    assert (
        revalidated.outcome.user_satisfaction()
        >= batched.outcome.user_satisfaction() - 1e-9
    )
    assert all(w.valid for w in revalidated.outcome.wins)


@settings(max_examples=30, deadline=None)
@given(_worlds())
def test_lppa_charges_are_bounded_by_true_bids(world):
    users, two_lambda, seed = world
    result = run_fast_lppa(
        users,
        two_lambda=two_lambda,
        bmax=50,
        policy=UniformReplacePolicy(0.5),
        entropy=seed,
        pricing="second",
    )
    for win in result.outcome.valid_wins:
        assert 0 < win.charge <= users[win.bidder].bids[win.channel]
