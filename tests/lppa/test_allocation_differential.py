"""The one Algorithm 3 loop and the post-loop second prices against the
loops they replaced (:mod:`tests.lppa.oracles`): equal winners, charges,
TTP refusals and allocation-RNG end state."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.allocation import greedy_allocate
from repro.auction.conflict import ConflictGraph, build_conflict_graph
from repro.auction.pricing import charge_wins
from repro.auction.plain_auction import plain_rankings
from repro.auction.table import RankedTable, rank_values
from repro.experiments.scale import synthesize_population
from repro.lppa.entropy import derive_round_rngs
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy
from tests.lppa.oracles import (
    SetTable,
    greedy_allocate_priced,
    greedy_allocate_validated,
    second_price_charge,
)


def check_against_oracles(rankings, true_bid, conflict, rng_state):
    """One table, allocated and charged both ways under every rule."""
    n_users = conflict.n_users
    rng, oracle_rng = random.Random(), random.Random()
    rng.setstate(rng_state)
    oracle_rng.setstate(rng_state)
    sales = greedy_allocate_priced(SetTable(rankings), conflict, oracle_rng)
    assignments = greedy_allocate(RankedTable(rankings, n_users), conflict, rng)
    assert [(a.bidder, a.channel) for a in assignments] == [
        (s.bidder, s.channel) for s in sales
    ]
    assert rng.getstate() == oracle_rng.getstate()
    for pricing in ("first", "second"):
        wins = charge_wins(
            assignments, true_bid, pricing=pricing, rankings=rankings, conflict=conflict
        )
        expected = []
        for sale in sales:
            own = true_bid(sale.bidder, sale.channel)
            price = second_price_charge(sale, true_bid) if pricing == "second" else own
            expected.append((price if own > 0 else 0, own > 0))
        assert [(w.charge, w.valid) for w in wins] == expected

    def accepts(bidder, channel):
        return true_bid(bidder, channel) > 0

    refusals = []

    def counting(bidder, channel):
        if accepts(bidder, channel):
            return True
        refusals.append((bidder, channel))
        return False

    rng.setstate(rng_state)
    oracle_rng.setstate(rng_state)
    winners, rejected = greedy_allocate_validated(
        SetTable(rankings), conflict, oracle_rng, accepts
    )
    assert greedy_allocate(RankedTable(rankings, n_users), conflict, rng, counting) == winners
    assert len(refusals) == rejected
    assert rng.getstate() == oracle_rng.getstate()


@st.composite
def tables(draw):
    """Small tables: few values (ties), zeros ranked or not, any conflicts."""
    n_users = draw(st.integers(1, 12))
    n_channels = draw(st.integers(1, 4))
    values = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=n_channels, max_size=n_channels),
            min_size=n_users,
            max_size=n_users,
        )
    )
    pairs = [(i, j) for i in range(n_users) for j in range(i + 1, n_users)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    zeros_ranked = draw(st.booleans())
    rankings = [
        rank_values(
            {b: row[ch] for b, row in enumerate(values) if zeros_ranked or row[ch] > 0}
        )
        for ch in range(n_channels)
    ]
    conflict = ConflictGraph(n_users=n_users, edges=frozenset(edges))
    return rankings, values, conflict


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(0, 2**32))
def test_random_tables_match_the_oracles(table, seed):
    rankings, values, conflict = table
    check_against_oracles(
        rankings, lambda b, c: values[b][c], conflict, random.Random(seed).getstate()
    )


def test_fast_simulator_at_2k_sus_matches_the_oracles():
    """2,000 SUs of the scale population with every third bid zeroed and
    half the zeros disguised: every bidder is an entry of every channel,
    so invalid winners, refusals and zero runners-up all occur."""
    users, _ = synthesize_population(2000)
    users = [
        dataclasses.replace(
            u, bids=tuple(0 if (u.user_id + ch) % 3 == 0 else b for ch, b in enumerate(u.bids))
        )
        for u in users
    ]
    conflict = build_conflict_graph([u.cell for u in users], 6)
    check_against_oracles(
        plain_rankings([u.bids for u in users]),
        lambda b, c: users[b].bids[c],
        conflict,
        random.Random(0).getstate(),
    )
    entropy = b"differential"
    kwargs = dict(
        two_lambda=6, bmax=127, entropy=entropy, conflict=conflict,
        policy=UniformReplacePolicy(0.5),
    )
    _, alloc_rng = derive_round_rngs(entropy, len(users))
    second = run_fast_lppa(users, pricing="second", **kwargs)
    true_bids = [[c.true_bid for c in d.channels] for d in second.disclosures]

    def true_bid(bidder, channel):
        return true_bids[bidder][channel]

    check_against_oracles(second.rankings, true_bid, conflict, alloc_rng.getstate())
    sales = greedy_allocate_priced(SetTable(second.rankings), conflict, alloc_rng)
    assert [(w.bidder, w.channel) for w in second.outcome.wins] == [
        (s.bidder, s.channel) for s in sales
    ]
    assert len(second.outcome.valid_wins) < len(sales)
    assert [w.charge for w in second.outcome.valid_wins] == [
        second_price_charge(s, true_bid) for s in sales if true_bid(s.bidder, s.channel) > 0
    ]
    _, alloc_rng = derive_round_rngs(entropy, len(users))
    revalidated = run_fast_lppa(users, revalidate=True, **kwargs)
    winners, rejected = greedy_allocate_validated(
        SetTable(second.rankings), conflict, alloc_rng, lambda b, c: true_bid(b, c) > 0
    )
    assert [(w.bidder, w.channel) for w in revalidated.outcome.wins] == [
        (a.bidder, a.channel) for a in winners
    ]
    assert revalidated.ttp_rejections == rejected > 0
