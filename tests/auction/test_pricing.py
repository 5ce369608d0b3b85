"""Second-price charging (the truthfulness extension)."""

import random

import pytest

from repro.auction.conflict import ConflictGraph, build_conflict_graph
from repro.auction.pricing import (
    PricedAssignment,
    greedy_allocate_priced,
    second_price_charge,
)
from repro.auction.plain_auction import plain_rankings
from repro.auction.table import RankedTable


def _plain(rows):
    return RankedTable(plain_rankings(rows), len(rows))


def _no_conflicts(n):
    return ConflictGraph(n_users=n, edges=frozenset())


def test_plain_table_ranking():
    table = _plain([[3, 7], [9, 7], [0, 1]])
    assert table.ranking(0) == [[1], [0]]
    assert table.ranking(1) == [[0, 1], [2]]


def test_losers_recorded_at_sale_time():
    table = _plain([[9], [5], [3]])
    sales = greedy_allocate_priced(table, _no_conflicts(3), random.Random(0))
    first = sales[0]
    assert first.bidder == 0
    assert first.losers_desc == (1, 2)
    # Second sale of the channel: only bidder 2 remains as loser for 1.
    second = sales[1]
    assert second.bidder == 1
    assert second.losers_desc == (2,)


def test_second_price_charge_is_best_loser():
    sale = PricedAssignment(bidder=0, channel=0, losers_desc=(1, 2))
    bids = {(0, 0): 9, (1, 0): 5, (2, 0): 3}
    assert second_price_charge(sale, lambda b, c: bids[(b, c)]) == 5


def test_second_price_skips_zero_losers():
    """Disguised-zero runners-up cannot deflate the charge to zero."""
    sale = PricedAssignment(bidder=0, channel=0, losers_desc=(1, 2))
    bids = {(0, 0): 9, (1, 0): 0, (2, 0): 3}
    assert second_price_charge(sale, lambda b, c: bids[(b, c)]) == 3


def test_second_price_fallback_is_own_bid():
    sale = PricedAssignment(bidder=0, channel=0, losers_desc=())
    assert second_price_charge(sale, lambda b, c: 9) == 9


def test_plain_auction_second_price_never_exceeds_first(small_users):
    from repro.auction.plain_auction import run_plain_auction

    first = run_plain_auction(small_users, random.Random(5), two_lambda=6)
    second = run_plain_auction(
        small_users, random.Random(5), two_lambda=6, pricing="second"
    )
    assert second.sum_of_winning_bids() <= first.sum_of_winning_bids()
    # Same allocation (same RNG, same algorithm), only charges differ.
    assert [(w.bidder, w.channel) for w in second.wins] == [
        (w.bidder, w.channel) for w in first.wins
    ]
    for win in second.wins:
        assert win.charge <= small_users[win.bidder].bids[win.channel]


def test_truthful_incentive_under_second_price():
    """A lone top bidder's charge does not depend on its own bid level —
    the property that makes shading pointless."""
    for own_bid in (8, 12, 20):
        table = _plain([[own_bid], [5], [3]])
        sales = greedy_allocate_priced(table, _no_conflicts(3), random.Random(1))
        bids = {(0, 0): own_bid, (1, 0): 5, (2, 0): 3}
        charge = second_price_charge(sales[0], lambda b, c: bids[(b, c)])
        assert charge == 5


def test_fastsim_second_price(small_users):
    from repro.lppa.fastsim import run_fast_lppa

    result = run_fast_lppa(
        small_users, two_lambda=6, bmax=127, entropy=2,
        pricing="second",
    )
    for win in result.outcome.valid_wins:
        assert win.charge <= small_users[win.bidder].bids[win.channel]


def test_fastsim_rejects_bad_pricing(small_users):
    from repro.lppa.fastsim import run_fast_lppa

    with pytest.raises(ValueError):
        run_fast_lppa(small_users, two_lambda=6, bmax=127, pricing="third")
    with pytest.raises(ValueError):
        run_fast_lppa(
            small_users, two_lambda=6, bmax=127, pricing="second",
            revalidate=True,
        )


def test_plain_auction_rejects_bad_pricing(small_users):
    from repro.auction.plain_auction import run_plain_auction

    with pytest.raises(ValueError):
        run_plain_auction(
            small_users, random.Random(0), two_lambda=6, pricing="vickrey"
        )
