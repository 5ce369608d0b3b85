"""Second-price charging (the truthfulness extension)."""

import random

import pytest

from repro.auction.allocation import Assignment, greedy_allocate
from repro.auction.conflict import ConflictGraph
from repro.auction.pricing import charge_wins, second_prices
from repro.auction.plain_auction import plain_rankings
from repro.auction.table import RankedTable, rank_values


def _no_conflicts(n):
    return ConflictGraph(n_users=n, edges=frozenset())


def _one_sale(bids):
    """Bidder 0 wins the one channel over ``bids`` (zeros ranked too)."""
    return second_prices(
        [Assignment(bidder=0, channel=0)],
        [rank_values(dict(enumerate(bids)))],
        _no_conflicts(len(bids)),
        lambda b, c: bids[b],
    )


def test_plain_table_ranking():
    assert plain_rankings([[3, 7], [9, 7], [0, 1]]) == [[[1], [0]], [[0, 1], [2]]]


def test_losers_recorded_at_sale_time():
    rows = [[9], [5], [3]]
    rankings = plain_rankings(rows)
    sales = greedy_allocate(
        RankedTable(rankings, 3), _no_conflicts(3), random.Random(0)
    )
    assert [a.bidder for a in sales] == [0, 1, 2]
    # The first sale's best loser is bidder 1; at the second sale of the
    # channel only bidder 2 remains as loser for 1; the last has none.
    assert second_prices(
        sales, rankings, _no_conflicts(3), lambda b, c: rows[b][c]
    ) == [5, 3, 3]


def test_second_price_charge_is_best_loser():
    assert _one_sale([9, 5, 3]) == [5]


def test_second_price_skips_zero_losers():
    """Disguised-zero runners-up cannot deflate the charge to zero."""
    assert _one_sale([9, 0, 3]) == [3]


def test_second_price_fallback_is_own_bid():
    assert _one_sale([9]) == [9]


def test_neighbour_blocked_at_a_sale_still_competes_in_it():
    """Bidder 1 conflicts with the first winner: it sets the first sale's
    price but is gone from the channel's second sale."""
    rows = [[9], [7], [5], [3]]
    conflict = ConflictGraph(n_users=4, edges=frozenset({(0, 1)}))
    sales = [Assignment(bidder=0, channel=0), Assignment(bidder=2, channel=0)]
    assert second_prices(
        sales, plain_rankings(rows), conflict, lambda b, c: rows[b][c]
    ) == [7, 3]


def test_charge_wins_follows_the_ttp_rule():
    rows = [[0], [5], [3]]
    rankings = [rank_values({0: 1, 1: 5, 2: 3})]  # 0 disguised its zero
    sales = [Assignment(bidder=0, channel=0), Assignment(bidder=1, channel=0)]
    for pricing, charges in (("first", [0, 5]), ("second", [0, 3])):
        wins = charge_wins(
            sales,
            lambda b, c: rows[b][c],
            pricing=pricing,
            rankings=rankings,
            conflict=_no_conflicts(3),
        )
        assert [w.charge for w in wins] == charges
        assert [w.valid for w in wins] == [False, True]
    with pytest.raises(ValueError):
        charge_wins(
            sales,
            lambda b, c: rows[b][c],
            pricing="vickrey",
            rankings=rankings,
            conflict=_no_conflicts(3),
        )


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
        rows = [[own_bid], [5], [3]]
        rankings = plain_rankings(rows)
        sales = greedy_allocate(
            RankedTable(rankings, 3), _no_conflicts(3), random.Random(1)
        )
        prices = second_prices(
            sales, rankings, _no_conflicts(3), lambda b, c: rows[b][c]
        )
        assert sales[0].bidder == 0
        assert prices[0] == 5


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
