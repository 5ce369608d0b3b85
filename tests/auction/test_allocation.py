"""Greedy allocation — Algorithm 3 invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.allocation import greedy_allocate
from repro.auction.conflict import ConflictGraph, build_conflict_graph
from repro.auction.plain_auction import plain_rankings
from repro.auction.table import RankedTable


def _plain(rows):
    return RankedTable(plain_rankings(rows), len(rows))


def _no_conflicts(n):
    return ConflictGraph(n_users=n, edges=frozenset())


def test_single_bidder_single_channel():
    table = _plain([[5]])
    winners = greedy_allocate(table, _no_conflicts(1), random.Random(0))
    assert [(w.bidder, w.channel) for w in winners] == [(0, 0)]


def test_each_bidder_wins_at_most_once():
    rows = [[5, 3, 9], [1, 8, 2], [7, 7, 7]]
    winners = greedy_allocate(
        _plain(rows), _no_conflicts(3), random.Random(1)
    )
    bidders = [w.bidder for w in winners]
    assert len(bidders) == len(set(bidders))


def test_spectrum_reuse_without_conflicts():
    """Non-conflicting bidders can all win the same single channel."""
    rows = [[5], [4], [3]]
    winners = greedy_allocate(
        _plain(rows), _no_conflicts(3), random.Random(2)
    )
    assert sorted(w.bidder for w in winners) == [0, 1, 2]
    assert {w.channel for w in winners} == {0}


def test_conflicting_bidders_never_share_a_channel():
    rows = [[5], [4], [3]]
    conflict = build_conflict_graph([(0, 0), (1, 1), (50, 50)], 4)
    winners = greedy_allocate(_plain(rows), conflict, random.Random(3))
    per_channel = {}
    for w in winners:
        per_channel.setdefault(w.channel, []).append(w.bidder)
    for bidders in per_channel.values():
        for i in range(len(bidders)):
            for j in range(i + 1, len(bidders)):
                assert not conflict.are_conflicting(bidders[i], bidders[j])
    # Bidder 2 is far away and must still win channel 0.
    assert any(w.bidder == 2 for w in winners)


def test_highest_bidder_wins_single_channel():
    rows = [[5], [9], [3]]
    winners = greedy_allocate(
        _plain(rows), _no_conflicts(3), random.Random(4)
    )
    assert winners[0].bidder == 1  # the max bid is found first


def test_table_is_fully_consumed():
    rows = [[5, 2], [4, 8]]
    table = _plain(rows)
    greedy_allocate(table, _no_conflicts(2), random.Random(5))
    assert not table.has_entries()


def test_blocked_neighbor_can_win_elsewhere():
    """Deleting T[o, r] only blocks the conflicting channel, not the user."""
    rows = [[9, 0], [5, 7]]
    conflict = build_conflict_graph([(0, 0), (1, 1)], 4)
    winners = greedy_allocate(_plain(rows), conflict, random.Random(6))
    by_bidder = {w.bidder: w.channel for w in winners}
    assert by_bidder[0] == 0
    assert by_bidder[1] == 1


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_random_tables_satisfy_invariants(rows, seed):
    if not any(b > 0 for row in rows for b in row):
        return  # empty table: nothing to allocate
    n = len(rows)
    cells = [(i * 3 % 25, i * 7 % 25) for i in range(n)]
    conflict = build_conflict_graph(cells, 5)
    table = _plain(rows)
    winners = greedy_allocate(table, conflict, random.Random(seed))
    assert not table.has_entries()
    bidders = [w.bidder for w in winners]
    assert len(bidders) == len(set(bidders))
    for w in winners:
        assert rows[w.bidder][w.channel] > 0
    per_channel = {}
    for w in winners:
        per_channel.setdefault(w.channel, []).append(w.bidder)
    for channel_winners in per_channel.values():
        for i in range(len(channel_winners)):
            for j in range(i + 1, len(channel_winners)):
                assert not conflict.are_conflicting(
                    channel_winners[i], channel_winners[j]
                )
