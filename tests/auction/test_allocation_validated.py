"""Greedy allocation with the TTP invalid-winner feedback loop."""

import random

import pytest

from repro.auction.allocation import greedy_allocate
from repro.auction.conflict import ConflictGraph, build_conflict_graph
from repro.auction.table import RankedTable, rank_values


def _integer(rows):
    """The fast simulator's table: every value, zeros included, is an entry."""
    return RankedTable(
        [
            rank_values({u: row[ch] for u, row in enumerate(rows)})
            for ch in range(len(rows[0]))
        ],
        len(rows),
    )


def _no_conflicts(n):
    return ConflictGraph(n_users=n, edges=frozenset())


def greedy_allocate_validated(table, conflict, rng, is_valid):
    """The winners and how many of them ``is_valid`` refused."""
    refusals = []

    def counting(bidder, channel):
        valid = is_valid(bidder, channel)
        if not valid:
            refusals.append((bidder, channel))
        return valid

    return greedy_allocate(table, conflict, rng, counting), len(refusals)


def test_invalid_max_is_skipped():
    """Bidder 1 holds the max but is invalid: bidder 0 must win instead."""
    table = _integer([[5], [9]])
    winners, rejected = greedy_allocate_validated(
        table, _no_conflicts(2), random.Random(0), lambda b, c: b == 0
    )
    assert [(w.bidder, w.channel) for w in winners] == [(0, 0)]
    assert rejected == 1


def test_all_invalid_column_drains_without_winner():
    table = _integer([[5], [9]])
    winners, rejected = greedy_allocate_validated(
        table, _no_conflicts(2), random.Random(0), lambda b, c: False
    )
    assert winners == []
    assert rejected == 2


def test_invalid_bidder_keeps_other_channels():
    """Rejection deletes the entry, not the row."""
    table = _integer([[9, 1], [5, 8]])
    # Bidder 0 invalid on channel 0 only.
    winners, rejected = greedy_allocate_validated(
        table,
        _no_conflicts(2),
        random.Random(1),
        lambda b, c: not (b == 0 and c == 0),
    )
    by_bidder = {w.bidder: w.channel for w in winners}
    assert by_bidder[0] == 1 or by_bidder[0] == 1  # bidder 0 wins channel 1
    assert 1 in by_bidder
    assert rejected == 1


def test_all_valid_equals_plain_algorithm():
    rows = [[5, 3], [9, 7], [2, 8]]
    a_table = _integer(rows)
    b_table = _integer(rows)
    conflict = build_conflict_graph([(0, 0), (30, 30), (60, 60)], 4)
    plain = greedy_allocate(a_table, conflict, random.Random(3))
    validated, rejected = greedy_allocate_validated(
        b_table, conflict, random.Random(3), lambda b, c: True
    )
    assert rejected == 0
    assert plain == validated


def test_conflicting_neighbors_still_blocked():
    table = _integer([[9], [5]])
    conflict = build_conflict_graph([(0, 0), (1, 1)], 4)
    winners, _ = greedy_allocate_validated(
        table, conflict, random.Random(4), lambda b, c: True
    )
    assert len(winners) == 1  # neighbour's entry deleted with the win
