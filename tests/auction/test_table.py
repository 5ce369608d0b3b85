"""The ranked bid table, built as the plaintext baseline builds it."""

import pytest

from repro.auction.plain_auction import plain_rankings
from repro.auction.table import RankedTable, rank_values


def _plain(rows):
    return RankedTable(plain_rankings(rows), len(rows))


def drain(table, channel):
    """The column's live bidders as classes, best first (consumes it)."""
    classes = []
    while table.has_channel_entries(channel):
        classes.append(table.max_bidders(channel))
        for bidder in classes[-1]:
            table.remove_entry(bidder, channel)
    return classes


def test_zero_bids_are_not_entries():
    table = _plain([[0, 5], [0, 0]])
    assert drain(table, 0) == []
    assert drain(table, 1) == [[0]]


def test_max_bidders_and_ties():
    table = _plain([[3, 7], [9, 7], [9, 1]])
    assert table.max_bidders(0) == [1, 2]
    assert table.max_bidders(1) == [0, 1]


def test_max_bidders_on_empty_column_raises():
    table = _plain([[0, 5]])
    with pytest.raises(ValueError):
        table.max_bidders(0)


def test_rank_values_groups_bidders_by_value():
    assert rank_values({4: 7, 0: 3, 2: 7, 1: 9}) == [[1], [2, 4], [0]]
    assert rank_values({}) == []


def test_remove_row():
    table = _plain([[3, 7], [9, 1]])
    table.remove_row(1)
    assert drain(table, 0) == [[0]]
    assert drain(table, 1) == [[0]]
    table.remove_row(1)  # idempotent


def test_remove_entry_and_emptiness():
    table = _plain([[3, 7]])
    table.remove_entry(0, 0)
    assert table.has_entries()
    table.remove_entry(0, 1)
    assert not table.has_entries()
    table.remove_entry(0, 1)  # idempotent on gone rows


def test_channel_bounds():
    table = _plain([[1]])
    with pytest.raises(IndexError):
        table.has_channel_entries(1)
    with pytest.raises(IndexError):
        table.remove_entry(0, -1)


def test_construction_validation():
    with pytest.raises(ValueError):
        plain_rankings([])
    with pytest.raises(ValueError):
        plain_rankings([[1, 2], [3]])
    with pytest.raises(ValueError):
        _plain([[]])
