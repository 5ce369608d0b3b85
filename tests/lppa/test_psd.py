"""The masked rankings, the table they make, and its equivalence with the
integer view."""

import random

import pytest

from repro.auction.table import RankedTable, rank_values
from repro.crypto.keys import generate_keyring
from repro.lppa.auctioneer import check_bid_submissions
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.psd import masked_rankings
from tests.auction.test_table import drain
from tests.lppa.oracles import bid_ge

SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"psd-test", 3, rd=4, cr=8)


def _world(bid_rows, seed=0):
    """Masked submissions + the hidden expanded values they encode."""
    rng = random.Random(seed)
    submissions, values = [], []
    for uid, bids in enumerate(bid_rows):
        submission, disclosure = submit_bids_advanced(
            uid, bids, KEYRING, SCALE, rng
        )
        submissions.append(submission)
        values.append([c.masked_expanded for c in disclosure.channels])
    return submissions, values


def _table(submissions):
    return RankedTable(masked_rankings(submissions), len(submissions))


def test_ranking_matches_hidden_values():
    subs, values = _world([[5, 0, 30], [17, 2, 1], [0, 9, 30], [30, 30, 0]])
    rankings = masked_rankings(subs)
    for channel in range(3):
        flat = [u for cls in rankings[channel] for u in cls]
        expected = sorted(range(4), key=lambda u: -values[u][channel])
        assert [values[u][channel] for u in flat] == [
            values[u][channel] for u in expected
        ]


def test_max_bidders_tracks_deletions():
    subs, values = _world([[5, 0, 0], [17, 0, 0], [9, 0, 0]])
    table = _table(subs)
    order = sorted(range(3), key=lambda u: -values[u][0])
    assert table.max_bidders(0) == [order[0]]
    table.remove_row(order[0])
    assert table.max_bidders(0) == [order[1]]
    table.remove_entry(order[1], 0)
    assert table.max_bidders(0) == [order[2]]


def test_bid_ge_is_the_masked_order_oracle():
    subs, values = _world([[5, 0, 0], [17, 0, 0]])
    for i in range(2):
        for j in range(2):
            assert bid_ge(subs, i, j, 0) == (values[i][0] >= values[j][0])


def test_empty_column_raises():
    table = _table(_world([[5, 0, 0]])[0])
    table.remove_row(0)
    assert not table.has_entries()
    with pytest.raises(ValueError):
        table.max_bidders(0)


def test_table_bounds():
    table = _table(_world([[5, 0, 0]])[0])
    assert table.n_users == 1 and table.n_channels == 3
    with pytest.raises(IndexError):
        table.remove_row(1)
    with pytest.raises(IndexError):
        table.remove_entry(0, 3)
    with pytest.raises(IndexError):
        table.max_bidders(3)


def test_dense_ids_enforced():
    rng = random.Random(0)
    submission, _ = submit_bids_advanced(3, [1, 2, 3], KEYRING, SCALE, rng)
    with pytest.raises(ValueError, match="dense"):
        check_bid_submissions([submission], 3)


def test_integer_table_mirrors_masked_table():
    """The fast simulator's rankings must behave identically on the same values."""
    bid_rows = [[5, 0, 30], [17, 2, 1], [0, 9, 30]]
    subs, values = _world(bid_rows, seed=42)
    integer_rankings = [
        rank_values({u: row[channel] for u, row in enumerate(values)})
        for channel in range(3)
    ]
    assert masked_rankings(subs) == integer_rankings
    masked = _table(subs)
    integer = RankedTable(integer_rankings, len(values))
    for channel in range(3):
        assert masked.max_bidders(channel) == integer.max_bidders(channel)
    masked.remove_row(1)
    integer.remove_row(1)
    masked.remove_entry(0, 2)
    integer.remove_entry(0, 2)
    for channel in range(3):
        assert drain(masked, channel) == drain(integer, channel)


def test_integer_table_validation():
    with pytest.raises(ValueError):
        RankedTable([], 1)
    with pytest.raises(ValueError, match="twice"):
        RankedTable([[[0, 1], [1]]], 2)
    with pytest.raises(ValueError, match="outside"):
        RankedTable([[[0], [2]]], 2)
