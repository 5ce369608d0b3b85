"""The masked bid table and its equivalence with the integer view."""

import random

import pytest

from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.fastsim import IntegerMaskedTable
from repro.lppa.psd import MaskedBidTable
from tests.lppa.oracles import bid_ge

SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"psd-test", 3, rd=4, cr=8)


def _world(bid_rows, seed=0):
    """Masked table + the hidden expanded values it encodes."""
    rng = random.Random(seed)
    submissions, values = [], []
    for uid, bids in enumerate(bid_rows):
        submission, disclosure = submit_bids_advanced(
            uid, bids, KEYRING, SCALE, rng
        )
        submissions.append(submission)
        values.append([c.masked_expanded for c in disclosure.channels])
    return MaskedBidTable(submissions), values


def test_ranking_matches_hidden_values():
    table, values = _world([[5, 0, 30], [17, 2, 1], [0, 9, 30], [30, 30, 0]])
    for channel in range(3):
        flat = [u for cls in table.ranking(channel) for u in cls]
        expected = sorted(range(4), key=lambda u: -values[u][channel])
        assert [values[u][channel] for u in flat] == [
            values[u][channel] for u in expected
        ]


def test_max_bidders_tracks_deletions():
    table, values = _world([[5, 0, 0], [17, 0, 0], [9, 0, 0]])
    order = sorted(range(3), key=lambda u: -values[u][0])
    assert table.max_bidders(0) == [order[0]]
    table.remove_row(order[0])
    assert table.max_bidders(0) == [order[1]]
    table.remove_entry(order[1], 0)
    assert table.max_bidders(0) == [order[2]]


def test_bid_ge_is_the_masked_order_oracle():
    table, values = _world([[5, 0, 0], [17, 0, 0]])
    for i in range(2):
        for j in range(2):
            assert bid_ge(table, i, j, 0) == (values[i][0] >= values[j][0])


def test_empty_column_raises():
    table, _ = _world([[5, 0, 0]])
    table.remove_row(0)
    assert not table.has_entries()
    with pytest.raises(ValueError):
        table.max_bidders(0)


def test_masked_bid_accessor_and_bounds():
    table, _ = _world([[5, 0, 0]])
    assert table.masked_bid(0, 2).ciphertext
    with pytest.raises(IndexError):
        table.masked_bid(1, 0)
    with pytest.raises(IndexError):
        table.masked_bid(0, 3)


def test_dense_ids_enforced():
    rng = random.Random(0)
    submission, _ = submit_bids_advanced(3, [1, 2, 3], KEYRING, SCALE, rng)
    with pytest.raises(ValueError):
        MaskedBidTable([submission])


def test_integer_table_mirrors_masked_table():
    """The fast simulator's table must behave identically on the same values."""
    bid_rows = [[5, 0, 30], [17, 2, 1], [0, 9, 30]]
    masked, values = _world(bid_rows, seed=42)
    integer = IntegerMaskedTable(values)
    for channel in range(3):
        assert masked.ranking(channel) == integer.ranking(channel)
        assert masked.max_bidders(channel) == integer.max_bidders(channel)
    masked.remove_row(1)
    integer.remove_row(1)
    masked.remove_entry(0, 2)
    integer.remove_entry(0, 2)
    for channel in range(3):
        assert masked.channel_bidders(channel) == integer.channel_bidders(channel)
        if masked.channel_bidders(channel):
            assert masked.max_bidders(channel) == integer.max_bidders(channel)


def test_integer_table_validation():
    with pytest.raises(ValueError):
        IntegerMaskedTable([])
    with pytest.raises(ValueError):
        IntegerMaskedTable([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMaskedTable([[]])
