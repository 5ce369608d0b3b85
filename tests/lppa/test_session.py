"""End-to-end LPPA session (full cryptographic path)."""

import pytest

from repro.auction.conflict import build_conflict_graph
from repro.lppa.policies import UniformReplacePolicy
from repro.lppa.session import run_lppa_auction


@pytest.fixture(scope="module")
def round_result(small_db, small_users):
    users = small_users[:12]
    result = run_lppa_auction(
        users,
        small_db.coverage.grid,
        two_lambda=6,
        bmax=127,
        entropy=77,
    )
    return users, result


def test_conflict_graph_equals_plaintext(round_result):
    users, result = round_result
    plain = build_conflict_graph([u.cell for u in users], 6)
    assert result.conflict_graph.edges == plain.edges


def test_valid_wins_charge_true_bids(round_result):
    users, result = round_result
    for win in result.outcome.valid_wins:
        assert win.charge == users[win.bidder].bids[win.channel]


def test_invalid_wins_are_true_zero_bids(round_result):
    users, result = round_result
    for win in result.outcome.wins:
        if not win.valid:
            assert users[win.bidder].bids[win.channel] == 0


def test_rankings_are_consistent_with_bid_order(round_result):
    """For undisguised submissions, higher true bids rank at least as high."""
    users, result = round_result
    for channel, ranking in enumerate(result.rankings):
        position = {}
        for rank, tie_class in enumerate(ranking):
            for user in tie_class:
                position[user] = rank
        for i in range(len(users)):
            for j in range(len(users)):
                bi = users[i].bids[channel]
                bj = users[j].bids[channel]
                if bi > bj and bi > 0 and bj > 0:
                    assert position[i] <= position[j]


def test_comm_accounting_positive(round_result):
    _, result = round_result
    assert result.location_bytes > 0
    assert result.bid_bytes > result.masked_set_bytes > 0
    assert result.total_bytes == result.location_bytes + result.bid_bytes


def test_disclosures_cover_population(round_result):
    users, result = round_result
    assert len(result.disclosures) == len(users)
    for user, disclosure in zip(users, result.disclosures):
        assert len(disclosure.channels) == user.n_channels
        for channel, record in zip(user.bids, disclosure.channels):
            assert record.true_bid == channel


def test_session_with_disguise_policy(small_db, small_users):
    users = small_users[:8]
    result = run_lppa_auction(
        users,
        small_db.coverage.grid,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(1.0),
        entropy=3,
    )
    assert any(
        c.disguised for d in result.disclosures for c in d.channels
    ), "full replacement must disguise at least one zero"


def test_validation():
    with pytest.raises(ValueError):
        run_lppa_auction([], None, two_lambda=6, bmax=127)


def test_framed_bytes_cover_payload_plus_framing(round_result):
    """The codec-measured sizes exceed the payload accounting by exactly
    the per-message framing overhead."""
    from repro.lppa.codec import framing_overhead
    from repro.lppa.location import submit_location  # noqa: F401 (doc import)

    users, result = round_result
    assert result.framed_bytes > result.total_bytes
    # Framing: per location message 1 + 12 bytes; per bid message
    # 3 + k * 8 bytes (see codec.framing_overhead).
    k = users[0].n_channels
    expected_framing = len(users) * (1 + 12) + len(users) * (1 + 2 + k * 8)
    assert result.framed_bytes - result.total_bytes == expected_framing
