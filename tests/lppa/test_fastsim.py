"""The fast numeric simulator vs the full-crypto session."""

import pytest

from repro.auction.bidders import SecondaryUser
from repro.auction.conflict import build_conflict_graph
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.policies import UniformReplacePolicy
from repro.lppa.session import run_lppa_auction


def test_outcome_invariants(small_users):
    result = run_fast_lppa(
        small_users, two_lambda=6, bmax=127, entropy=1
    )
    outcome = result.outcome
    for win in outcome.wins:
        true_bid = small_users[win.bidder].bids[win.channel]
        assert win.valid == (true_bid > 0)
        assert win.charge == (true_bid if win.valid else 0)


def test_every_user_wins_exactly_once(small_users):
    """With full masked rows (zeros included) every row is consumed by a win."""
    result = run_fast_lppa(
        small_users, two_lambda=6, bmax=127, entropy=2
    )
    assert sorted(w.bidder for w in result.outcome.wins) == list(
        range(len(small_users))
    )


def test_conflict_graph_matches_plaintext(small_users):
    result = run_fast_lppa(
        small_users, two_lambda=6, bmax=127, entropy=3
    )
    assert result.conflict_graph.edges == build_conflict_graph(
        [u.cell for u in small_users], 6
    ).edges


def test_prebuilt_conflict_graph_is_used(small_users):
    conflict = build_conflict_graph([u.cell for u in small_users], 6)
    result = run_fast_lppa(
        small_users, two_lambda=6, bmax=127, entropy=4, conflict=conflict
    )
    assert result.conflict_graph is conflict


def test_conflict_graph_smaller_than_the_population_is_refused():
    # A graph over fewer SUs reads as "no conflicts" for the rest, so the
    # three co-located bidders would all win channel 0 together.
    users = [
        SecondaryUser(user_id=i, cell=(0, i), beta=1.0, bids=(10 - i, 0))
        for i in range(3)
    ]
    conflict = build_conflict_graph([users[0].cell], 6)
    with pytest.raises(ValueError, match="conflict graph covers 1 SUs, bid table 3"):
        run_fast_lppa(users, two_lambda=6, bmax=127, entropy=4, conflict=conflict)


def test_full_crypto_rankings_equal_integer_rankings(small_db, small_users):
    """The masked rankings are exactly the hidden integer order.

    This is the equivalence that justifies using the fast simulator for the
    evaluation sweeps: rank the true expanded values a full-crypto session
    committed to, and require identical rankings.
    """
    from repro.auction.table import rank_values

    users = small_users[:10]
    full = run_lppa_auction(
        users, small_db.coverage.grid, two_lambda=6, bmax=127, entropy=9
    )
    assert [
        rank_values(
            {d.user_id: d.channels[ch].masked_expanded for d in full.disclosures}
        )
        for ch in range(users[0].n_channels)
    ] == full.rankings


def test_disguises_flow_through(small_users):
    result = run_fast_lppa(
        small_users,
        two_lambda=6,
        bmax=127,
        policy=UniformReplacePolicy(1.0),
        entropy=5,
    )
    assert any(c.disguised for d in result.disclosures for c in d.channels)


def test_validation(small_users):
    with pytest.raises(ValueError):
        run_fast_lppa([], two_lambda=6, bmax=127)
