"""Ground-truth interference auditing."""

import pytest

from repro.auction.interference import count_violations
from repro.auction.outcome import AuctionOutcome, WinRecord


def _outcome(wins, n_users=10):
    return AuctionOutcome(
        n_users=n_users,
        wins=tuple(
            WinRecord(bidder=b, channel=c, charge=charge, valid=charge > 0)
            for b, c, charge in wins
        ),
    )


def test_no_cochannel_pairs_no_checks():
    outcome = _outcome([(0, 0, 5), (1, 1, 3)])
    report = count_violations(outcome, [(0, 0), (1, 1)] + [(50, 50)] * 8, 6)
    assert report.n_pairs_checked == 0
    assert report.n_violations == 0
    assert report.violation_rate == 0.0


def test_violation_detected():
    outcome = _outcome([(0, 3, 5), (1, 3, 4)])
    cells = [(10, 10), (12, 12)] + [(90, 90)] * 8
    report = count_violations(outcome, cells, 6)
    assert report.n_pairs_checked == 1
    assert report.violations == ((3, 0, 1),)
    assert report.violation_rate == 1.0


def test_distant_cochannel_pair_is_clean():
    outcome = _outcome([(0, 3, 5), (1, 3, 4)])
    cells = [(10, 10), (50, 50)] + [(90, 90)] * 8
    report = count_violations(outcome, cells, 6)
    assert report.n_pairs_checked == 1
    assert report.n_violations == 0


def test_invalid_wins_are_not_audited():
    outcome = _outcome([(0, 3, 5), (1, 3, 0)])  # bidder 1's win invalid
    cells = [(10, 10), (11, 11)] + [(90, 90)] * 8
    report = count_violations(outcome, cells, 6)
    assert report.n_pairs_checked == 0


def test_unknown_bidder_rejected():
    outcome = _outcome([(5, 0, 5)])
    with pytest.raises(ValueError):
        count_violations(outcome, [(0, 0)] * 3, 6)


def test_exact_graph_allocations_are_always_clean(small_users):
    """Plain and LPPA auctions build exact graphs: zero violations ever."""
    import random

    from repro.auction.plain_auction import run_plain_auction
    from repro.lppa.fastsim import run_fast_lppa
    from repro.lppa.policies import UniformReplacePolicy

    cells = [u.cell for u in small_users]
    plain = run_plain_auction(small_users, random.Random(0), two_lambda=8)
    assert count_violations(plain, cells, 8).n_violations == 0
    private = run_fast_lppa(
        small_users,
        two_lambda=8,
        bmax=127,
        policy=UniformReplacePolicy(0.7),
        entropy=1,
    )
    assert count_violations(private.outcome, cells, 8).n_violations == 0
