"""The auctioneer endpoint: protocol phases and their ordering."""

import random

import pytest

from repro.lppa.auctioneer import Auctioneer
from repro.lppa.bids_advanced import submit_bids_advanced
from repro.lppa.location import submit_location
from repro.lppa.schemes.registry import get_scheme
from repro.lppa.ttp import TrustedThirdParty
from repro.geo.grid import GridSpec

PPBS = get_scheme("ppbs")

GRID = GridSpec(rows=20, cols=20, cell_km=1.0)


def _setup_round(bid_rows, cells, seed=0):
    ttp, keyring, scale = TrustedThirdParty.setup(
        b"auctioneer-test", len(bid_rows[0]), bmax=30
    )
    rng = random.Random(seed)
    auctioneer = Auctioneer(len(bid_rows[0]), PPBS)
    locations = [
        submit_location(i, cell, keyring.g0, GRID, 4)
        for i, cell in enumerate(cells)
    ]
    bids = [
        submit_bids_advanced(i, row, keyring, scale, rng)[0]
        for i, row in enumerate(bid_rows)
    ]
    return ttp, auctioneer, locations, bids, rng


def test_full_round():
    bid_rows = [[10, 0], [3, 8], [0, 5]]
    cells = [(0, 0), (10, 10), (1, 1)]
    ttp, auctioneer, locations, bids, rng = _setup_round(bid_rows, cells)
    auctioneer.receive_locations(locations)
    auctioneer.receive_bids(bids)
    auctioneer.run_allocation(rng)
    outcome = auctioneer.charge_winners(ttp, n_users=3)
    assert outcome.n_users == 3
    for win in outcome.wins:
        if win.valid:
            assert win.charge == bid_rows[win.bidder][win.channel]
        else:
            assert bid_rows[win.bidder][win.channel] == 0


def test_phase_ordering_enforced():
    bid_rows = [[10, 0]]
    cells = [(0, 0)]
    ttp, auctioneer, locations, bids, rng = _setup_round(bid_rows, cells)
    with pytest.raises(RuntimeError):
        auctioneer.run_allocation(rng)
    auctioneer.receive_locations(locations)
    with pytest.raises(RuntimeError):
        auctioneer.run_allocation(rng)
    auctioneer.receive_bids(bids)
    with pytest.raises(RuntimeError):
        auctioneer.charge_winners(ttp, n_users=1)
    auctioneer.run_allocation(rng)
    auctioneer.charge_winners(ttp, n_users=1)


def test_conflicting_submission_width_rejected():
    auctioneer = Auctioneer(3, PPBS)
    _, _, _, bids, _ = _setup_round([[10, 0]], [(0, 0)])
    with pytest.raises(ValueError):
        auctioneer.receive_bids(bids)


def test_rankings_available_after_bids():
    bid_rows = [[10, 0], [3, 8]]
    cells = [(0, 0), (10, 10)]
    _, auctioneer, locations, bids, _ = _setup_round(bid_rows, cells)
    with pytest.raises(RuntimeError):
        auctioneer.channel_rankings()
    auctioneer.receive_bids(bids)
    rankings = auctioneer.channel_rankings()
    assert len(rankings) == 2
    assert rankings[0][0] == [0]  # bidder 0 holds the channel-0 maximum


def test_conflict_graph_property():
    _, auctioneer, locations, _, _ = _setup_round([[10, 0], [3, 8]], [(0, 0), (1, 1)])
    with pytest.raises(RuntimeError):
        auctioneer.conflict_graph
    auctioneer.receive_locations(locations)
    assert auctioneer.conflict_graph.are_conflicting(0, 1)


def test_invalid_channel_count():
    with pytest.raises(ValueError):
        Auctioneer(0, PPBS)


def test_allocation_refuses_a_conflict_graph_smaller_than_the_bid_table():
    # A graph over fewer SUs reads as "no conflicts" for the rest, so all
    # three co-located bidders would win channel 0 together.
    bid_rows = [[10, 0], [9, 0], [8, 0]]
    cells = [(0, 0), (0, 1), (1, 0)]
    _, auctioneer, locations, bids, rng = _setup_round(bid_rows, cells)
    auctioneer.receive_locations(locations[:1])
    auctioneer.receive_bids(bids)
    with pytest.raises(ValueError, match="conflict graph covers 1 SUs, bid table 3"):
        auctioneer.run_allocation(rng)


@pytest.mark.parametrize("name", ["ppbs", "bloom"])
def test_every_scheme_refuses_bid_submissions_that_are_not_dense(name):
    # Allocation and charging address a bidder by its slot, so a win on
    # slot 0 must be the win of the SU that sent slot 0's bids.
    scheme = get_scheme(name)
    _, keyring, scale = TrustedThirdParty.setup(b"auctioneer-test", 2, bmax=30)
    rng = random.Random(0)
    subs = [scheme.make_bids(uid, [10, 3], keyring, scale, rng)[0] for uid in (7, 3)]
    auctioneer = Auctioneer(2, scheme)
    with pytest.raises(ValueError, match="dense: slot 0 holds user 7"):
        auctioneer.receive_bids(subs)
    with pytest.raises(ValueError, match="at least one"):
        auctioneer.receive_bids([])
