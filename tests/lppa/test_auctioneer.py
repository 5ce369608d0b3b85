"""The auctioneer's keyless steps: a full round, refusals, no key material."""

import ast
import inspect
import random

import pytest

from repro.lppa import auctioneer
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
    locations = [
        submit_location(i, cell, keyring.g0, GRID, 4)
        for i, cell in enumerate(cells)
    ]
    bids = [
        submit_bids_advanced(i, row, keyring, scale, rng)[0]
        for i, row in enumerate(bid_rows)
    ]
    return ttp, locations, bids, rng


def test_full_round():
    bid_rows = [[10, 0], [3, 8], [0, 5]]
    cells = [(0, 0), (10, 10), (1, 1)]
    ttp, locations, bids, rng = _setup_round(bid_rows, cells)
    conflict = auctioneer.conflict_graph(PPBS, locations)
    auctioneer.check_bid_submissions(bids, 2)
    rankings = auctioneer.channel_rankings(PPBS, bids)
    assignments = auctioneer.allocate(rankings, len(bids), conflict, rng)
    decisions = ttp.process_batch(auctioneer.charge_material(assignments, bids))
    outcome = auctioneer.assemble_outcome(assignments, decisions, n_users=3)
    assert outcome.n_users == 3
    assert [(w.bidder, w.channel) for w in outcome.wins] == [
        (a.bidder, a.channel) for a in assignments
    ]
    for win in outcome.wins:
        if win.valid:
            assert win.charge == bid_rows[win.bidder][win.channel]
        else:
            assert bid_rows[win.bidder][win.channel] == 0


def test_conflicting_submission_width_rejected():
    _, keyring, scale = TrustedThirdParty.setup(b"auctioneer-test", 1, bmax=30)
    for name in ("ppbs", "bloom"):
        scheme = get_scheme(name)
        subs = [scheme.make_bids(0, [10], keyring, scale, random.Random(0))[0]]
        with pytest.raises(ValueError, match="covers 1 channels, expected 3"):
            auctioneer.check_bid_submissions(subs, 3)


def test_rankings_available_after_bids():
    bid_rows = [[10, 0], [3, 8]]
    cells = [(0, 0), (10, 10)]
    _, _, bids, _ = _setup_round(bid_rows, cells)
    rankings = auctioneer.channel_rankings(PPBS, bids)
    assert len(rankings) == 2
    assert rankings[0][0] == [0]  # bidder 0 holds the channel-0 maximum


def test_conflict_graph_property():
    _, locations, _, _ = _setup_round([[10, 0], [3, 8]], [(0, 0), (1, 1)])
    graph = auctioneer.conflict_graph(PPBS, locations)
    assert graph.n_users == 2
    assert graph.are_conflicting(0, 1)


def test_allocation_refuses_a_conflict_graph_smaller_than_the_bid_table():
    # A graph over fewer SUs reads as "no conflicts" for the rest, so all
    # three co-located bidders would win channel 0 together.
    bid_rows = [[10, 0], [9, 0], [8, 0]]
    cells = [(0, 0), (0, 1), (1, 0)]
    _, locations, bids, rng = _setup_round(bid_rows, cells)
    conflict = auctioneer.conflict_graph(PPBS, locations[:1])
    rankings = auctioneer.channel_rankings(PPBS, bids)
    with pytest.raises(ValueError, match="conflict graph covers 1 SUs, bid table 3"):
        auctioneer.allocate(rankings, len(bids), conflict, rng)


@pytest.mark.parametrize("name", ["ppbs", "bloom"])
def test_every_scheme_refuses_bid_submissions_that_are_not_dense(name):
    # Allocation and charging address a bidder by its slot, so a win on
    # slot 0 must be the win of the SU that sent slot 0's bids.
    scheme = get_scheme(name)
    _, keyring, scale = TrustedThirdParty.setup(b"auctioneer-test", 2, bmax=30)
    rng = random.Random(0)
    subs = [scheme.make_bids(uid, [10, 3], keyring, scale, rng)[0] for uid in (7, 3)]
    with pytest.raises(ValueError, match="dense: slot 0 holds user 7"):
        auctioneer.check_bid_submissions(subs, 2)
    with pytest.raises(ValueError, match="at least one"):
        auctioneer.check_bid_submissions([], 2)


def test_the_auctioneer_holds_no_key_material():
    # The module imports neither the key ring nor the TTP...
    tree = ast.parse(inspect.getsource(auctioneer))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "repro.crypto.keys" not in imported
    assert not {"KeyRing", "TrustedThirdParty", "generate_keyring"} & imported
    # ...and no step takes a key ring.
    for name in auctioneer.__all__:
        params = inspect.signature(getattr(auctioneer, name)).parameters.values()
        for param in params:
            assert "key" not in param.name.lower(), (name, param.name)
            assert "KeyRing" not in str(param.annotation), (name, param.name)
