"""The auctioneer's handling of TTP cheating verdicts."""

import random

import pytest

from repro.lppa import auctioneer
from repro.lppa.bids_advanced import submit_bids_advanced
from repro.lppa.bids_basic import encrypt_bid_value
from repro.lppa.location import submit_location
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.lppa.schemes.registry import get_scheme
from repro.lppa.ttp import TrustedThirdParty
from repro.geo.grid import GridSpec

PPBS = get_scheme("ppbs")

GRID = GridSpec(rows=10, cols=10, cell_km=1.0)


def test_cheating_winner_aborts_charging():
    """A bidder sealing a different price to the TTP is detected at
    charging time and the auctioneer refuses to assemble the outcome."""
    ttp, keyring, scale = TrustedThirdParty.setup(b"cheat", 1, bmax=30)
    rng = random.Random(0)

    honest, _ = submit_bids_advanced(1, [5], keyring, scale, rng)
    cheater_sub, _ = submit_bids_advanced(0, [20], keyring, scale, rng)
    cheaper = scale.expand(scale.offset_value(2), rng)
    forged = BidSubmission(
        user_id=0,
        channel_bids=(
            MaskedBid(
                family=cheater_sub.channel_bids[0].family,
                tail=cheater_sub.channel_bids[0].tail,
                ciphertext=encrypt_bid_value(keyring.gc, cheaper, rng),
            ),
        ),
    )

    conflict = auctioneer.conflict_graph(
        PPBS,
        [
            submit_location(0, (1, 1), keyring.g0, GRID, 2),
            submit_location(1, (8, 8), keyring.g0, GRID, 2),
        ],
    )
    bids = [forged, honest]
    auctioneer.check_bid_submissions(bids, 1)
    rankings = auctioneer.channel_rankings(PPBS, bids)
    assignments = auctioneer.allocate(rankings, len(bids), conflict, rng)
    decisions = ttp.process_batch(auctioneer.charge_material(assignments, bids))
    # The cheater masked 20 (wins the column) but sealed 2.
    with pytest.raises(RuntimeError, match="cheating"):
        auctioneer.assemble_outcome(assignments, decisions, n_users=2)
