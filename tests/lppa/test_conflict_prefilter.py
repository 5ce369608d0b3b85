"""The in-process round's prefiltered conflict graph == the all-pairs scan.

An in-process round holds the plaintext cells, so it tests only the
grid-bucket candidate pairs (:func:`repro.geo.buckets.candidate_pairs`).
The networked auctioneer has no cells and tests every pair.  Both must
give the same graph; these tests pin that at a few hundred SUs, with pairs
placed to straddle bucket edges, at two interference ranges, and check
that ``repro scale --verify`` makes the same comparison.
"""

import random

import pytest

from repro import obs
from repro.auction.bidders import SecondaryUser
from repro.experiments.scale import run_scale_point
from repro.geo.grid import GridSpec
from repro.lppa.location import build_private_conflict_graph, submit_locations
from repro.lppa.session import run_lppa_auction
from repro.lppa.ttp import TrustedThirdParty

BMAX = 63
N_CHANNELS = 3
SEED = b"prefilter-test"
GRID = GridSpec(rows=120, cols=120)


def make_users(two_lambda, n_random=300):
    """Random SUs plus pairs just inside and just outside 2λ across the
    edges of the buckets (side 2λ) the prefilter groups cells into."""
    rng = random.Random(two_lambda)
    cells = [
        (rng.randrange(GRID.rows), rng.randrange(GRID.cols))
        for _ in range(n_random)
    ]
    for k in range(1, 6):
        edge = k * 3 * two_lambda - 1  # last cell of bucket 3k - 1
        cells += [
            (edge, edge),
            (edge + two_lambda - 1, edge + two_lambda - 1),  # conflicts
            (edge + two_lambda, edge),                       # does not
            (edge, edge + 1),
        ]
    return [
        SecondaryUser(
            user_id=i,
            cell=cell,
            beta=1.0,
            bids=tuple(rng.randrange(0, BMAX + 1) for _ in range(N_CHANNELS)),
        )
        for i, cell in enumerate(cells)
    ]


def crypto_round(users, two_lambda, **options):
    return run_lppa_auction(
        users, GRID, two_lambda=two_lambda, bmax=BMAX, seed=SEED,
        entropy=b"prefilter-test", **options,
    )


@pytest.mark.parametrize("two_lambda", [4, 7])
def test_round_graph_equals_all_pairs_masked_scan(two_lambda):
    users = make_users(two_lambda)
    with obs.collecting() as registry:
        result = crypto_round(users, two_lambda)
    _, keyring, _ = TrustedThirdParty.setup(SEED, N_CHANNELS, bmax=BMAX)
    submissions = submit_locations(
        [u.cell for u in users], keyring.g0, GRID, two_lambda
    )
    assert result.conflict_graph == build_private_conflict_graph(submissions)
    assert result.conflict_graph.n_edges > 0
    # The round really took the prefiltered path: far fewer tests than
    # the N(N-1)/2 pairs of the all-pairs scan.
    checks = sum(
        value for key, value in registry.counters.items()
        if "location_submission/" in key
        and key.endswith("prefix.membership_checks")
    )
    assert 0 < checks < len(users) * (len(users) - 1) // 2 // 4


def test_shards_one_is_the_default_path():
    users = make_users(4, n_random=40)
    assert crypto_round(users, 4, shards=1) == crypto_round(users, 4)


@pytest.mark.parametrize("shards", [0, 2, 8])
def test_process_sharding_is_gone(shards):
    with pytest.raises(ValueError, match="process sharding was removed"):
        crypto_round(make_users(4, n_random=4), 4, shards=shards)


def test_scale_verify_compares_against_all_pairs_scan():
    assert run_scale_point(300, verify=True).verified is True
    assert run_scale_point(300).verified is None
