"""A whole round's conflict graph == the all-pairs scan == the plaintext graph.

Every driver builds the graph from the masked conflict index (DESIGN.md
§9) and never reads plaintext cells.  These tests pin a full in-process
round at a few hundred SUs, with pairs placed just inside and just outside
``2λ`` across the edges of the plaintext grid buckets, at two interference
ranges, and check that ``repro scale --verify`` compares against the
independent plaintext graph and the ranking of the disclosed values.
"""

import random

import pytest

from repro import obs
from repro.auction.bidders import SecondaryUser
from repro.auction.conflict import build_conflict_graph
from repro.experiments.scale import format_scale_table, run_scale_point
from repro.geo.grid import GridSpec
from repro.lppa.location import coordinate_width, submit_locations
from repro.lppa.session import run_lppa_auction
from repro.lppa.ttp import TrustedThirdParty
from tests.lppa.oracles import pairwise_conflict_graph

BMAX = 63
N_CHANNELS = 3
SEED = b"prefilter-test"
GRID = GridSpec(rows=120, cols=120)


def make_users(two_lambda, n_random=300):
    """Random SUs plus pairs just inside and just outside 2λ across the
    edges of the plaintext grid buckets (side 2λ)."""
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
    assert result.conflict_graph == pairwise_conflict_graph(submissions)
    assert result.conflict_graph == build_conflict_graph(
        [u.cell for u in users], two_lambda
    )
    assert result.conflict_graph.n_edges > 0
    # The round took the index: one probe per family digest, no pair tests.
    location = {
        key.rsplit("/", 1)[1]: value
        for key, value in registry.counters.items()
        if "location_submission/" in key
    }
    family_size = coordinate_width(GRID, two_lambda) + 1
    assert location["prefix.index_probes"] == 2 * family_size * len(users)
    assert "prefix.membership_checks" not in location


def test_shards_one_is_the_default_path():
    users = make_users(4, n_random=40)
    assert crypto_round(users, 4, shards=1) == crypto_round(users, 4)


@pytest.mark.parametrize("shards", [0, 2, 8])
def test_process_sharding_is_gone(shards):
    with pytest.raises(ValueError, match="process sharding was removed"):
        crypto_round(make_users(4, n_random=4), 4, shards=shards)


def test_scale_verify_compares_against_plaintext_graph():
    assert run_scale_point(300, verify=True).verified is True
    assert run_scale_point(300).verified is None


def test_scale_verify_also_checks_the_psd_rankings(monkeypatch):
    from repro.auction.table import rank_values
    from repro.experiments import scale

    monkeypatch.setattr(scale, "rank_values", lambda values: rank_values(values)[::-1])
    assert run_scale_point(300, verify=True).verified is False


def test_scale_table_shows_peak_rss_per_point():
    point = run_scale_point(50)
    assert point.peak_rss_mib > 0
    header, row = format_scale_table([point]).splitlines()
    assert "peak RSS" in header and f"{point.peak_rss_mib:.0f} MiB" in row


def test_scale_table_shows_collector_time_per_point():
    point = run_scale_point(50)
    assert point.collector_wall_s >= 0
    header, row = format_scale_table([point]).splitlines()
    assert "collector" in header and f"{point.collector_wall_s:9.2f}s" in row
