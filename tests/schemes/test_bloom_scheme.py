"""The Bloom-filter scheme end-to-end, and the compare harness around it.

The scheme's two correctness anchors:

* the Bloom conflict graph equals the plaintext interference graph (the
  filters are sized so the box-membership test has no false positives at
  experiment scale), and
* the shared integer value pipeline makes its auction *outcome* identical
  to PPBS on the same entropy — only the wire format and crypto differ.
"""

import dataclasses
import random

import pytest

from repro.auction.conflict import build_conflict_graph
from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa.bids_ope import reset_ope_cache, submit_bids_ope
from repro.lppa.location_bloom import (
    BloomFilter,
    bloom_params,
    build_bloom_conflict_graph,
    cell_tokens,
    submit_locations_bloom,
)
from repro.lppa.session import run_lppa_auction
from repro.lppa.ttp import ChargeStatus, TrustedThirdParty
from repro.net.loadgen import (
    LoadgenConfig,
    build_population,
    protocol_seed,
    round_entropy,
)
from repro.obs.trace import TraceRecorder, recording

G0 = b"\x11" * 32
GRID = GridSpec(rows=24, cols=24, cell_km=1.0)
TWO_LAMBDA = 4

SMALL = dict(n_users=6, n_channels=4, rounds=1, seed=3, area=3, grid_n=12)


@pytest.fixture(autouse=True)
def _fresh_ope_cache():
    reset_ope_cache()
    yield
    reset_ope_cache()


# --- location layer ------------------------------------------------------------


def test_bloom_filter_contains_every_inserted_token():
    _, n_bits, n_hashes = bloom_params(TWO_LAMBDA)
    tokens = cell_tokens([(r, c) for r in range(8) for c in range(8)], G0)
    filt = BloomFilter.build(tokens, n_bits, n_hashes)
    assert all(filt.contains(token) for token in tokens)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bloom_conflict_graph_equals_plaintext(seed):
    """The one-direction membership test reproduces the plaintext graph."""
    rng = random.Random(seed)
    cells = GRID.random_cells(rng, 20)
    plaintext = build_conflict_graph(cells, TWO_LAMBDA)
    private = build_bloom_conflict_graph(
        submit_locations_bloom(cells, G0, GRID, TWO_LAMBDA)
    )
    assert set(private.edges) == set(plaintext.edges)


def test_bloom_conflict_graph_misses_no_plaintext_edge_at_300_sus():
    """The guarantee is one-sided: every plaintext edge is in the Bloom
    graph; spurious edges may join it at the filter's false-positive rate."""
    grid = GridSpec(rows=100, cols=100)
    cells = grid.random_cells(random.Random(300), 300)
    plaintext = build_conflict_graph(cells, 6)
    private = build_bloom_conflict_graph(submit_locations_bloom(cells, G0, grid, 6))
    assert plaintext.edges
    assert set(plaintext.edges) <= set(private.edges)


# --- shared value pipeline: outcome identical to ppbs --------------------------


def test_bloom_session_outcome_identical_to_ppbs():
    config = LoadgenConfig(**SMALL)
    grid, users = build_population(config)

    def run(scheme):
        return run_lppa_auction(
            users,
            grid,
            two_lambda=config.two_lambda,
            bmax=config.bmax,
            seed=protocol_seed(config.seed),
            entropy=round_entropy(config.seed, 0),
            scheme=scheme,
        )

    ppbs = run("ppbs")
    bloom = run("bloom")
    assert bloom.outcome.wins == ppbs.outcome.wins
    assert set(bloom.conflict_graph.edges) == set(ppbs.conflict_graph.edges)
    assert bloom.rankings == ppbs.rankings
    assert (
        bloom.outcome.sum_of_winning_bids()
        == ppbs.outcome.sum_of_winning_bids()
    )


def test_bloom_session_trace_passes_strict_comm_audit():
    from repro.analysis.trace_audit import audit_comm_cost

    config = LoadgenConfig(**SMALL)
    grid, users = build_population(config)
    recorder = TraceRecorder()
    with recording(recorder):
        run_lppa_auction(
            users,
            grid,
            two_lambda=config.two_lambda,
            bmax=config.bmax,
            seed=protocol_seed(config.seed),
            entropy=round_entropy(config.seed, 0),
            scheme="bloom",
        )
    report = audit_comm_cost(recorder.events(), strict=True)
    assert report.messages_checked > 0
    assert all(audit.exact for audit in report.rounds)


# --- TTP charging on OPE bids --------------------------------------------------


def test_ttp_charges_valid_zero_and_tampered_ope_bids():
    ttp, keyring, scale = TrustedThirdParty.setup(
        b"bloom-ttp-test", 3, bmax=30
    )
    submission, _ = submit_bids_ope(
        0, [7, 0, 15], keyring, scale, random.Random(1)
    )

    valid = ttp.process_charge(0, submission.channel_bids[0])
    assert valid.status is ChargeStatus.VALID
    assert valid.charge == 7

    zero = ttp.process_charge(1, submission.channel_bids[1])
    assert zero.status is ChargeStatus.INVALID_ZERO
    assert zero.charge == 0

    # Seal one price to the auctioneer, another to the TTP: cheating.
    honest = submission.channel_bids[2]
    tampered = dataclasses.replace(honest, ope_value=honest.ope_value + 1)
    cheat = ttp.process_charge(2, tampered)
    assert cheat.status is ChargeStatus.CHEATING
    assert cheat.charge == 0


# --- compare harness -----------------------------------------------------------


def test_run_compare_smoke_over_net_runtime():
    """One-round ppbs-vs-bloom through the real harness: same auction,
    same revenue and replay leakage, different wire/crypto profile."""
    from repro.experiments.compare import CompareConfig, run_compare

    config = CompareConfig(check_equivalence=True, **SMALL)
    ppbs, bloom = run_compare(config)
    assert (ppbs.scheme, bloom.scheme) == ("ppbs", "bloom")
    for m in (ppbs, bloom):
        assert m.equivalence_checked == 1
        assert m.comm_audit_exact
        assert m.wire_bytes > 0
    assert bloom.revenue == ppbs.revenue
    assert bloom.bcm_mean_cells == ppbs.bcm_mean_cells
    assert bloom.bpm_mean_cells == ppbs.bpm_mean_cells
    assert bloom.wire_bytes < ppbs.wire_bytes
    assert bloom.crypto_ops() != ppbs.crypto_ops()


def test_compare_config_rejects_bad_inputs():
    from repro.experiments.compare import CompareConfig, run_compare

    with pytest.raises(ValueError):
        CompareConfig(schemes=())
    with pytest.raises(ValueError):
        CompareConfig(schemes=("ppbs", "ppbs"))
    with pytest.raises(ValueError):
        CompareConfig(rounds=0)
    with pytest.raises(ValueError, match="unknown privacy scheme"):
        run_compare(CompareConfig(schemes=("ppbs", "nope")))
