"""Micro-benchmarks of the protocol hot paths.

These are real pytest-benchmark measurements (many rounds), covering the
operations whose costs the paper argues are small: HMAC masking, range
covers, masked max-finding, private conflict-graph construction, and a full
cryptographic auction round.
"""

import random

import pytest

from repro.crypto.backend import hmac_digest, hmac_digest_batch
from repro.crypto.cache import get_mask_cache
from repro.crypto.hmac_impl import hmac_sha256
from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.location import build_private_conflict_graph, submit_location
from repro.lppa.session import run_lppa_auction
from repro.prefix.membership import find_maxima, mask_range, mask_value

GRID = GridSpec(rows=100, cols=100)

KEY = b"key-material-16b"
#: 128 prefix-sized messages under one key (a bid table's worth).
BATCH = [b"prefix-payload-%04d" % i for i in range(128)]


def test_bench_hmac(benchmark):
    benchmark(hmac_digest, KEY, b"prefix-payload")


def test_bench_hmac_reference(benchmark):
    """The from-scratch HMAC the entry points are tested against."""
    benchmark(hmac_sha256, KEY, b"prefix-payload")


def test_bench_hmac_batch_128(benchmark):
    result = benchmark(hmac_digest_batch, KEY, BATCH)
    assert len(result) == 128


def test_bench_hmac_batch_128_reference(benchmark):
    result = benchmark(lambda: [hmac_sha256(KEY, m) for m in BATCH])
    assert len(result) == 128


def test_bench_mask_value(benchmark):
    benchmark(mask_value, b"key", 1234, 12)


def test_bench_mask_range_padded(benchmark):
    rng = random.Random(0)
    benchmark(
        lambda: mask_range(b"key", 1234, 4095, 12, pad_to=22, rng=rng)
    )


def test_bench_masked_max_finding(benchmark):
    rng = random.Random(1)
    bids = [rng.randrange(4096) for _ in range(50)]
    families = [mask_value(b"key", b, 12) for b in bids]
    tails = [mask_range(b"key", b, 4095, 12) for b in bids]
    result = benchmark(find_maxima, families, tails)
    assert result


def test_bench_advanced_submission(benchmark):
    keyring = generate_keyring(b"bench", 10, rd=4, cr=8)
    scale = BidScale(bmax=127, rd=4, cr=8)
    rng = random.Random(2)
    bids = [rng.randrange(128) for _ in range(10)]
    benchmark(lambda: submit_bids_advanced(0, bids, keyring, scale, rng))


def test_bench_private_conflict_graph(benchmark):
    rng = random.Random(3)
    cells = GRID.random_cells(rng, 40)
    submissions = [
        submit_location(i, cell, b"g0", GRID, 6) for i, cell in enumerate(cells)
    ]
    graph = benchmark(build_private_conflict_graph, submissions)
    assert graph.n_users == 40


def test_bench_full_crypto_round(benchmark, small_db_for_bench):
    database, users = small_db_for_bench
    benchmark.pedantic(
        lambda: run_lppa_auction(
            users,
            database.coverage.grid,
            two_lambda=6,
            bmax=127,
            entropy=4,
        ),
        rounds=3,
        iterations=1,
    )


def test_bench_full_crypto_round_cold_cache(benchmark, small_db_for_bench):
    """Same round with the masked-digest cache cleared before every run."""
    database, users = small_db_for_bench

    def _cold_round():
        get_mask_cache().clear()
        return run_lppa_auction(
            users,
            database.coverage.grid,
            two_lambda=6,
            bmax=127,
            entropy=4,
        )

    benchmark.pedantic(_cold_round, rounds=3, iterations=1)


@pytest.fixture(scope="module")
def small_db_for_bench():
    from repro.auction.bidders import generate_users
    from repro.geo.datasets import make_database

    database = make_database(3, n_channels=10)
    users = generate_users(database, 25, random.Random(5))
    return database, users


def test_bench_paillier_encrypt(benchmark):
    from repro.crypto.paillier import generate_paillier_keypair

    key = generate_paillier_keypair(512, random.Random(7))
    rng = random.Random(8)
    benchmark(lambda: key.public.encrypt(1234, rng))


def test_bench_paillier_decrypt(benchmark):
    from repro.crypto.paillier import generate_paillier_keypair

    key = generate_paillier_keypair(512, random.Random(7))
    ciphertext = key.public.encrypt(1234, random.Random(8))
    result = benchmark(key.decrypt, ciphertext)
    assert result == 1234


def test_bench_ope_setup_and_encrypt(benchmark):
    from repro.crypto.ope import OrderPreservingEncoder

    encoder = OrderPreservingEncoder(b"bench-key", 1056)
    value = benchmark(encoder.encrypt, 1000)
    assert value > 0


def test_bench_metrics_artifact(small_db_for_bench, bench_artifact):
    """Collect obs metrics for a cold and a warm full crypto round.

    This is the artifact the CI ``bench-artifacts`` job diffs against
    ``benchmarks/baselines/BENCH_micro_protocol.json``: its counters and
    gauges (crypto-op counts, cache occupancy) are deterministic and must
    match the baseline exactly.
    """
    from repro import obs

    database, users = small_db_for_bench
    # Counters must not depend on what ran earlier in the process: start
    # from a cold masked-digest cache.  The first timed round is the cold
    # path; the second, same-seed round shows the warm-cache speedup.
    get_mask_cache().clear()
    with obs.collecting() as registry:
        with obs.timer("bench.full_crypto_round"):
            result = run_lppa_auction(
                users,
                database.coverage.grid,
                two_lambda=6,
                bmax=127,
                entropy=4,
            )
        with obs.timer("bench.full_crypto_round_warm"):
            run_lppa_auction(
                users,
                database.coverage.grid,
                two_lambda=6,
                bmax=127,
                entropy=4,
            )
    totals = registry.totals()
    assert totals["crypto.hmac"] > 0
    assert totals["lppa.bid_submissions"] == 2 * len(users)
    # The warm round re-masks nothing that the cold round already masked.
    assert totals["crypto.mask_cache.hits"] > 0
    assert result.total_bytes > 0
    bench_artifact(
        "micro_protocol",
        registry,
        config={"users": len(users), "channels": 10, "area": 3, "bmax": 127},
    )


def test_bench_codec_roundtrip(benchmark):
    from repro.crypto.keys import generate_keyring
    from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
    from repro.lppa.codec import decode_bids, encode_bids

    keyring = generate_keyring(b"bench-codec", 10, rd=4, cr=8)
    scale = BidScale(bmax=127, rd=4, cr=8)
    sub, _ = submit_bids_advanced(
        0, [rng_b % 128 for rng_b in range(10)], keyring, scale, random.Random(9)
    )
    result = benchmark(lambda: decode_bids(encode_bids(sub)))
    assert result == sub


def test_bench_trace_artifact(small_db_for_bench, bench_artifact):
    """Flight-recorder profile of the full crypto round, as a diffable artifact.

    Records per-phase event counts and total wire bytes into counters — all
    deterministic for a fixed seed — so CI can diff
    ``BENCH_micro_protocol_trace.json`` against the committed baseline and
    catch silent changes in what the protocol emits (an extra message, a
    byte of framing, a lost span) even when wall time hides them.
    """
    from repro import obs
    from repro.obs import trace

    database, users = small_db_for_bench
    with obs.tracing() as recorder:
        run_lppa_auction(
            users,
            database.coverage.grid,
            two_lambda=6,
            bmax=127,
            entropy=4,
        )
    summary = recorder.summary()
    registry = obs.MetricsRegistry()
    for event_type, count in summary["by_type"].items():
        registry.count(f"trace.events.{event_type}", count)
    for kind, count in summary["messages_by_kind"].items():
        registry.count(f"trace.messages.{kind}", count)
    for kind, payload in summary["payload_bytes_by_kind"].items():
        registry.count(f"trace.payload_bytes.{kind}", payload)
    registry.count("trace.wire_bytes.total", summary["wire_size_total"])
    registry.count("trace.rounds", summary["rounds"])
    registry.count("trace.dropped", recorder.dropped)

    assert registry.counters["trace.messages.bid_submission"] == len(users)
    assert registry.counters["trace.dropped"] == 0
    assert trace.get_active() is None
    bench_artifact(
        "micro_protocol_trace",
        registry,
        config={"users": len(users), "channels": 10, "area": 3, "bmax": 127},
    )
