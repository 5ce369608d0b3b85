"""Micro-benchmarks of the network runtime hot paths.

Two costs the protocol runtime adds on top of the session core: the frame
envelope (6-byte header + codec payload on every message) and the asyncio
round trip itself (server state machine, in-memory transport, TTP service).
Both are measured here, and the round-trip artifact pins the deterministic
counters CI diffs against ``benchmarks/baselines/BENCH_net_roundtrip.json``.
"""

import asyncio
import random

from repro.crypto.cache import MaskCache, set_mask_cache
from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.codec import encode_bids, encode_location
from repro.lppa.location import submit_location
from repro.net.frames import FrameType, decode_frame, encode_frame
from repro.net.loadgen import (
    LoadgenConfig,
    protocol_seed,
    round_entropy,
    run_loadgen,
)

_KEYRING = generate_keyring(b"bench-net", 6, rd=4, cr=8)
_SCALE = BidScale(bmax=127, rd=4, cr=8)


def _bids_payload() -> bytes:
    rng = random.Random(11)
    sub, _ = submit_bids_advanced(
        0, [rng.randrange(128) for _ in range(6)], _KEYRING, _SCALE, rng
    )
    return encode_bids(sub)


def _location_payload() -> bytes:
    from repro.geo.grid import GridSpec

    grid = GridSpec(rows=20, cols=20, cell_km=75.0 / 20)
    sub = submit_location(0, (3, 7), _KEYRING.g0, grid, 6)
    return encode_location(sub)


def test_bench_frame_envelope_bids(benchmark):
    """Frames/sec through the envelope: encode + strict decode of a BIDS frame."""
    payload = _bids_payload()
    frame_type, decoded = benchmark(
        lambda: decode_frame(encode_frame(FrameType.BIDS, payload), strict=True)
    )
    assert frame_type is FrameType.BIDS
    assert decoded == payload


def test_bench_frame_envelope_location(benchmark):
    payload = _location_payload()
    frame_type, decoded = benchmark(
        lambda: decode_frame(encode_frame(FrameType.LOCATION, payload), strict=True)
    )
    assert frame_type is FrameType.LOCATION
    assert decoded == payload


def test_bench_memory_round_latency(benchmark):
    """One full networked round over the in-memory transport.

    Everything the server does per round — collect, allocate, charge,
    broadcast — plus client-side masking, measured end to end.
    """
    config = LoadgenConfig(n_users=6, n_channels=6, rounds=1, seed=41)

    def one_round():
        return asyncio.run(run_loadgen(config))

    report = benchmark.pedantic(one_round, rounds=3, iterations=1)
    assert report.rounds_completed == 1
    assert report.stragglers == 0


def test_bench_net_roundtrip_artifact(bench_artifact):
    """Deterministic counters for a 2-round, 8-SU in-memory run.

    Frame counts, wire bytes, per-phase byte counters and TTP window usage
    are all functions of the seed, so CI can diff
    ``BENCH_net_roundtrip.json`` against the committed baseline and catch
    silent protocol growth (an extra frame, a wider envelope) even when
    wall time hides it.  The ``net.round`` timer rides along as a
    comparable latency baseline.
    """
    from repro import obs

    # Always-on TTP: scheduled windows tick on wall-clock sleeps, which
    # would make window counters timing-dependent and the diff flaky.
    config = LoadgenConfig(
        n_users=8, n_channels=6, rounds=2, seed=41,
        transport="memory", check_equivalence=True,
    )
    # The mask-cache gauges read the cache's size: start from an empty
    # cache so they do not depend on what ran earlier in the process.
    previous = set_mask_cache(MaskCache())
    try:
        with obs.collecting() as registry:
            report = asyncio.run(run_loadgen(config))
    finally:
        set_mask_cache(previous)
    registry.count("loadgen.wire_bytes", report.wire_bytes)
    registry.count("loadgen.rounds_completed", report.rounds_completed)

    totals = registry.totals()
    assert report.equivalence_checked == 2
    # The equivalence check replays every round in-process under its own
    # registry, so the lppa.* counters see the networked rounds alone.
    assert totals["lppa.rounds"] == 2
    assert totals["net.clients_joined"] == 8
    assert totals["lppa.bid_submissions"] == 16  # 8 SUs x 2 rounds
    assert report.wire_bytes > 0
    bench_artifact(
        "net_roundtrip",
        registry,
        config={
            "users": config.n_users,
            "channels": config.n_channels,
            "rounds": config.rounds,
            "seed": config.seed,
            "transport": config.transport,
            "entropy": [round_entropy(config.seed, r) for r in range(config.rounds)],
            "protocol_seed": protocol_seed(config.seed).decode(),
        },
    )
