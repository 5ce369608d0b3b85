"""Instrumentation wiring: the protocol and engine record what they should."""

import random

from repro import obs
from repro.experiments.engine import run_sweep
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.session import run_lppa_auction

PHASES = ("location_submission", "bid_submission", "psd_allocation", "ttp_charging")


def _session_round(small_db, small_users, *, seed=7):
    return run_lppa_auction(
        small_users[:10],
        small_db.coverage.grid,
        two_lambda=6,
        bmax=127,
        rng=random.Random(seed),
    )


def test_session_records_phases_and_crypto(small_db, small_users):
    from repro.crypto.cache import get_mask_cache

    # A warm masked-digest cache (earlier tests, same seeds) would satisfy
    # the round without any HMAC work; this test asserts attribution of
    # the work itself.
    get_mask_cache().clear()
    with obs.collecting() as registry:
        _session_round(small_db, small_users)
    timers = registry.timers
    for phase in PHASES:
        assert f"phase/{phase}" in timers, phase
    totals = registry.totals()
    assert totals["crypto.hmac"] > 0
    assert totals["lppa.location_submissions"] == 10
    assert totals["lppa.bid_submissions"] == 10
    assert totals["lppa.location_bytes"] > 0
    assert totals["lppa.bid_bytes"] > 0
    assert totals["lppa.framed_bytes"] > totals["lppa.bid_bytes"]
    assert totals["lppa.rounds"] == 1
    # HMAC work is attributed to the phase that performs it.
    counters = registry.counters
    assert counters["bid_submission/crypto.hmac"] > 0
    assert counters["ttp_charging/ttp.charges"] >= 1


def test_fastsim_records_same_phase_keys_without_crypto(small_users):
    with obs.collecting() as registry:
        run_fast_lppa(
            small_users[:10],
            two_lambda=6,
            bmax=127,
            rng=random.Random(7),
        )
    timers = registry.timers
    for phase in PHASES:
        assert f"phase/{phase}" in timers, phase
    totals = registry.totals()
    assert totals["lppa.fast_rounds"] == 1
    assert "crypto.hmac" not in totals  # integer-level simulation


def test_metrics_collection_does_not_change_results(small_db, small_users):
    plain = _session_round(small_db, small_users)
    with obs.collecting():
        observed = _session_round(small_db, small_users)
    assert observed.outcome.wins == plain.outcome.wins
    assert observed.total_bytes == plain.total_bytes
    assert observed.conflict_graph.edges == plain.conflict_graph.edges


def test_engine_records_sweep_rollups():
    with obs.collecting() as registry:
        results = run_sweep(abs, [-1, -2, -3], name="unit")
    assert results == [1, 2, 3]
    assert registry.counters["engine.tasks"] == 3
    assert registry.counters["engine.sweeps"] == 1
    timers = registry.timers
    assert timers["engine.sweep.unit"].count == 1
    assert timers["engine.task.unit"].count == 3


def test_engine_silent_without_registry():
    assert run_sweep(abs, [-5], name="unit") == [5]
    assert obs.get_active() is None
