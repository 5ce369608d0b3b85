"""Instrumentation wiring: the protocol and engine record what they should."""

import gc

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
        entropy=seed,
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
            entropy=7,
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


def test_collector_passes_are_timed_under_the_phase_they_land_in():
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        with obs.phase("psd_allocation"):
            gc.collect()
        gc.collect()
    timers = registry.timers
    assert timers["psd_allocation/runtime.gc"].count == 1
    assert timers["runtime.gc"].count == 1
    # Pass counts depend on the interpreter: no counter, only the timer.
    assert not any("runtime.gc" in key for key in registry.counters)


def test_collector_hook_lives_only_inside_the_outermost_collecting_block():
    outer, inner = obs.MetricsRegistry(), obs.MetricsRegistry()
    before = list(gc.callbacks)
    with obs.collecting(outer):
        installed = len(gc.callbacks)
        with obs.collecting(inner):
            assert len(gc.callbacks) == installed
            gc.collect()
        assert len(gc.callbacks) == installed
    assert gc.callbacks == before
    gc.collect()  # no block open: nobody records it
    assert inner.timers["runtime.gc"].count == 1
    assert "runtime.gc" not in outer.timers


def test_snapshot_survives_a_collector_pass_adding_a_timer_key(monkeypatch):
    registry = obs.MetricsRegistry()
    as_dict = obs.TimerStat.as_dict

    def as_dict_after_a_pass(stat):
        gc.collect()  # records a new ``unit/runtime.gc`` key mid-snapshot
        return as_dict(stat)

    with obs.collecting(registry):
        registry.record_seconds("unit.timer", 0.001)
        with obs.phase("unit"):
            monkeypatch.setattr(obs.TimerStat, "as_dict", as_dict_after_a_pass)
            snapshot = registry.snapshot()
    assert "unit/runtime.gc" in registry.timers
    assert "unit.timer" in snapshot["timers"]
