"""The soak harness: deterministic churn, differential equivalence, history.

The acceptance test for the epoch service lives here: a 5-epoch networked
run with join/leave churn in which every full-participation epoch is
bit-identical to a single-round in-process session over that epoch's
final membership.
"""

import asyncio

import pytest

from repro import obs
from repro.service.membership import MembershipDelta
from repro.service.soak import SoakConfig, churn_plan, run_soak
from repro.service.store import load_manifest, validate_run

#: Seed chosen so the CI-sized plan below actually churns (joins AND
#: leaves non-zero) — asserted by test_churn_plan_actually_churns.
SOAK = dict(
    population=9,
    initial_members=6,
    epochs=5,
    n_channels=6,
    seed=3,
    join_rate=1.0,
    leave_rate=1.0,
    check_equivalence=True,
)


# -- the churn plan -----------------------------------------------------------


def test_churn_plan_is_deterministic():
    config = SoakConfig(**SOAK)
    assert churn_plan(config) == churn_plan(config)


def test_churn_plan_epoch_zero_is_always_empty():
    assert churn_plan(SoakConfig(**SOAK))[0] == MembershipDelta()


def test_churn_plan_actually_churns():
    deltas = churn_plan(SoakConfig(**SOAK))
    assert sum(len(d.joins) for d in deltas) > 0
    assert sum(len(d.leaves) for d in deltas) > 0


def test_churn_plan_stays_within_the_population():
    config = SoakConfig(**{**SOAK, "epochs": 12, "seed": 11})
    members = set(range(config.n_initial))
    for delta in churn_plan(config):
        assert set(delta.leaves) <= members
        assert not set(delta.joins) & members
        members = (members - set(delta.leaves)) | set(delta.joins)
        assert members
        assert members <= set(range(config.population))


# -- config validation --------------------------------------------------------


def test_soak_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SoakConfig(population=1)
    with pytest.raises(ValueError):
        SoakConfig(join_rate=-1.0)
    with pytest.raises(ValueError):
        SoakConfig(epochs=3, warmup_epochs=3)
    with pytest.raises(ValueError):
        SoakConfig(population=4, initial_members=5)
    with pytest.raises(ValueError):
        SoakConfig(transport="carrier-pigeon")


# -- the acceptance run -------------------------------------------------------


def _run(**overrides):
    return asyncio.run(run_soak(SoakConfig(**{**SOAK, **overrides})))


def test_soak_epochs_are_bit_identical_to_in_process_sessions():
    """5 networked epochs with churn; every one (full participation — no
    stragglers are induced here) must bit-equal `run_lppa_auction` over
    that epoch's final membership.  `run_soak`'s `_check` raises
    `EquivalenceFailure` on any divergence, so completing the run with
    every record marked equivalent IS the acceptance criterion."""
    report = _run()
    assert report.epochs_completed == 5
    assert report.joins > 0 and report.leaves > 0
    assert all(r.straggler_logicals == () for r in report.records)
    assert all(r.equivalent for r in report.records)
    assert report.equivalence_checked == 5
    # Churn rotated the ring: the last epoch runs a later membership version.
    assert report.records[-1].version > 0


def test_equivalence_reference_stays_out_of_the_measurement():
    """The per-epoch reference round is verification: the soak's registry
    and trace count the networked epochs alone."""
    registry, recorder = obs.MetricsRegistry(), obs.TraceRecorder()
    with obs.collecting(registry, trace=recorder):
        report = _run()
    assert report.equivalence_checked == SOAK["epochs"]
    assert registry.totals()["lppa.rounds"] == SOAK["epochs"]
    rankings = [e for e in recorder.events() if e["type"] == "ranking"]
    assert len(rankings) == SOAK["epochs"] * SOAK["n_channels"]


def test_soak_is_deterministic_across_runs():
    def fingerprint(report):
        return [
            (
                r.epoch,
                r.version,
                r.members,
                r.report.result.outcome.sum_of_winning_bids(),
                r.report.result.framed_bytes,
            )
            for r in report.records
        ]

    assert fingerprint(_run()) == fingerprint(_run())


def test_soak_report_has_per_epoch_and_steady_histograms():
    report = _run(epochs=3, warmup_epochs=1)
    loadgen = report.loadgen
    assert set(loadgen.epoch_hists) == {0, 1, 2}
    steady = loadgen.steady_histogram(1)
    assert steady is not None
    assert steady.count == sum(
        loadgen.epoch_hists[e].count for e in (1, 2)
    )
    # Warm-up epoch samples are excluded from the steady distribution.
    assert steady.count < loadgen.latency_hist.count


def test_every_participant_adds_one_latency_sample_per_epoch():
    """Each SU that played an epoch records exactly one client-side sample
    in that epoch's histogram, a leaver's last epoch included: dismissing
    a seat must not drop the RESULT already on its wire."""
    report = _run()
    assert report.leaves > 0
    for record in report.records:
        assert report.loadgen.epoch_hists[record.epoch].count == len(
            record.report.participants
        )


def test_soak_over_tcp_persists_a_validating_run_dir(tmp_path):
    run_dir = tmp_path / "soak"
    report = _run(transport="tcp", run_dir=str(run_dir))
    assert report.run_dir == run_dir
    assert validate_run(run_dir) == []
    manifest = load_manifest(run_dir)
    assert manifest["summary"]["epochs"] == 5
    assert manifest["summary"]["equivalence_checked"] == 5
    assert manifest["config"]["transport"] == "tcp"
    assert [e["index"] for e in manifest["epochs"]] == list(range(5))
    assert all(e["summary"]["equivalent"] for e in manifest["epochs"])
