"""EpochScheduler: entropy contract, delta sanitization, retirement, loop."""

import asyncio

import pytest

from repro.crypto.keys import generate_keyring
from repro.obs.artifact import load_artifact
from repro.net.loadgen import LoadgenConfig, _entropy, protocol_seed
from repro.net.transport import MemoryTransport
from repro.service.membership import MembershipDelta, MembershipManager
from repro.service.scheduler import (
    EpochConfig,
    EpochScheduler,
    service_entropy,
)
from repro.service.store import EpochStore, validate_run

from tests.net.test_faults import _make_client, _make_server

MASTER = b"net:1"


# -- the entropy contract -----------------------------------------------------


def test_service_entropy_is_a_pure_label():
    assert service_entropy(1, 0) == "service:1:0"
    assert service_entropy(42, 7) == "service:42:7"


def test_loadgen_service_scheme_matches_scheduler_entropy_bytes():
    """`repro loadgen --entropy service` must derive byte-identical labels
    to the epoch scheduler, or the cross-process differential check lies."""
    config = LoadgenConfig(seed=42, entropy_scheme="service")
    for epoch in range(5):
        assert (
            _entropy(config, epoch).encode()
            == service_entropy(config.seed, epoch).encode()
        )


# -- config validation --------------------------------------------------------


def test_epoch_config_rejects_nonsense():
    with pytest.raises(ValueError):
        EpochConfig(epochs=0)
    with pytest.raises(ValueError):
        EpochConfig(epochs=1, interval_s=-1.0)
    with pytest.raises(ValueError):
        EpochConfig(epochs=1, roster_timeout=0.0)
    with pytest.raises(ValueError):
        EpochConfig(epochs=1, retire_after=0)


# -- delta sanitization (no server needed) ------------------------------------


def _scheduler(members=range(4), *, plan=None, retire_after=None):
    membership = MembershipManager(
        8,
        initial_members=members,
        master_seed=MASTER,
        base_ring=generate_keyring(MASTER, 6),
    )
    config = EpochConfig(epochs=1, retire_after=retire_after)
    # The server is only touched inside _run_epoch; the sanitization and
    # straggler bookkeeping under test never reach it.
    return EpochScheduler(None, membership, config, plan=plan), membership


def test_epoch_delta_drops_inadmissible_planned_churn():
    scheduler, _ = _scheduler(
        members=(0, 1, 2),
        plan=lambda epoch: MembershipDelta(joins=(1, 5), leaves=(2, 7)),
    )
    delta = scheduler._epoch_delta(0)
    assert delta.joins == (5,)  # 1 already seated
    assert delta.leaves == (2,)  # 7 was never a member


def test_epoch_delta_merges_forced_retirements():
    scheduler, _ = _scheduler(members=(0, 1, 2))
    scheduler._forced_leaves = (1,)
    delta = scheduler._epoch_delta(0)
    assert delta.leaves == (1,)


def test_epoch_delta_never_empties_the_service():
    scheduler, _ = _scheduler(
        members=(0, 1),
        plan=lambda epoch: MembershipDelta(leaves=(0, 1)),
    )
    delta = scheduler._epoch_delta(0)
    assert delta.leaves == (1,)  # smallest member kept seated


def test_forced_leave_of_a_nonmember_is_dropped():
    scheduler, _ = _scheduler(
        members=(0, 1, 2),
        plan=lambda epoch: MembershipDelta(joins=(3,)),
    )
    scheduler._forced_leaves = (3,)  # not a member: leave side drops it too
    delta = scheduler._epoch_delta(0)
    assert delta == MembershipDelta(joins=(3,))


# -- straggler retirement bookkeeping -----------------------------------------


def test_straggle_streaks_retire_after_threshold():
    scheduler, membership = _scheduler(members=range(4), retire_after=2)
    snapshot = membership.snapshot()
    scheduler._note_straggles(snapshot, (2,))
    assert scheduler._forced_leaves == ()
    scheduler._note_straggles(snapshot, (2,))
    assert scheduler._forced_leaves == (2,)
    # The streak was consumed; the logical starts over if it returns.
    assert 2 not in scheduler._straggle_streaks


def test_straggle_streak_resets_on_participation():
    scheduler, membership = _scheduler(members=range(4), retire_after=2)
    snapshot = membership.snapshot()
    scheduler._note_straggles(snapshot, (2,))
    scheduler._note_straggles(snapshot, ())  # 2 answered this epoch
    scheduler._note_straggles(snapshot, (2,))
    assert scheduler._forced_leaves == ()


# -- the loop itself, in memory -----------------------------------------------


def test_scheduler_runs_epochs_and_persists_history(tmp_path):
    n_users, epochs = 3, 3
    loadgen = LoadgenConfig(n_users=n_users, n_channels=6, seed=1)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(loadgen, transport)
        membership = MembershipManager(
            n_users,
            initial_members=range(n_users),
            master_seed=protocol_seed(loadgen.seed),
            base_ring=server.keyring,
        )
        store = EpochStore(tmp_path / "run", config={"seed": loadgen.seed})
        scheduler = EpochScheduler(
            server,
            membership,
            EpochConfig(epochs=epochs, seed=loadgen.seed, roster_timeout=5.0),
            store=store,
        )
        await server.start()
        clients = [
            _make_client(server, grid, users, su, transport)
            for su in range(n_users)
        ]
        try:
            for client in clients:
                await client.connect()
            fleet = [
                asyncio.create_task(client.run(epochs)) for client in clients
            ]
            records = await scheduler.run()
            await asyncio.gather(*fleet)
        finally:
            for client in clients:
                client.close()
            await server.stop()
        return records, scheduler.summary()

    records, summary = asyncio.run(scenario())
    assert [r.epoch for r in records] == list(range(epochs))
    assert all(r.members == tuple(range(n_users)) for r in records)
    assert all(r.straggler_logicals == () for r in records)
    assert all(r.version == 0 for r in records)  # no churn, no rotation
    assert summary["epochs"] == epochs
    assert summary["final_version"] == 0
    assert summary["retired"] == []
    assert validate_run(tmp_path / "run") == []
    # Distinct entropy per epoch => epochs are genuinely distinct rounds.
    revenues = {
        r.report.result.outcome.sum_of_winning_bids() for r in records
    }
    assert len(revenues) >= 1  # at minimum well-formed; usually distinct
    # Each epoch's registry was persisted with the round's counters.
    for r in records:
        artifact = load_artifact(
            tmp_path / "run" / "epochs" / f"epoch_{r.epoch:04d}"
            / f"BENCH_epoch_{r.epoch:04d}.json"
        )
        assert artifact["metrics"]["counters"]["lppa.rounds"] == 1
