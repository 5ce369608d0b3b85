"""The unification contract: one round core, three thin wrappers.

``run_lppa_auction``, ``run_fast_lppa`` and ``AuctioneerServer.run_round``
must all execute the *same* ``PHASE_STEPS`` objects — not copies, not
re-implementations.  The ``observe_steps`` hook records which step objects
each executor ran; these tests assert identity against the module-level
pipeline and check the backend/driver each wrapper plugged in.  Every
privacy scheme runs the one crypto backend class, bound to the scheme
(``scheme.backend``).
"""

import asyncio

import pytest

from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.round import (
    IN_PROCESS_DRIVER,
    PHASE_STEPS,
    PLAIN_BACKEND,
    CryptoBackend,
    InProcessDriver,
    RoundState,
    execute_round,
    observe_steps,
)
from repro.lppa.schemes.registry import get_scheme
from repro.lppa.session import run_lppa_auction
from repro.net.client import SUClient
from repro.net.loadgen import (
    LoadgenConfig,
    build_population,
    protocol_seed,
    round_entropy,
)
from repro.net.server import AuctioneerServer, ServerConfig
from repro.net.transport import MemoryTransport


def test_phase_steps_spell_out_the_papers_round():
    assert [s.key for s in PHASE_STEPS] == [
        None,  # setup
        "location_submission",
        "bid_submission",
        "psd_allocation",
        "ttp_charging",
        None,  # finish
    ]


def test_session_and_fastsim_run_the_same_step_objects(small_db, small_users):
    users = small_users[:6]
    with observe_steps() as seen:
        run_lppa_auction(
            users,
            small_db.coverage.grid,
            two_lambda=6,
            bmax=127,
            entropy="round-core-test",
        )
        run_fast_lppa(users, two_lambda=6, bmax=127, entropy="round-core-test")

    assert len(seen) == 2 * len(PHASE_STEPS)
    session_steps = [step for step, _ in seen[: len(PHASE_STEPS)]]
    fastsim_steps = [step for step, _ in seen[len(PHASE_STEPS) :]]
    # Identity, not equality: both wrappers walk the module-level pipeline.
    assert all(a is b for a, b in zip(session_steps, PHASE_STEPS))
    assert all(a is b for a, b in zip(fastsim_steps, PHASE_STEPS))

    session_state = seen[0][1]
    fastsim_state = seen[len(PHASE_STEPS)][1]
    assert session_state.backend is get_scheme("ppbs").backend
    assert fastsim_state.backend is PLAIN_BACKEND
    assert session_state.driver is IN_PROCESS_DRIVER
    assert fastsim_state.driver is IN_PROCESS_DRIVER


def test_bloom_session_runs_the_same_step_objects(small_db, small_users):
    """A second scheme is hooks on the scheme, not a second backend."""
    with observe_steps() as seen:
        run_lppa_auction(
            small_users[:6],
            small_db.coverage.grid,
            two_lambda=6,
            bmax=127,
            entropy="round-core-test",
            scheme="bloom",
        )
    assert [step for step, _ in seen] == list(PHASE_STEPS)
    assert all(a is b for (a, _), b in zip(seen, PHASE_STEPS))
    state = seen[0][1]
    bloom = get_scheme("bloom")
    assert type(state.backend) is CryptoBackend
    assert state.backend is bloom.backend
    assert state.backend.scheme is bloom
    assert state.driver is IN_PROCESS_DRIVER


def test_networked_round_runs_the_same_step_objects():
    config = LoadgenConfig(n_users=4, n_channels=6, rounds=1, seed=29)
    grid, users = build_population(config)

    async def scenario():
        transport = MemoryTransport()
        server = AuctioneerServer(
            ServerConfig(
                n_users=config.n_users,
                n_channels=config.n_channels,
                grid=grid,
                two_lambda=config.two_lambda,
                bmax=config.bmax,
                seed=protocol_seed(config.seed),
            ),
            transport,
        )
        await server.start()
        clients = [
            SUClient(
                su_id, user, server.keyring, server.scale, grid,
                config.two_lambda, transport,
            )
            for su_id, user in enumerate(users)
        ]
        tasks = [asyncio.ensure_future(c.run(1)) for c in clients]
        await server.wait_for_clients(config.n_users, timeout=10.0)
        with observe_steps() as seen:
            report = await server.run_round(round_entropy(config.seed, 0))
        await asyncio.gather(*tasks)
        await server.stop()
        return report, seen

    report, seen = asyncio.run(scenario())
    assert len(report.result.outcome.wins) >= 1
    steps = [step for step, _ in seen]
    assert all(a is b for a, b in zip(steps, PHASE_STEPS))
    assert len(steps) == len(PHASE_STEPS)
    state = seen[0][1]
    assert state.backend is get_scheme("ppbs").backend
    assert state.driver.name == "network"
    # The networked result must never carry SU-private disclosures.
    assert report.result.disclosures == ()


def test_sync_executor_rejects_a_driver_that_suspends(small_users):
    """execute_round drives coroutines without a loop; a driver that truly
    suspends must fail loudly, not hang or silently skip work."""

    class SuspendingDriver(InProcessDriver):
        async def collect_locations(self, state):
            await asyncio.sleep(0)

    users = small_users[:2]
    state = RoundState(
        backend=PLAIN_BACKEND,
        driver=SuspendingDriver(),
        n_users=len(users),
        n_channels=users[0].n_channels,
        two_lambda=6,
        bmax=127,
        users=users,
        policies=[None] * len(users),
    )
    with pytest.raises(RuntimeError, match="suspended"):
        execute_round(state)
