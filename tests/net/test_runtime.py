"""Differential equivalence: a networked round == the in-process session.

The contract under test: with entropy-labelled rounds (the
``derive_round_rngs`` seeding) and full participation, an
:class:`AuctioneerServer` driving real SU clients over a transport
produces an :class:`LppaResult` bit-identical to
:func:`run_lppa_auction` — assignments, charges, conflict graph,
rankings, revenue and every byte counter.  ``disclosures`` is the one
exempt field (SU-private, never crosses the wire).
"""

import asyncio
import dataclasses

import pytest

from repro.net.loadgen import (
    LoadgenConfig,
    build_population,
    check_result_equivalence,
    protocol_seed,
    round_entropy,
    run_loadgen,
)
from repro import obs
from repro.obs.trace import TraceRecorder
from repro.net.client import SUClient
from repro.net.server import AuctioneerServer, ServerConfig
from repro.net.transport import MemoryTransport, TcpTransport
from repro.lppa.session import run_lppa_auction


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_memory_round_equals_session(seed):
    config = LoadgenConfig(
        n_users=6, n_channels=6, rounds=2, seed=seed,
        transport="memory", check_equivalence=True,
    )
    report = asyncio.run(run_loadgen(config))
    assert report.rounds_completed == 2
    assert report.equivalence_checked == 2
    assert report.stragglers == 0


def test_memory_round_equals_session_with_disguise_policy():
    config = LoadgenConfig(
        n_users=8, n_channels=6, rounds=2, seed=5, replace=0.5,
        transport="memory", check_equivalence=True,
    )
    report = asyncio.run(run_loadgen(config))
    assert report.equivalence_checked == 2


def test_tcp_round_equals_session():
    config = LoadgenConfig(
        n_users=6, n_channels=6, rounds=2, seed=11,
        transport="tcp", check_equivalence=True,
    )
    report = asyncio.run(run_loadgen(config))
    assert report.equivalence_checked == 2
    assert report.address.startswith("127.0.0.1:")


def test_scheduled_ttp_windows_do_not_change_the_result():
    config = LoadgenConfig(
        n_users=6, n_channels=6, rounds=2, seed=3,
        transport="memory", check_equivalence=True,
        ttp_period=2, ttp_capacity=2,
    )
    report = asyncio.run(run_loadgen(config))
    assert report.equivalence_checked == 2


def test_equivalence_reference_stays_out_of_the_measurement():
    """The in-process reference round behind --check-equivalence is
    verification: it must not count into the caller's registry or trace."""
    config = LoadgenConfig(
        n_users=6, n_channels=6, rounds=2, seed=3,
        transport="memory", check_equivalence=True,
    )
    registry, recorder = obs.MetricsRegistry(), TraceRecorder()
    with obs.collecting(registry, trace=recorder):
        report = asyncio.run(run_loadgen(config))
    assert report.equivalence_checked == config.rounds
    totals = registry.totals()
    assert totals["lppa.rounds"] == config.rounds
    assert totals["lppa.location_submissions"] == config.rounds * config.n_users
    rankings = [e for e in recorder.events() if e["type"] == "ranking"]
    assert len(rankings) == config.rounds * config.n_channels


def test_connect_mode_trace_holds_every_client_round():
    """Connect-mode loadgen traces its own SUs: each records privately and
    the process trace gets their events in `repro trace merge` order."""
    config = LoadgenConfig(n_users=4, n_channels=6, rounds=2, seed=3)
    grid, _ = build_population(config)

    async def scenario():
        server = AuctioneerServer(
            ServerConfig(
                n_users=config.n_users, n_channels=config.n_channels,
                grid=grid, two_lambda=config.two_lambda, bmax=config.bmax,
                seed=protocol_seed(config.seed),
            ),
            TcpTransport("127.0.0.1", 0),
        )
        await server.start()
        try:
            fleet = asyncio.ensure_future(run_loadgen(dataclasses.replace(
                config, connect=server.address, check_equivalence=True,
            )))
            await server.wait_for_clients(config.n_users, timeout=30.0)
            for index in range(config.rounds):
                await server.run_round(round_entropy(config.seed, index))
            return await asyncio.wait_for(fleet, timeout=30.0)
        finally:
            await server.stop()

    recorder = TraceRecorder()
    with obs.tracing(recorder):
        report = asyncio.run(scenario())
    assert report.equivalence_checked == config.rounds
    done = [
        e for e in recorder.events() if e.get("name") == "client_round_complete"
    ]
    assert sorted((e["role"], e["round"]) for e in done) == sorted(
        (f"su:{su}", index)
        for su in range(config.n_users)
        for index in range(config.rounds)
    )
    assert [e["seq"] for e in recorder.events()] == list(range(len(recorder)))
    # The SUs' RESULT documents summarise each round as the server does.
    hosted = asyncio.run(run_loadgen(config))
    assert report.round_summaries == hosted.round_summaries


def test_loadgen_is_deterministic_across_runs():
    config = LoadgenConfig(n_users=6, n_channels=6, rounds=3, seed=17)
    first = asyncio.run(run_loadgen(config))
    second = asyncio.run(run_loadgen(config))
    assert first.round_summaries == second.round_summaries
    assert first.wire_bytes == second.wire_bytes


def test_manual_server_and_clients_match_session_exactly():
    """The equivalence without going through loadgen: hand-built server,
    hand-built clients, explicit field-by-field comparison."""
    config = LoadgenConfig(n_users=5, n_channels=6, rounds=1, seed=29)
    grid, users = build_population(config)
    entropy = round_entropy(config.seed, 0)

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
        for client in clients:
            await client.connect()
        tasks = [asyncio.ensure_future(c.run_round()) for c in clients]
        report = await server.run_round(entropy)
        client_rounds = await asyncio.gather(*tasks)
        for client in clients:
            client.close()
        await server.stop()
        return server, report, client_rounds, clients

    server, report, client_rounds, clients = asyncio.run(scenario())

    session = run_lppa_auction(
        users,
        grid,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        seed=protocol_seed(config.seed),
        entropy=entropy,
    )
    check_result_equivalence(report.result, session)
    # Full participation: dense remap is the identity.
    assert report.participants == tuple(range(config.n_users))
    assert report.stragglers == ()
    # The networked result intentionally carries no disclosures.
    assert report.result.disclosures == ()
    assert session.disclosures != ()

    # Every client saw the same RESULT document with original SU ids.
    docs = [record.result for record in client_rounds]
    assert all(doc == docs[0] for doc in docs)
    assert docs[0]["revenue"] == session.outcome.sum_of_winning_bids()
    assert {w["su"] for w in docs[0]["wins"]} == {
        w.bidder for w in session.outcome.wins
    }

    # Wire accounting closes: what clients sent is what the server read,
    # and vice versa (memory transport, nothing in flight at the end).
    assert server.wire.bytes_in == sum(c.bytes_sent for c in clients)
    assert server.wire.bytes_out == sum(c.bytes_received for c in clients)


def test_byte_counters_match_the_session_accounting():
    """lppa.* byte counters computed by the server equal the session's
    (payload, masked-set and framed bytes are functions of content only —
    the u32 user_id field makes the dense remap size-neutral)."""
    config = LoadgenConfig(
        n_users=6, n_channels=6, rounds=1, seed=31,
        transport="memory", check_equivalence=False,
    )
    grid, users = build_population(config)
    report = asyncio.run(run_loadgen(config))
    session = run_lppa_auction(
        users, grid,
        two_lambda=config.two_lambda, bmax=config.bmax,
        seed=protocol_seed(config.seed),
        entropy=round_entropy(config.seed, 0),
    )
    summary = report.round_summaries[0]
    assert summary["framed_bytes"] == session.framed_bytes


def test_check_result_equivalence_raises_on_divergence():
    from repro.net.loadgen import EquivalenceFailure

    config = LoadgenConfig(n_users=4, n_channels=6, rounds=1, seed=2)
    grid, users = build_population(config)
    session = run_lppa_auction(
        users, grid, two_lambda=6, bmax=127,
        seed=protocol_seed(config.seed),
        entropy=round_entropy(config.seed, 0),
    )
    tampered = dataclasses.replace(session, bid_bytes=session.bid_bytes + 1)
    with pytest.raises(EquivalenceFailure):
        check_result_equivalence(tampered, session)
