"""Renumbering connected SUs in place between rounds.

An epoch boundary shifts dense wire ids when a lower id leaves.  The
server re-keys its stayers' connections (``AuctioneerServer.renumber``)
and each client adopts the new id with the ring (``SUClient.rekey``), so
no stayer reconnects.  The invariants under test:

* a renumbered round is bit-identical to the in-process session over the
  same users, on the connections the SUs already had;
* the server refuses to renumber mid-round, and refuses whole any mapping
  that would merge two connections or names an SU that is not connected;
* the roster barrier sees the renumbered ids;
* a submission a stayer sent under its old id never lands under any SU.
"""

import asyncio

import pytest

from repro import obs
from repro.lppa.codec import encode_location
from repro.lppa.location import submit_location
from repro.net.frames import FrameType, pack_json, read_frame, unpack_json, write_frame
from repro.net.loadgen import (
    LoadgenConfig,
    check_result_equivalence,
    reference_round,
    round_entropy,
)
from repro.net.server import ERR_LATE, ERR_WRONG_USER, RoundAborted, RoundPhase
from repro.net.transport import MemoryTransport

from tests.net.test_faults import _make_client, _make_server


async def _raw_su(transport, su):
    """A bare connection registered as ``su`` (HELLO, WELCOME read)."""
    conn = await transport.connect()
    await write_frame(conn, FrameType.HELLO, pack_json({"su": su}))
    await read_frame(conn, strict=True)  # WELCOME
    return conn


def test_shift_down_keeps_connections_and_the_round_bit_identical():
    """Leaver at 0; 1 -> 0 and 2 -> 1 collide with ids still held until
    the whole mapping is applied."""
    config = LoadgenConfig(n_users=3, n_channels=6, seed=41)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        clients = [
            _make_client(server, grid, users, su, transport) for su in range(3)
        ]
        for client in clients:
            await client.connect()
        conns = {su: server._clients[su].conn for su in range(3)}
        clients[0].close()
        await server.wait_for_roster([1, 2], timeout=5.0)

        server.renumber({1: 0, 2: 1})
        for new, client in enumerate(clients[1:]):
            client.rekey(server.keyring, new)
        roster = server.roster
        same_conns = [server._clients[0].conn is conns[1],
                      server._clients[1].conn is conns[2]]
        tasks = [asyncio.ensure_future(c.run_round()) for c in clients[1:]]
        report = await server.run_round(round_entropy(config.seed, 0))
        played = await asyncio.gather(*tasks)
        for client in clients:
            client.close()
        await server.stop()
        return grid, users, roster, same_conns, report, played

    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        grid, users, roster, same_conns, report, played = asyncio.run(scenario())
    assert roster == (0, 1)
    assert same_conns == [True, True]
    assert registry.totals()["net.clients_joined"] == 3
    assert report.participants == (0, 1) and report.stragglers == ()
    assert [p.result["participants"] for p in played] == [[0, 1], [0, 1]]
    check_result_equivalence(
        report.result, reference_round(config, [users[1], users[2]], grid, 0)
    )


def test_renumber_is_refused_outside_idle():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=43)

    async def scenario():
        transport = MemoryTransport()
        server, _, _ = _make_server(config, transport, location_deadline=0.2)
        await server.start()
        conn = await _raw_su(transport, 1)
        round_task = asyncio.ensure_future(
            server.run_round(round_entropy(config.seed, 0))
        )
        await read_frame(conn, strict=True)  # ROUND_BEGIN
        phase = server.phase
        with pytest.raises(RuntimeError, match="mid-round"):
            server.renumber({1: 0})
        roster = server.roster
        with pytest.raises(RoundAborted):
            await round_task  # nobody submits: the round aborts
        conn.close()
        await server.stop()
        return phase, roster

    phase, roster = asyncio.run(scenario())
    assert phase is RoundPhase.COLLECT_LOCATIONS
    assert roster == (1,)


def test_merging_unknown_and_out_of_range_mappings_are_refused_whole():
    config = LoadgenConfig(n_users=3, n_channels=6, seed=47)

    async def scenario():
        transport = MemoryTransport()
        server, _, _ = _make_server(config, transport)
        await server.start()
        conns = [await _raw_su(transport, su) for su in (0, 1)]
        refused = []
        for mapping in ({0: 1}, {1: 0}, {2: 0}, {0: 2, 2: 1}, {1: 3}):
            with pytest.raises(ValueError):
                server.renumber(mapping)
            refused.append(server.roster)
        states = [server._clients[su].su for su in (0, 1)]
        before = [server._clients[su].conn for su in (0, 1)]
        server.renumber({0: 1, 1: 0})  # a swap merges nothing
        swapped = [server._clients[su].conn is before[1 - su] for su in (0, 1)]
        for conn in conns:
            conn.close()
        await server.stop()
        return refused, states, swapped

    refused, states, swapped = asyncio.run(scenario())
    assert refused == [(0, 1)] * 5
    assert states == [0, 1]
    assert swapped == [True, True]


def test_roster_barrier_is_satisfied_by_the_renumbered_set():
    config = LoadgenConfig(n_users=3, n_channels=6, seed=53)

    async def scenario():
        transport = MemoryTransport()
        server, _, _ = _make_server(config, transport)
        await server.start()
        conns = [await _raw_su(transport, su) for su in (1, 2)]
        barrier = asyncio.ensure_future(server.wait_for_roster([0, 1], timeout=5.0))
        await asyncio.sleep(0)
        waiting = not barrier.done()
        server.renumber({1: 0, 2: 1})
        await barrier
        for conn in conns:
            conn.close()
        await server.stop()
        return waiting

    assert asyncio.run(scenario()) is True


def test_submission_under_a_stayers_old_id_never_lands():
    """SU 2 becomes SU 1 but keeps submitting as 2: between rounds it gets
    ERR_LATE; inside a collect phase the claim no longer matches its
    connection, which is dropped, and the round runs without it."""
    config = LoadgenConfig(n_users=3, n_channels=6, seed=59)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        stayer = _make_client(server, grid, users, 1, transport)
        await stayer.connect()
        stale = await _raw_su(transport, 2)
        server.renumber({1: 0, 2: 1})
        stayer.rekey(server.keyring, 0)

        old = submit_location(2, users[2].cell, server.keyring.g0, grid, 6)
        await write_frame(stale, FrameType.LOCATION, encode_location(old))
        _, idle_error = await read_frame(stale, strict=True)

        stayer_task = asyncio.ensure_future(stayer.run_round())
        round_task = asyncio.ensure_future(
            server.run_round(round_entropy(config.seed, 0))
        )
        await read_frame(stale, strict=True)  # ROUND_BEGIN
        await write_frame(stale, FrameType.LOCATION, encode_location(old))
        _, round_error = await read_frame(stale, strict=True)
        report = await asyncio.wait_for(round_task, 10.0)
        await stayer_task
        stale.close()
        stayer.close()
        await server.stop()
        return unpack_json(idle_error), unpack_json(round_error), report

    idle_error, round_error, report = asyncio.run(scenario())
    assert idle_error["code"] == ERR_LATE
    assert round_error["code"] == ERR_WRONG_USER
    assert report.participants == (0,)
    assert report.stragglers == (1,)
