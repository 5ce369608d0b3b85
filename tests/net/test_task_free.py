"""The net round's frame path creates no asyncio Task, and its deadlines fire.

Every read deadline and phase wait is a timer on the task already waiting
(``asyncio.timeout``), and a broadcast writes inline to every connection
under its high-water mark, so a round over connected SUs needs no Task of
its own: a task factory installed around the measured rounds counts 0 on a
25-SU ``MemoryTransport`` round and on a 2-SU loopback TCP round (a Task
per SU read and per SU broadcast write would read 6N+2: 152 and 14).

The waits no other test drives to expiry are here too: an unmet
``wait_for_clients`` / ``wait_for_roster`` raises :class:`TimeoutError`,
and a connection that never sends HELLO is dropped after ``join_deadline``
and counted under ``net.connections_dropped``.
"""

import asyncio

import pytest

from repro import obs
from repro.net.frames import FrameType, pack_json, read_frame, write_frame
from repro.net.loadgen import LoadgenConfig, round_entropy
from repro.net.transport import MemoryTransport, TcpTransport

from tests.net.test_faults import _make_client, _make_server

WARMUP = 2
MEASURED = 3

TRANSPORTS = {
    "memory-25": (MemoryTransport, 25),
    "tcp-2": (lambda: TcpTransport("127.0.0.1", 0), 2),
}


def _tasks_per_round(transport_factory, n_users, seed=11):
    """Play warm-up rounds, then count the Tasks each measured round
    creates; returns ``(tasks per round, participants per round)``."""
    config = LoadgenConfig(n_users=n_users, n_channels=6, seed=seed)
    created = []
    participants = []

    def counting_factory(loop, coro, **kwargs):
        created[-1] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def scenario():
        transport = transport_factory()
        server, grid, users = _make_server(config, transport)
        await server.start()
        clients = [
            _make_client(server, grid, users, su, transport)
            for su in range(n_users)
        ]
        tasks = [
            asyncio.ensure_future(c.run(WARMUP + MEASURED + 1)) for c in clients
        ]
        await server.wait_for_clients(n_users, timeout=10.0)
        for r in range(WARMUP):
            await server.run_round(round_entropy(config.seed, r))
        loop = asyncio.get_running_loop()
        loop.set_task_factory(counting_factory)
        try:
            for r in range(WARMUP, WARMUP + MEASURED):
                created.append(0)
                report = await server.run_round(round_entropy(config.seed, r))
                participants.append(report.participants)
        finally:
            loop.set_task_factory(None)
        await server.stop()
        await asyncio.wait_for(asyncio.gather(*tasks), 10.0)

    asyncio.run(scenario())
    return created, participants


@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_a_round_creates_no_task(name):
    factory, n_users = TRANSPORTS[name]
    created, participants = _tasks_per_round(factory, n_users)
    assert participants == [tuple(range(n_users))] * MEASURED
    assert created == [0] * MEASURED


def test_wait_for_clients_times_out_when_unmet():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=41)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        client = _make_client(server, grid, users, 0, transport)
        await client.connect()
        try:
            with pytest.raises(TimeoutError):
                await server.wait_for_clients(2, timeout=0.05)
            # The one SU that did connect is still registered.
            await server.wait_for_clients(1, timeout=1.0)
        finally:
            client.close()
            await server.stop()

    asyncio.run(scenario())


def test_wait_for_roster_times_out_when_unmet():
    config = LoadgenConfig(n_users=3, n_channels=6, seed=43)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        clients = [_make_client(server, grid, users, su, transport) for su in (0, 1)]
        for client in clients:
            await client.connect()
        try:
            # A joiner that never came, and a leaver that never left.
            with pytest.raises(TimeoutError):
                await server.wait_for_roster([0, 1, 2], timeout=0.05)
            with pytest.raises(TimeoutError):
                await server.wait_for_roster([0], timeout=0.05)
            await server.wait_for_roster([0, 1], timeout=1.0)
        finally:
            for client in clients:
                client.close()
            await server.stop()

    asyncio.run(scenario())


def test_silent_connection_is_dropped_after_join_deadline():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=47)

    async def scenario():
        transport = MemoryTransport()
        server, _, _ = _make_server(config, transport, join_deadline=0.1)
        await server.start()
        silent = await transport.connect()
        # The server closes the connection without a frame: EOF, no ERROR.
        with pytest.raises(asyncio.IncompleteReadError):
            await asyncio.wait_for(read_frame(silent), 5.0)
        # A prompt HELLO on another connection is still welcomed.
        prompt = await transport.connect()
        await write_frame(prompt, FrameType.HELLO, pack_json({"su": 0}))
        ftype, _ = await asyncio.wait_for(read_frame(prompt, strict=True), 5.0)
        roster = server.roster
        await server.stop()
        return ftype, roster

    with obs.collecting() as registry:
        ftype, roster = asyncio.run(scenario())
    assert ftype is FrameType.WELCOME
    assert roster == (0,)
    assert registry.totals().get("net.connections_dropped") == 1
