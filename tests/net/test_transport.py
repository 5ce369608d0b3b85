"""Transports: duplex pipes with real backpressure, and TCP via asyncio."""

import asyncio

import pytest

from repro.net.transport import (
    MemoryTransport,
    TcpTransport,
    TransportClosed,
    memory_pair,
)


def test_memory_pair_echo_both_directions():
    async def scenario():
        client, server = memory_pair()
        await client.write(b"ping")
        assert await server.readexactly(4) == b"ping"
        await server.write(b"pong!")
        assert await client.readexactly(5) == b"pong!"

    asyncio.run(scenario())


def test_memory_backpressure_blocks_writer_until_reader_drains():
    async def scenario():
        client, server = memory_pair(limit=64)
        await client.write(b"x" * 65)  # over the mark: next write must park
        writer = asyncio.ensure_future(client.write(b"y" * 10))
        await asyncio.sleep(0.05)
        assert not writer.done(), "writer should be parked on the high-water mark"
        assert await server.readexactly(65) == b"x" * 65
        await asyncio.wait_for(writer, timeout=2.0)
        assert await server.readexactly(10) == b"y" * 10

    asyncio.run(scenario())


def test_memory_close_wakes_parked_writer_with_error():
    async def scenario():
        client, server = memory_pair(limit=16)
        await client.write(b"x" * 17)
        writer = asyncio.ensure_future(client.write(b"more"))
        await asyncio.sleep(0.02)
        assert not writer.done()
        server.close()
        with pytest.raises(TransportClosed):
            await asyncio.wait_for(writer, timeout=2.0)

    asyncio.run(scenario())


def test_memory_eof_surfaces_as_incomplete_read():
    async def scenario():
        client, server = memory_pair()
        await client.write(b"ab")
        client.close()
        with pytest.raises(asyncio.IncompleteReadError):
            await server.readexactly(5)

    asyncio.run(scenario())


def test_memory_transport_dispatches_handler_per_connection():
    async def scenario():
        transport = MemoryTransport()
        served = []

        async def handler(conn):
            data = await conn.readexactly(3)
            served.append(data)
            await conn.write(data.upper())

        await transport.listen(handler)
        a = await transport.connect()
        b = await transport.connect()
        await a.write(b"foo")
        await b.write(b"bar")
        assert await a.readexactly(3) == b"FOO"
        assert await b.readexactly(3) == b"BAR"
        assert sorted(served) == [b"bar", b"foo"]
        await transport.close()

    asyncio.run(scenario())


def test_memory_connect_without_listener_refused():
    async def scenario():
        transport = MemoryTransport()
        with pytest.raises(TransportClosed):
            await transport.connect()

    asyncio.run(scenario())


def test_tcp_transport_echo_on_ephemeral_port():
    async def scenario():
        transport = TcpTransport()

        async def handler(conn):
            data = await conn.readexactly(5)
            await conn.write(data[::-1])

        await transport.listen(handler)
        assert transport.port != 0
        assert transport.address.endswith(str(transport.port))
        conn = await transport.connect()
        await conn.write(b"hello")
        assert await conn.readexactly(5) == b"olleh"
        conn.close()
        await conn.wait_closed()
        await transport.close()

    asyncio.run(scenario())


def test_tcp_connect_refused_maps_to_transport_closed():
    async def scenario():
        # Dial a port nothing listens on: connect() must raise the
        # transport's own error class, which the client retry loop catches.
        transport = TcpTransport("127.0.0.1", 1)
        with pytest.raises(TransportClosed):
            await transport.connect()

    asyncio.run(scenario())


def test_memory_write_nowait_writes_under_the_mark_only():
    async def scenario():
        client, server = memory_pair(limit=16)
        assert client.write_nowait(b"x" * 17)  # under the mark: written
        assert not client.write_nowait(b"y")   # over it: nothing written
        assert await server.readexactly(17) == b"x" * 17
        assert client.write_nowait(b"y")
        assert await server.readexactly(1) == b"y"
        server.close()
        with pytest.raises(TransportClosed):
            client.write_nowait(b"z")

    asyncio.run(scenario())


def test_tcp_write_nowait_refuses_over_the_low_water_mark():
    """With the peer not reading, ``write_nowait`` hands chunks to the
    socket until the transport buffers more than its low-water mark, then
    refuses without writing; an awaited write still lands after them."""
    chunk = b"z" * 65536

    async def scenario():
        transport = TcpTransport()
        expected = asyncio.get_running_loop().create_future()
        received = asyncio.get_running_loop().create_future()

        async def handler(conn):
            n = await expected
            received.set_result(await conn.readexactly(n))

        await transport.listen(handler)
        conn = await transport.connect()
        written = 0
        refused = False
        for _ in range(256):  # at most 16 MiB
            if not conn.write_nowait(chunk):
                refused = True
                break
            written += len(chunk)
        expected.set_result(written + 1)
        await asyncio.wait_for(conn.write(b"!"), 10.0)
        data = await asyncio.wait_for(received, 10.0)
        conn.close()
        await conn.wait_closed()
        await transport.close()
        return refused, written, data

    refused, written, data = asyncio.run(scenario())
    assert refused
    assert written > 0
    assert data == chunk * (written // len(chunk)) + b"!"
