"""Pluggable stream transports for the network runtime.

One interface, two implementations:

* :class:`MemoryTransport` — in-process duplex byte pipes with a real
  high-water mark (writers block while the peer's unread buffer is over
  the limit), used by the deterministic tests and the default ``repro
  loadgen`` mode;
* :class:`TcpTransport` — real sockets via :func:`asyncio.start_server` /
  :func:`asyncio.open_connection`.

Both hand endpoints a :class:`Connection`: ``readexactly`` /
``write`` (awaitable, drains — this is where per-connection backpressure
lives) / ``write_nowait`` (the same write when it needs no wait, else
nothing) / ``close`` / ``wait_closed``.  A peer disappearing surfaces as
:class:`asyncio.IncompleteReadError` or :class:`ConnectionError` from the
read side and :class:`TransportClosed` from the write side; endpoint code
treats all three as "the connection is gone".
"""

from __future__ import annotations

import abc
import asyncio
import contextlib
from typing import Awaitable, Callable, List, Optional, Tuple

__all__ = [
    "TransportClosed",
    "Connection",
    "Transport",
    "MemoryTransport",
    "TcpTransport",
    "memory_pair",
]

#: Unread bytes a memory-pipe peer may buffer before writers block.
DEFAULT_PIPE_LIMIT = 64 * 1024

ConnectionHandler = Callable[["Connection"], Awaitable[None]]


class TransportClosed(ConnectionError):
    """Writing to (or connecting over) a transport that has gone away."""


class Connection(abc.ABC):
    """One bidirectional byte stream between two endpoints."""

    @abc.abstractmethod
    async def readexactly(self, n: int) -> bytes:
        """Read exactly ``n`` bytes; :class:`asyncio.IncompleteReadError`
        when the peer closes first."""

    @abc.abstractmethod
    async def write(self, data: bytes) -> None:
        """Write and drain; blocks while the peer applies backpressure."""

    @abc.abstractmethod
    def write_nowait(self, data: bytes) -> bool:
        """Write ``data`` now if that needs no wait; ``False`` writes nothing.

        ``True`` means the bytes are handed over exactly as an awaited
        :meth:`write` would have left them; ``False`` means the connection
        is over its high-water mark and the caller awaits :meth:`write`.
        Raises :class:`TransportClosed` like :meth:`write`.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Start closing both directions (idempotent)."""

    @abc.abstractmethod
    async def wait_closed(self) -> None:
        """Wait for the close to finish."""

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Human-readable endpoint name for logs and errors."""


class _MemoryChannel:
    """One direction of a memory duplex: sync feed, async read, high-water mark.

    Built on :class:`asyncio.StreamReader` for the buffering/EOF machinery;
    the channel adds the unread-byte accounting that gives writers real
    backpressure (``feed`` is gated on :meth:`writable`).
    """

    def __init__(self, limit: int) -> None:
        self._reader = asyncio.StreamReader()
        self._limit = limit
        self._unread = 0
        self._writable = asyncio.Event()
        self._writable.set()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def writable(self) -> bool:
        """Whether the unread bytes are within the high-water mark."""
        return self._writable.is_set()

    async def wait_writable(self) -> None:
        await self._writable.wait()

    def feed(self, data: bytes) -> None:
        if self._closed:
            raise TransportClosed("peer closed the memory channel")
        self._reader.feed_data(data)
        self._unread += len(data)
        if self._unread > self._limit:
            self._writable.clear()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._reader.feed_eof()
            # Unblock writers parked on the high-water mark; their next
            # feed() raises TransportClosed.
            self._writable.set()

    async def readexactly(self, n: int) -> bytes:
        data = await self._reader.readexactly(n)
        self._unread -= len(data)
        if self._unread <= self._limit and not self._closed:
            self._writable.set()
        return data


class MemoryConnection(Connection):
    """One end of an in-process duplex pipe."""

    def __init__(self, rx: _MemoryChannel, tx: _MemoryChannel, label: str) -> None:
        self._rx = rx
        self._tx = tx
        self._label = label

    async def readexactly(self, n: int) -> bytes:
        return await self._rx.readexactly(n)

    async def write(self, data: bytes) -> None:
        while not self.write_nowait(data):
            await self._tx.wait_writable()

    def write_nowait(self, data: bytes) -> bool:
        if self._tx.closed:
            raise TransportClosed(f"{self._label}: peer gone")
        if not self._tx.writable:
            return False
        self._tx.feed(data)
        return True

    def close(self) -> None:
        self._tx.close()
        self._rx.close()

    async def wait_closed(self) -> None:
        return None

    @property
    def label(self) -> str:
        return self._label


def memory_pair(
    limit: int = DEFAULT_PIPE_LIMIT,
) -> Tuple[MemoryConnection, MemoryConnection]:
    """A connected duplex pair (client end, server end)."""
    a_to_b = _MemoryChannel(limit)
    b_to_a = _MemoryChannel(limit)
    client = MemoryConnection(rx=b_to_a, tx=a_to_b, label="mem-client")
    server = MemoryConnection(rx=a_to_b, tx=b_to_a, label="mem-server")
    return client, server


class Transport(abc.ABC):
    """Factory for connections: one listener side, many dialers."""

    @abc.abstractmethod
    async def listen(self, handler: ConnectionHandler) -> None:
        """Start accepting; every inbound connection runs ``handler``."""

    @abc.abstractmethod
    async def connect(self) -> Connection:
        """Dial the listener; returns the client end."""

    @abc.abstractmethod
    async def close(self) -> None:
        """Stop accepting and tear down what the transport owns."""

    @property
    @abc.abstractmethod
    def address(self) -> str:
        """Where the listener is reachable (for logs / CLI output)."""


class MemoryTransport(Transport):
    """In-process transport: ``connect()`` pairs pipes with the listener."""

    def __init__(self, *, limit: int = DEFAULT_PIPE_LIMIT) -> None:
        self._limit = limit
        self._handler: Optional[ConnectionHandler] = None
        self._tasks: List[asyncio.Task] = []

    async def listen(self, handler: ConnectionHandler) -> None:
        self._handler = handler

    async def connect(self) -> Connection:
        if self._handler is None:
            raise TransportClosed("memory transport is not listening")
        client, server = memory_pair(self._limit)
        task = asyncio.ensure_future(self._handler(server))
        self._tasks.append(task)
        return client

    async def close(self) -> None:
        self._handler = None
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._tasks.clear()

    @property
    def address(self) -> str:
        return "memory://"


class TcpConnection(Connection):
    """A real socket pair wrapped to the :class:`Connection` interface."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        peer = writer.get_extra_info("peername")
        self._label = f"tcp:{peer[0]}:{peer[1]}" if peer else "tcp:?"

    async def readexactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)

    async def write(self, data: bytes) -> None:
        if self._writer.is_closing():
            raise TransportClosed(f"{self._label}: connection closing")
        try:
            self._writer.write(data)
            await self._writer.drain()
        except ConnectionError as exc:
            raise TransportClosed(f"{self._label}: {exc}") from exc

    def write_nowait(self, data: bytes) -> bool:
        # A buffer at or under the low-water mark means the protocol is not
        # paused, so drain() would return at once; above it, it may be.
        if self._writer.is_closing():
            raise TransportClosed(f"{self._label}: connection closing")
        transport = self._writer.transport
        if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[0]:
            return False
        try:
            self._writer.write(data)
        except ConnectionError as exc:
            raise TransportClosed(f"{self._label}: {exc}") from exc
        return True

    def close(self) -> None:
        with contextlib.suppress(RuntimeError):
            self._writer.close()

    async def wait_closed(self) -> None:
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()

    @property
    def label(self) -> str:
        return self._label


class TcpTransport(Transport):
    """TCP via asyncio streams.  ``port=0`` binds an ephemeral port; the
    bound address is available from :attr:`address` after :meth:`listen`.

    A dial-only transport (``repro loadgen --connect``) never calls
    ``listen`` — ``connect()`` just dials the configured endpoint.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def listen(self, handler: ConnectionHandler) -> None:
        async def on_client(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            conn = TcpConnection(reader, writer)
            try:
                await handler(conn)
            finally:
                conn.close()
                await conn.wait_closed()

        self._server = await asyncio.start_server(on_client, self._host, self._port)
        self._port = self._server.sockets[0].getsockname()[1]

    async def connect(self) -> Connection:
        try:
            reader, writer = await asyncio.open_connection(self._host, self._port)
        except OSError as exc:
            raise TransportClosed(
                f"tcp:{self._host}:{self._port} refused: {exc}"
            ) from exc
        return TcpConnection(reader, writer)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        return f"{self._host}:{self._port}"

    @property
    def port(self) -> int:
        return self._port
