"""Fault handling: retries, dead peers, stragglers, malformed bytes.

The invariants under test, straight from the runtime's contract:

* a client that cannot reach the server retries with exponential backoff
  and gives up with a transport error, not a hang;
* a connection dying mid-frame costs that SU its round, never the round;
* a submission after the phase deadline is answered with a clean
  ``ERROR late-submission`` frame, and the connection stays usable;
* malformed bytes get ``ERROR malformed-frame`` and a disconnect, while
  everyone else's round completes;
* an SU that stops reading holds up only its own frames: every other SU
  gets each broadcast at once, and the stalled SU's frames arrive in send
  order once it reads again.
"""

import asyncio
import random

import pytest

from repro.lppa.entropy import bidder_rng
from repro.net.client import ProtocolError, RetryPolicy, SUClient
from repro.net.frames import (
    FrameType,
    encode_frame,
    pack_json,
    read_frame,
    unpack_json,
    write_frame,
)
from repro.net.loadgen import (
    LoadgenConfig,
    build_population,
    protocol_seed,
    round_entropy,
)
from repro.net.server import (
    ERR_DUPLICATE_SU,
    ERR_LATE,
    ERR_MALFORMED,
    AuctioneerServer,
    ServerConfig,
)
from repro.net.transport import MemoryTransport, Transport, TransportClosed


class FlakyTransport(Transport):
    """Fails the first ``failures`` dials, then delegates."""

    def __init__(self, inner: Transport, failures: int) -> None:
        self._inner = inner
        self.failures_left = failures

    async def listen(self, handler) -> None:
        await self._inner.listen(handler)

    async def connect(self):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise TransportClosed("injected dial failure")
        return await self._inner.connect()

    async def close(self) -> None:
        await self._inner.close()

    @property
    def address(self) -> str:
        return self._inner.address


def _make_server(config: LoadgenConfig, transport, **overrides):
    grid, users = build_population(config)
    server_config = ServerConfig(
        n_users=config.n_users,
        n_channels=config.n_channels,
        grid=grid,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        seed=protocol_seed(config.seed),
        **overrides,
    )
    return AuctioneerServer(server_config, transport), grid, users


def _make_client(server, grid, users, su_id, transport, **kwargs):
    return SUClient(
        su_id, users[su_id], server.keyring, server.scale, grid, 6,
        transport, **kwargs,
    )


FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)


# --- retry / backoff ----------------------------------------------------------


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
    rng = random.Random(0)
    delays = [policy.delay(a, rng) for a in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
    jittered = RetryPolicy(base_delay=0.1, jitter=0.5)
    draw = jittered.delay(0, random.Random(1))
    assert 0.1 <= draw <= 0.15


def test_connect_retries_through_transient_failures():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=1)

    async def scenario():
        inner = MemoryTransport()
        server, grid, users = _make_server(config, inner)
        await server.start()
        flaky = FlakyTransport(inner, failures=2)
        client = _make_client(server, grid, users, 0, flaky, retry=FAST_RETRY)
        announcement = await asyncio.wait_for(client.connect(), 5.0)
        attempts = client.connect_attempts
        client.close()
        await server.stop()
        return announcement, attempts

    announcement, attempts = asyncio.run(scenario())
    assert announcement["n_users"] == 2
    assert attempts == 3  # two injected failures + the success


def test_connect_gives_up_after_max_attempts():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=1)

    async def scenario():
        transport = MemoryTransport()  # never listening
        grid, users = build_population(config)
        from repro.lppa.ttp import TrustedThirdParty

        _, keyring, scale = TrustedThirdParty.setup(
            protocol_seed(config.seed), config.n_channels, bmax=config.bmax
        )
        client = SUClient(
            0, users[0], keyring, scale, grid, 6, transport, retry=FAST_RETRY
        )
        with pytest.raises(TransportClosed):
            await asyncio.wait_for(client.connect(), 5.0)
        return client.connect_attempts

    assert asyncio.run(scenario()) == FAST_RETRY.max_attempts


# --- dead peers and stragglers ------------------------------------------------


def test_mid_frame_disconnect_does_not_poison_the_round():
    config = LoadgenConfig(n_users=3, n_channels=6, seed=13)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(
            config, transport, location_deadline=2.0, bid_deadline=2.0
        )
        await server.start()

        good = [
            _make_client(server, grid, users, su, transport) for su in (0, 1)
        ]
        good_tasks = [asyncio.ensure_future(c.run(1)) for c in good]

        # SU 2 joins, then dies halfway through a LOCATION frame.
        conn = await transport.connect()
        await write_frame(conn, FrameType.HELLO, pack_json({"su": 2}))
        await read_frame(conn, strict=True)  # WELCOME
        await server.wait_for_clients(3, timeout=5.0)
        round_task = asyncio.ensure_future(
            server.run_round(round_entropy(config.seed, 0))
        )
        await read_frame(conn, strict=True)  # ROUND_BEGIN
        blob = encode_frame(FrameType.LOCATION, b"x" * 40)
        await conn.write(blob[: len(blob) // 2])
        conn.close()

        report = await asyncio.wait_for(round_task, 10.0)
        rounds = await asyncio.gather(*good_tasks)
        await server.stop()
        return report, rounds

    report, rounds = asyncio.run(scenario())
    # The round completed with the survivors; the dense remap renumbered
    # SUs 0,1 onto slots 0,1 and the dead SU is reported as a straggler.
    assert report.participants == (0, 1)
    assert report.stragglers == (2,)
    assert report.result.outcome.n_users == 2
    assert rounds == [1, 1]  # rounds each survivor's run() played


def test_late_submission_gets_clean_error_not_a_hang():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=19)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(
            config, transport, location_deadline=0.3, bid_deadline=2.0
        )
        await server.start()

        prompt = _make_client(server, grid, users, 0, transport)
        prompt_task = asyncio.ensure_future(prompt.run(1))

        # SU 1 registers but sleeps through the location deadline.
        conn = await transport.connect()
        await write_frame(conn, FrameType.HELLO, pack_json({"su": 1}))
        await read_frame(conn, strict=True)  # WELCOME
        await server.wait_for_clients(2, timeout=5.0)
        round_task = asyncio.ensure_future(
            server.run_round(round_entropy(config.seed, 0))
        )
        await read_frame(conn, strict=True)  # ROUND_BEGIN
        await asyncio.sleep(0.6)  # straggle past the 0.3s deadline
        from repro.lppa.codec import encode_location
        from repro.lppa.location import submit_location

        late = submit_location(1, users[1].cell, server.keyring.g0, grid, 6)
        await write_frame(conn, FrameType.LOCATION, encode_location(late))
        ftype, payload = await asyncio.wait_for(read_frame(conn, strict=True), 5.0)

        report = await asyncio.wait_for(round_task, 10.0)
        await prompt_task
        # The connection survived the protocol error: a well-formed BYE
        # still reaches the straggler at shutdown.
        stop_task = asyncio.ensure_future(server.stop())
        bye_type, _ = await asyncio.wait_for(read_frame(conn, strict=True), 5.0)
        await stop_task
        return report, ftype, unpack_json(payload), bye_type

    report, ftype, error_doc, bye_type = asyncio.run(scenario())
    assert ftype is FrameType.ERROR
    assert error_doc["code"] == ERR_LATE
    assert bye_type is FrameType.BYE
    assert report.participants == (0,)
    assert report.stragglers == (1,)


def test_client_read_timeout_is_bounded():
    config = LoadgenConfig(n_users=1, n_channels=6, seed=23)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        client = _make_client(
            server, grid, users, 0, transport, frame_timeout=0.2
        )
        await client.connect()
        # The server never starts a round: the read must time out instead
        # of hanging forever.
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(client.run_round(), 5.0)
        client.close()
        await server.stop()

    asyncio.run(scenario())


async def _until(predicate, timeout=5.0):
    """Poll ``predicate`` until it holds; ``False`` if ``timeout`` passes."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            return False
        await asyncio.sleep(0.005)
    return True


def test_a_stalled_reader_costs_only_itself():
    config = LoadgenConfig(n_users=3, n_channels=6, seed=53)

    async def scenario():
        # A pipe limit under one control frame: a single unread frame puts
        # a connection over its high-water mark.
        transport = MemoryTransport(limit=16)
        server, grid, users = _make_server(
            config, transport, location_deadline=5.0, bid_deadline=5.0
        )
        await server.start()
        scheme = server.scheme
        entropy = round_entropy(config.seed, 0)

        # SU 0 registers and stops reading: its WELCOME stays unread.
        conn = await transport.connect()
        await write_frame(conn, FrameType.HELLO, pack_json({"su": 0}))
        good = [_make_client(server, grid, users, su, transport) for su in (1, 2)]
        good_tasks = [asyncio.ensure_future(c.run(1)) for c in good]
        await server.wait_for_clients(3, timeout=5.0)
        round_task = asyncio.ensure_future(server.run_round(entropy))

        # The location needs no round entropy, so SU 0 submits it without
        # reading ROUND_BEGIN.  SUs 1 and 2 must get ROUND_BEGIN and submit
        # while SU 0's copy waits: 3 HELLO + 3 LOCATION frames in.
        assert await _until(lambda: server.phase.value == "collect-locations")
        await write_frame(conn, FrameType.LOCATION, scheme.encode_location(
            scheme.make_location(0, users[0].cell, server.keyring, grid, 6)
        ))
        located = await _until(lambda: server.wire.frames_in == 6)

        # SU 0 reads its WELCOME only: ROUND_BEGIN takes its place in the
        # pipe, so BID_REQUEST finds SU 0 over its mark again.  SUs 1 and 2
        # must still get BID_REQUEST and submit their bids.
        frames = [await asyncio.wait_for(read_frame(conn, strict=True), 5.0)]
        bid = await _until(lambda: server.wire.frames_in == 8)

        for _ in range(2):  # ROUND_BEGIN, BID_REQUEST
            frames.append(await asyncio.wait_for(read_frame(conn, strict=True), 5.0))
        bids = scheme.make_bids(
            0, users[0].bids, server.keyring, server.scale,
            bidder_rng(entropy, 0),
        )[0]
        await write_frame(conn, FrameType.BIDS, scheme.encode_bids(bids))
        frames.append(await asyncio.wait_for(read_frame(conn, strict=True), 5.0))

        report = await asyncio.wait_for(round_task, 10.0)
        played = await asyncio.wait_for(asyncio.gather(*good_tasks), 10.0)
        await server.stop()
        return located, bid, [ftype for ftype, _ in frames], report, played

    located, bid, frames, report, played = asyncio.run(scenario())
    assert located, "SUs 1 and 2 did not submit locations while SU 0 stalled"
    assert bid, "SUs 1 and 2 did not submit bids while SU 0 stalled"
    assert frames == [
        FrameType.WELCOME, FrameType.ROUND_BEGIN,
        FrameType.BID_REQUEST, FrameType.RESULT,
    ]
    assert report.participants == (0, 1, 2)
    assert report.stragglers == ()
    assert played == [1, 1]


def test_frames_to_one_su_keep_send_order():
    """A frame queued behind the high-water mark is not overtaken by a later
    frame that finds the pipe writable again before the queued one ran."""
    config = LoadgenConfig(n_users=1, n_channels=6, seed=59)

    async def scenario():
        transport = MemoryTransport(limit=16)
        server, _, _ = _make_server(config, transport)
        await server.start()
        conn = await transport.connect()
        await write_frame(conn, FrameType.HELLO, pack_json({"su": 0}))
        await server.wait_for_clients(1, timeout=5.0)
        # WELCOME sits unread, so the first frame queues.
        first = asyncio.ensure_future(
            server._broadcast((0,), FrameType.ERROR, pack_json({"n": 1}))
        )
        await asyncio.sleep(0.01)
        # The second broadcast takes its first turn right after the buffered
        # WELCOME is read, which frees the pipe: before the queued first
        # frame has had a turn to write.
        second = asyncio.ensure_future(
            server._broadcast((0,), FrameType.ERROR, pack_json({"n": 2}))
        )
        frames = [await read_frame(conn, strict=True)]
        for _ in range(2):
            frames.append(await asyncio.wait_for(read_frame(conn, strict=True), 5.0))
        await asyncio.wait_for(asyncio.gather(first, second), 5.0)
        await server.stop()
        return frames

    frames = asyncio.run(scenario())
    assert frames[0][0] is FrameType.WELCOME
    assert [unpack_json(payload)["n"] for _, payload in frames[1:]] == [1, 2]


# --- malformed bytes and bad registrations ------------------------------------


def test_malformed_frame_mid_round_disconnects_only_the_offender():
    config = LoadgenConfig(n_users=3, n_channels=6, seed=29)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(
            config, transport, location_deadline=2.0, bid_deadline=2.0
        )
        await server.start()
        good = [
            _make_client(server, grid, users, su, transport) for su in (0, 1)
        ]
        good_tasks = [asyncio.ensure_future(c.run(1)) for c in good]

        conn = await transport.connect()
        await write_frame(conn, FrameType.HELLO, pack_json({"su": 2}))
        await read_frame(conn, strict=True)  # WELCOME
        await server.wait_for_clients(3, timeout=5.0)
        round_task = asyncio.ensure_future(
            server.run_round(round_entropy(config.seed, 0))
        )
        await read_frame(conn, strict=True)  # ROUND_BEGIN
        # A LOCATION frame whose payload is garbage to the message codec.
        await write_frame(conn, FrameType.LOCATION, b"\xde\xad\xbe\xef")
        ftype, payload = await asyncio.wait_for(read_frame(conn, strict=True), 5.0)

        report = await asyncio.wait_for(round_task, 10.0)
        await asyncio.gather(*good_tasks)
        await server.stop()
        return report, ftype, unpack_json(payload)

    report, ftype, error_doc = asyncio.run(scenario())
    assert ftype is FrameType.ERROR
    assert error_doc["code"] == ERR_MALFORMED
    assert report.participants == (0, 1)
    assert report.stragglers == (2,)


def test_duplicate_su_registration_rejected():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=31)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        first = _make_client(server, grid, users, 0, transport)
        await first.connect()
        impostor = _make_client(server, grid, users, 0, transport)
        with pytest.raises(ProtocolError) as excinfo:
            await asyncio.wait_for(impostor.connect(), 5.0)
        first.close()
        await server.stop()
        return excinfo.value.code

    assert asyncio.run(scenario()) == ERR_DUPLICATE_SU


def test_out_of_range_su_rejected():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=37)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        conn = await transport.connect()
        await write_frame(conn, FrameType.HELLO, pack_json({"su": 99}))
        ftype, payload = await asyncio.wait_for(read_frame(conn, strict=True), 5.0)
        await server.stop()
        return ftype, unpack_json(payload)

    ftype, doc = asyncio.run(scenario())
    assert ftype is FrameType.ERROR
    assert doc["code"] == "bad-hello"
