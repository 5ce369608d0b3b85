"""When a collect phase ends, and how its submissions are renumbered.

The server keeps the set of expected SUs still outstanding; a submission
or a disconnect removes one, and the phase ends when none is left:

* on the last expected submission, long before the deadline;
* when the last outstanding SU disconnects, with the others' submissions;
* the dense remap reuses a submission already at its slot and rebuilds,
  through the checked constructor, only one whose id changes.
"""

import asyncio
import random

from repro.lppa.bids_advanced import submit_bids_advanced
from repro.lppa.codec import encode_bids, encode_location
from repro.lppa.location import submit_location
from repro.net.frames import FrameType, pack_json, read_frame, write_frame
from repro.net.loadgen import LoadgenConfig, round_entropy
from repro.net.server import RoundPhase, _dense
from repro.net.transport import MemoryTransport

from tests.net.test_faults import _make_server

#: Far beyond any wait below: a phase that ends must end by its events.
DEADLINE_S = 30.0
WAIT_S = 5.0


async def _raw_su(transport, su):
    conn = await transport.connect()
    await write_frame(conn, FrameType.HELLO, pack_json({"su": su}))
    await read_frame(conn, strict=True)  # WELCOME
    return conn


async def _expect(conn, ftype):
    got, _ = await asyncio.wait_for(read_frame(conn, strict=True), WAIT_S)
    assert got is ftype


async def _settle():
    for _ in range(20):
        await asyncio.sleep(0)


def _round(scenario_body, seed):
    config = LoadgenConfig(n_users=2, n_channels=3, seed=seed)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(
            config, transport, location_deadline=DEADLINE_S, bid_deadline=DEADLINE_S
        )
        await server.start()
        conns = [await _raw_su(transport, su) for su in (0, 1)]
        await server.wait_for_clients(2, timeout=WAIT_S)
        round_task = asyncio.ensure_future(
            server.run_round(round_entropy(config.seed, 0))
        )

        def location(su):
            sub = submit_location(su, users[su].cell, server.keyring.g0, grid, 6)
            return write_frame(conns[su], FrameType.LOCATION, encode_location(sub))

        def bids(su):
            sub, _ = submit_bids_advanced(
                su, users[su].bids, server.keyring, server.scale, random.Random(su)
            )
            return write_frame(conns[su], FrameType.BIDS, encode_bids(sub))

        observed = await scenario_body(server, conns, location, bids)
        report = await asyncio.wait_for(round_task, WAIT_S)
        for conn in conns:
            conn.close()
        await server.stop()
        return observed, report

    return asyncio.run(scenario())


def test_a_phase_ends_on_the_last_expected_submission():
    async def body(server, conns, location, bids):
        for conn in conns:
            await _expect(conn, FrameType.ROUND_BEGIN)
        await location(0)
        await _settle()
        open_after_one = server._phase is RoundPhase.COLLECT_LOCATIONS
        await location(1)
        for conn in conns:
            await _expect(conn, FrameType.BID_REQUEST)
        await bids(1)
        await _settle()
        bids_open_after_one = server._phase is RoundPhase.COLLECT_BIDS
        await bids(0)
        return open_after_one, bids_open_after_one

    (open_after_one, bids_open_after_one), report = _round(body, seed=71)
    assert open_after_one and bids_open_after_one
    assert report.participants == (0, 1) and report.stragglers == ()


def test_a_phase_ends_when_the_last_outstanding_su_disconnects():
    async def body(server, conns, location, bids):
        for conn in conns:
            await _expect(conn, FrameType.ROUND_BEGIN)
        await location(0)
        await location(1)
        for conn in conns:
            await _expect(conn, FrameType.BID_REQUEST)
        await bids(0)
        await _settle()
        open_after_one = server._phase is RoundPhase.COLLECT_BIDS
        conns[1].close()
        return open_after_one

    open_after_one, report = _round(body, seed=73)
    assert open_after_one
    assert report.participants == (0,) and report.stragglers == (1,)


def test_the_dense_remap_rebuilds_only_renumbered_submissions():
    config = LoadgenConfig(n_users=3, n_channels=3, seed=79)
    server, grid, users = _make_server(config, MemoryTransport())
    g0 = server.keyring.g0
    store = {su: submit_location(su, users[su].cell, g0, grid, 6) for su in (0, 2)}
    kept, moved = _dense(store, (0, 2))
    assert kept is store[0]
    assert moved.user_id == 1 and moved is not store[2]
    assert moved == submit_location(1, users[2].cell, g0, grid, 6)
    assert moved.wire_size() == store[2].wire_size() == len(encode_location(moved))
