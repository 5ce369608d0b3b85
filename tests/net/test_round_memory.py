"""A net round leaves nothing behind on either endpoint.

The paper's auction is dynamic: the same SUs submit masked locations and
bids round after round, so neither the server nor an SU client may keep
anything per round played.  The contract under test, over ``MemoryTransport``
(25 SUs) and loopback TCP (2 SUs), with every client driven by
:meth:`SUClient.run`:

* the gc-tracked object count after round 40 equals the count after round
  20 within a fixed slack that does not grow with the rounds played (the
  scenario runs on a private mask cache, emptied before each count: the
  bounded LRU still takes in the masks of new filler draws);
* once :meth:`AuctioneerServer.run_round` returns, no location or bid
  submission made since the scenario began is alive anywhere: the server
  dropped its decoded stores inside the collector pause, and each client
  dropped what it sent before reading the RESULT (submissions that other
  code in the process made earlier are held and not counted);
* the rounds leave no cyclic garbage, so the collector pause holds no
  memory past a round.
"""

import asyncio
import gc

import pytest

from repro.crypto.cache import MaskCache, get_mask_cache, set_mask_cache
from repro.lppa.messages import BidSubmission, LocationSubmission, MaskedBid
from repro.net.loadgen import LoadgenConfig, round_entropy
from repro.net.transport import MemoryTransport, TcpTransport
from repro.prefix.membership import MaskedSet

from tests.net.test_faults import _make_client, _make_server

ROUNDS = 41  # rounds 0..40; the counts are taken after rounds 20 and 40
COUNTED = (20, 40)
#: Objects the process may gain or lose between round 20 and round 40.
#: The rounds themselves hold none (both transports read within 2); a
#: client that kept one RESULT document per round gained 4 objects per SU
#: per round: 2 000 over 25 SUs, 160 over 2.
SLACK = 32

TRANSPORTS = {
    "memory-25": (MemoryTransport, 25),
    "tcp-2": (lambda: TcpTransport("127.0.0.1", 0), 2),
}


def _submissions() -> list:
    return [
        o for o in gc.get_objects()
        if type(o) is LocationSubmission or type(o) is BidSubmission
    ]


def _live_submissions(held_ids) -> int:
    """Submissions alive now that were not alive (and held) before."""
    return sum(1 for o in _submissions() if id(o) not in held_ids)


async def _settle(server, clients):
    # Every byte the server wrote has been read, so each client has its
    # RESULT and waits on the next ROUND_BEGIN; then count what is reachable.
    async def drained():
        while sum(c.bytes_received for c in clients) < server.wire.bytes_out:
            await asyncio.sleep(0.001)

    await asyncio.wait_for(drained(), 10.0)
    await asyncio.sleep(0.01)


def _play(transport_factory, n_users, seed=5, rounds=ROUNDS):
    """Play ``rounds`` rounds with the collector off; returns the object
    counts after the counted rounds, what the collection before each
    count found unreachable, the live submissions made since the start
    when each ``run_round`` returned and the rounds each client's ``run``
    reports."""
    config = LoadgenConfig(n_users=n_users, n_channels=6, seed=seed)
    out = {"counts": {}, "cyclic": [], "live": []}

    async def scenario():
        transport = transport_factory()
        server, grid, users = _make_server(config, transport)
        await server.start()
        clients = [
            _make_client(server, grid, users, su, transport)
            for su in range(n_users)
        ]
        # More rounds than the server plays: each client ends on BYE.
        tasks = [asyncio.ensure_future(c.run(rounds + 10)) for c in clients]
        await server.wait_for_clients(n_users, timeout=10.0)
        for r in range(rounds):
            await server.run_round(round_entropy(config.seed, r))
            out["live"].append(_live_submissions(held_ids))
            if r in COUNTED:
                await _settle(server, clients)
                get_mask_cache().clear()
                out["cyclic"].append(gc.collect())
                # A second pass untracks the tuples the first left holding
                # only untracked objects, so what is counted is reachable.
                gc.collect()
                out["counts"][r] = len(gc.get_objects())
        await server.stop()
        out["played"] = await asyncio.gather(*tasks)

    previous = set_mask_cache(MaskCache())
    gc.collect()
    # Held alive for the whole scenario, so no id in the snapshot is reused.
    held = _submissions()
    held_ids = {id(o) for o in held}
    gc.disable()
    try:
        asyncio.run(scenario())
    finally:
        gc.enable()
        set_mask_cache(previous)
    return out


@pytest.fixture(scope="module", params=sorted(TRANSPORTS))
def played(request):
    factory, n_users = TRANSPORTS[request.param]
    return _play(factory, n_users)


def test_object_count_does_not_grow_with_rounds(played):
    first, last = (played["counts"][r] for r in COUNTED)
    assert abs(last - first) <= SLACK, (first, last)


def test_no_submission_outlives_its_round(played):
    assert played["live"] == [0] * ROUNDS


def test_run_returns_the_rounds_played(played):
    assert set(played["played"]) == {ROUNDS}


def test_rounds_leave_no_cyclic_garbage(played):
    # Each count's collection covers the rounds since the one before.
    assert played["cyclic"] == [0] * len(COUNTED)


def test_a_submission_made_before_the_rounds_is_not_counted():
    digests = MaskedSet(frozenset({bytes(4)}), digest_bytes=4)
    earlier = [
        LocationSubmission(0, digests, digests, digests, digests),
        BidSubmission(0, (MaskedBid(digests, digests, bytes(16)),)),
    ]
    out = _play(MemoryTransport, 2, rounds=2)
    assert out["live"] == [0, 0]
    assert len(earlier) == 2  # still alive through the rounds
