"""The cyclic collector is held off for exactly the length of a round.

Every round entry point (``run_lppa_auction``, ``run_fast_lppa``,
``AuctioneerServer.run_round``) runs under
:func:`repro.lppa.round.collector_paused`.  The contract under test:

* the collector is enabled again after every round, also one that aborts
  or fails inside a phase;
* a caller that disabled the collector finds it still disabled;
* overlapping pauses (two server rounds interleaved on one event loop)
  re-enable it only when the last one ends;
* a round's result does not depend on the collector;
* the premise: a round leaves no cyclic garbage, so holding the collector
  off never holds memory past the round.
"""

import asyncio
import gc

import pytest

from repro.experiments.scale import synthesize_population
from repro.lppa.fastsim import run_fast_lppa
from repro.lppa.round import CryptoBackend, PlainBackend, collector_paused
from repro.lppa.session import run_lppa_auction
from repro.net.loadgen import LoadgenConfig, round_entropy
from repro.net.server import RoundAborted
from repro.net.transport import MemoryTransport

from tests.net.test_faults import _make_client, _make_server


@pytest.fixture(scope="module")
def population():
    """Twenty-five SUs at the paper's density."""
    return synthesize_population(25)


@pytest.fixture()
def collector_off():
    """Run a test with the collector disabled, restoring it afterwards."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _session(population, label="pause"):
    users, grid = population
    return run_lppa_auction(
        users, grid, two_lambda=6, bmax=127, entropy=label.encode()
    )


def _fastsim(population, label="pause"):
    users, _ = population
    return run_fast_lppa(users, two_lambda=6, bmax=127, entropy=label.encode())


def _server_rounds(n_rounds, n_users=4, seed=7):
    """``n_rounds`` rounds of ``n_users`` SUs over ``MemoryTransport``."""
    config = LoadgenConfig(n_users=n_users, n_channels=6, seed=seed)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(config, transport)
        await server.start()
        clients = [
            _make_client(server, grid, users, su, transport)
            for su in range(n_users)
        ]
        for client in clients:
            await client.connect()
        reports = []
        for r in range(n_rounds):
            tasks = [asyncio.ensure_future(c.run_round()) for c in clients]
            reports.append(await server.run_round(round_entropy(config.seed, r)))
            await asyncio.gather(*tasks)
        for client in clients:
            client.close()
        await server.stop()
        return reports

    return asyncio.run(scenario())


# -- the helper itself -------------------------------------------------------


def test_nested_pauses_resume_only_at_the_outermost_exit():
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_pauses_resume_when_the_last_one_ends():
    first, second = collector_paused(), collector_paused()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)  # not LIFO: the second is still open
    assert not gc.isenabled()
    second.__exit__(None, None, None)
    assert gc.isenabled()


def test_a_pause_ended_by_an_exception_resumes():
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("boom")
    assert gc.isenabled()


# -- every entry point resumes ------------------------------------------------


def test_collector_is_enabled_after_an_in_process_round(population):
    _session(population)
    assert gc.isenabled()


def test_collector_is_enabled_after_a_fastsim_round(population):
    _fastsim(population)
    assert gc.isenabled()


def test_collector_is_enabled_after_a_server_round():
    _server_rounds(1)
    assert gc.isenabled()


def test_round_paths_run_with_the_collector_disabled(population, monkeypatch):
    seen = []
    original = PlainBackend.allocate

    def spy(self, state):
        seen.append(gc.isenabled())
        return original(self, state)

    monkeypatch.setattr(PlainBackend, "allocate", spy)
    _fastsim(population)
    assert seen == [False]


def test_collector_is_enabled_after_a_round_that_fails_in_a_phase(
    population, monkeypatch
):
    def boom(self, state):
        raise RuntimeError("allocation failed")

    monkeypatch.setattr(CryptoBackend, "allocate", boom)
    monkeypatch.setattr(PlainBackend, "allocate", boom)
    with pytest.raises(RuntimeError, match="allocation failed"):
        _session(population)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="allocation failed"):
        _fastsim(population)
    assert gc.isenabled()


def test_collector_is_enabled_after_an_aborted_server_round():
    config = LoadgenConfig(n_users=2, n_channels=6, seed=43)

    async def scenario():
        transport = MemoryTransport()
        server, grid, users = _make_server(
            config, transport, location_deadline=0.05
        )
        await server.start()
        # Connected but never plays: the round aborts at its deadline.
        idle = _make_client(server, grid, users, 0, transport)
        await idle.connect()
        with pytest.raises(RoundAborted):
            await server.run_round(round_entropy(config.seed, 0))
        idle.close()
        await server.stop()

    asyncio.run(scenario())
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_finds_it_disabled(
    population, collector_off, monkeypatch
):
    _session(population)
    _fastsim(population)
    _server_rounds(1)
    assert not gc.isenabled()

    def boom(self, state):
        raise RuntimeError("allocation failed")

    monkeypatch.setattr(PlainBackend, "allocate", boom)
    with pytest.raises(RuntimeError):
        _fastsim(population)
    assert not gc.isenabled()


def test_overlapping_server_rounds_resume_when_the_second_one_ends():
    """Round A completes while round B is still collecting on the same
    loop: the collector stays off until B ends."""
    config = LoadgenConfig(n_users=2, n_channels=6, seed=11)

    async def scenario():
        transport_a, transport_b = MemoryTransport(), MemoryTransport()
        server_a, grid, users = _make_server(config, transport_a)
        server_b, _, _ = _make_server(config, transport_b, location_deadline=0.3)
        await server_a.start()
        await server_b.start()
        clients = [
            _make_client(server_a, grid, users, su, transport_a) for su in range(2)
        ]
        for client in clients:
            await client.connect()
        idle = _make_client(server_b, grid, users, 0, transport_b)
        await idle.connect()

        round_b = asyncio.ensure_future(
            server_b.run_round(round_entropy(config.seed, 0))
        )
        await asyncio.sleep(0)
        tasks = [asyncio.ensure_future(c.run_round()) for c in clients]
        await server_a.run_round(round_entropy(config.seed, 0))
        await asyncio.gather(*tasks)
        after_a = (gc.isenabled(), round_b.done())
        with pytest.raises(RoundAborted):
            await round_b
        after_b = gc.isenabled()
        for client in [*clients, idle]:
            client.close()
        await server_a.stop()
        await server_b.stop()
        return after_a, after_b

    after_a, after_b = asyncio.run(scenario())
    assert after_a == (False, False)
    assert after_b is True


# -- outputs do not depend on the collector -----------------------------------


def test_results_are_identical_with_the_callers_collector_on_or_off(population):
    on = (_session(population), _fastsim(population), _server_rounds(2))
    gc.disable()
    try:
        off = (_session(population), _fastsim(population), _server_rounds(2))
    finally:
        gc.enable()
    assert on[0] == off[0]
    assert on[1] == off[1]
    assert [r.result for r in on[2]] == [r.result for r in off[2]]


# -- the premise: rounds form no cycles ---------------------------------------


def test_rounds_leave_no_cyclic_garbage(population, collector_off):
    """A round's working state is freed by reference counting alone.

    If a change made a round build reference cycles, the pause would hold
    them until the round ends and the round's peak memory would grow;
    this fails first.
    """
    gc.collect()
    for i in range(3):
        _session(population, f"cycles:{i}")
        _fastsim(population, f"cycles:{i}")
    _session(synthesize_population(250), "cycles:250")
    assert gc.collect() == 0
    _server_rounds(3, n_users=25)
    assert gc.collect() == 0

