"""The periodically-online TTP service: decisions, windows, duty cycle."""

import asyncio
import random

import pytest

from repro import obs
from repro.lppa.batching import TtpSchedule
from repro.lppa.bids_advanced import submit_bids_advanced
from repro.lppa.bids_basic import seal_bid_values
from repro.lppa.bids_ope import OpeBid, submit_bids_ope
from repro.lppa.messages import MaskedBid
from repro.lppa.ttp import ChargeStatus, TrustedThirdParty
from repro.net.ttp_service import TtpService
from repro.obs.trace import TraceRecorder

N_CHANNELS = 4
SEED = b"ttp-service-test"


def _charge_requests(n_requests, seed=0):
    """Winner-style (channel, MaskedBid) pairs the TTP can decrypt."""
    ttp, keyring, scale = TrustedThirdParty.setup(SEED, N_CHANNELS, bmax=30)
    rng = random.Random(seed)
    requests = []
    user = 0
    while len(requests) < n_requests:
        bids = [rng.randint(0, 30) for _ in range(N_CHANNELS)]
        submission, _ = submit_bids_advanced(user, bids, keyring, scale, rng)
        for channel in range(N_CHANNELS):
            if len(requests) < n_requests:
                requests.append((channel, submission.channel_bids[channel]))
        user += 1
    return ttp, requests


def _reference_decisions(requests):
    """What a plain (always-online) TTP decides for the same ciphertexts."""
    ttp, _, _ = TrustedThirdParty.setup(SEED, N_CHANNELS, bmax=30)
    return ttp.process_batch(requests)


def test_always_on_service_matches_process_batch():
    ttp, requests = _charge_requests(7)
    expected = _reference_decisions(requests)

    async def scenario():
        service = TtpService(ttp)
        await service.start()
        try:
            return await asyncio.wait_for(service.charge_batch(requests), 5.0)
        finally:
            await service.stop()

    decisions = asyncio.run(scenario())
    assert decisions == expected


def test_scheduled_windows_respect_capacity():
    ttp, requests = _charge_requests(7)
    expected = _reference_decisions(requests)

    async def scenario():
        service = TtpService(
            ttp, TtpSchedule(period=1, capacity=2), time_scale=0.001
        )
        await service.start()
        try:
            decisions = await asyncio.wait_for(service.charge_batch(requests), 10.0)
        finally:
            await service.stop()
        return decisions, service.stats()

    decisions, stats = asyncio.run(scenario())
    assert decisions == expected
    # 7 requests at <= 2 per window: at least 4 windows did work.
    assert stats.requests_served == 7
    assert stats.windows_used >= 4
    assert 0.0 < stats.duty_cycle <= 1.0


def test_concurrent_batches_are_fifo_and_independent():
    ttp, requests = _charge_requests(6)
    expected = _reference_decisions(requests)
    first, second = requests[:4], requests[4:]

    async def scenario():
        service = TtpService(
            ttp, TtpSchedule(period=1, capacity=3), time_scale=0.001
        )
        await service.start()
        try:
            return await asyncio.wait_for(
                asyncio.gather(
                    service.charge_batch(first), service.charge_batch(second)
                ),
                10.0,
            )
        finally:
            await service.stop()

    decisions_a, decisions_b = asyncio.run(scenario())
    assert decisions_a + decisions_b == expected


def test_stop_drains_backlog_before_going_offline():
    ttp, requests = _charge_requests(5)
    expected = _reference_decisions(requests)

    async def scenario():
        service = TtpService(ttp)
        await service.start()
        pending = asyncio.ensure_future(service.charge_batch(requests))
        await asyncio.sleep(0)  # let the batch enqueue before stopping
        await service.stop()
        return await asyncio.wait_for(pending, 5.0)

    assert asyncio.run(scenario()) == expected


def test_empty_batch_resolves_immediately():
    ttp, _ = _charge_requests(1)

    async def scenario():
        service = TtpService(ttp)
        await service.start()
        try:
            return await service.charge_batch([])
        finally:
            await service.stop()

    assert asyncio.run(scenario()) == []


def test_charge_batch_requires_running_service():
    ttp, requests = _charge_requests(1)

    async def scenario():
        service = TtpService(ttp)
        with pytest.raises(RuntimeError):
            await service.charge_batch(requests)

    asyncio.run(scenario())


def test_time_scale_must_be_positive():
    ttp, _ = _charge_requests(1)
    with pytest.raises(ValueError):
        TtpService(ttp, time_scale=0.0)


# --- one process_batch call per online window ----------------------------------


def _mixed_requests(scheme):
    """VALID, INVALID_ZERO and CHEATING winners in one queue.

    The cheaters: a family swapped in from another bid of the same
    channel, a bid charged on a channel whose key did not mask it, and a
    ciphertext sealing a value beyond the scale.  Under ``"bloom"`` OPE
    bids (one with a swapped OPE value) ride in the same batch.
    """
    ttp, keyring, scale = TrustedThirdParty.setup(SEED, N_CHANNELS, bmax=30)
    rng = random.Random(11)
    low, _ = submit_bids_advanced(0, [7, 0, 30, 1], keyring, scale, rng)
    high, _ = submit_bids_advanced(1, [12, 12, 0, 25], keyring, scale, rng)
    requests = [(ch, sub.channel_bids[ch]) for sub in (low, high) for ch in range(N_CHANNELS)]
    swapped = MaskedBid(
        family=high.channel_bids[0].family,
        tail=high.channel_bids[0].tail,
        ciphertext=low.channel_bids[0].ciphertext,
    )
    beyond = MaskedBid(
        family=low.channel_bids[2].family,
        tail=low.channel_bids[2].tail,
        ciphertext=seal_bid_values(keyring.gc, [scale.emax + 1], [rng.getrandbits(32)])[0],
    )
    cheaters = [len(requests), len(requests) + 1, len(requests) + 2]
    requests += [(0, swapped), (1, low.channel_bids[0]), (2, beyond)]
    if scheme == "bloom":
        ope, _ = submit_bids_ope(2, [9, 0, 3, 30], keyring, scale, rng)
        bids = ope.channel_bids
        forged = OpeBid(
            ope_value=bids[3].ope_value, ope_bytes=bids[0].ope_bytes,
            ciphertext=bids[0].ciphertext,
        )
        requests += [(ch, bids[ch]) for ch in range(N_CHANNELS)] + [(0, forged)]
        cheaters.append(len(requests) - 1)
    return ttp, requests, cheaters


def _per_request_decisions(requests):
    """Each winner charged on its own, as the service did before batching."""
    ttp, _, _ = TrustedThirdParty.setup(SEED, N_CHANNELS, bmax=30)
    return [ttp.process_charge(channel, bid) for channel, bid in requests]


def _serve(ttp, requests, schedule):
    async def scenario():
        service = TtpService(ttp, schedule, time_scale=0.001)
        await service.start()
        try:
            decisions = await asyncio.wait_for(service.charge_batch(requests), 10.0)
        finally:
            await service.stop()
        return decisions, service.stats()

    return asyncio.run(scenario())


SCHEDULES = {
    "always-on": None,
    "capacity-4": TtpSchedule(period=1, capacity=4),
    "capacity-1": TtpSchedule(period=1, capacity=1),
}


@pytest.mark.parametrize("scheme", ["ppbs", "bloom"])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_window_batches_decide_like_per_request_charges(scheme, schedule):
    ttp, requests, cheaters = _mixed_requests(scheme)
    expected = _per_request_decisions(requests)
    assert {d.status for d in expected} == set(ChargeStatus)
    assert all(expected[i].status is ChargeStatus.CHEATING for i in cheaters)
    decisions, stats = _serve(ttp, requests, SCHEDULES[schedule])
    assert decisions == expected
    assert stats.requests_served == len(requests)


def test_each_window_is_one_process_batch_call():
    """A capacity smaller than the deposit splits it across windows, and
    every window that does work decides its share in one batch."""
    ttp, requests, _ = _mixed_requests("bloom")
    capacity = 4
    with obs.collecting() as registry:
        decisions, stats = _serve(ttp, requests, TtpSchedule(period=1, capacity=capacity))
    counters = registry.totals()
    assert decisions == _per_request_decisions(requests)
    assert stats.windows_used == -(-len(requests) // capacity)
    assert counters["ttp.batches"] == stats.windows_used
    assert counters["ttp.charges"] == len(requests)


def _charge_events(recorder):
    return [
        (e["kind"], e["channel"], e["payload_bytes"], e["wire_size"], e.get("status"),
         e.get("charge"))
        for e in recorder.events()
        if e["type"] == "message" and e["kind"] in ("charge_request", "charge_decision")
    ]


@pytest.mark.parametrize("scheme", ["ppbs", "bloom"])
def test_window_batches_keep_the_per_request_trace_order(scheme):
    ttp, requests, _ = _mixed_requests(scheme)
    per_request = TraceRecorder()
    with obs.collecting(trace=per_request):
        _per_request_decisions(requests)
    windowed = TraceRecorder()
    with obs.collecting(trace=windowed):
        _serve(ttp, requests, TtpSchedule(period=1, capacity=3))
    events = _charge_events(windowed)
    assert events == _charge_events(per_request)
    kinds = [kind for kind, *_ in events]
    assert kinds == ["charge_request", "charge_decision"] * len(requests)
