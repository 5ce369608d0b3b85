"""The periodically-online TTP as an asyncio service.

Section V.C.2 of the paper ("Reducing the Online Time of TTP") argues the
TTP should come online in windows and drain a queue of charge requests.
:mod:`repro.lppa.batching` models that trade offline with unitless time;
this module runs it for real: the auctioneer server deposits winner
batches with :meth:`TtpService.charge_batch` and a background task drains
the queue on :class:`~repro.lppa.batching.TtpSchedule` windows (scaled to
wall seconds by ``time_scale``), at most ``schedule.capacity`` requests
per window, decided with one
:meth:`~repro.lppa.ttp.TrustedThirdParty.process_batch` call per window.
Without a schedule the service is *always on* and drains as work
arrives — the mode the deterministic tests and the differential
equivalence runs use, because decision values are independent of window
packing either way (each charge is verified in isolation).

Request order is FIFO across batches and preserved within a batch, so the
decisions line up with :func:`repro.lppa.auctioneer.charge_material`.
"""

from __future__ import annotations

import asyncio
import collections
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import trace
from repro.lppa.batching import TtpSchedule
from repro.lppa.messages import MaskedBid
from repro.lppa.ttp import ChargeDecision, TrustedThirdParty

__all__ = ["TtpService", "TtpServiceStats"]


@dataclass(frozen=True)
class TtpServiceStats:
    """Duty-cycle accounting over the service's lifetime."""

    requests_served: int
    windows_total: int
    windows_used: int

    @property
    def duty_cycle(self) -> float:
        """Fraction of online windows that actually processed work."""
        return self.windows_used / self.windows_total if self.windows_total else 0.0


class _Batch:
    """One deposited winner list and the future its caller awaits."""

    __slots__ = ("requests", "decisions", "remaining", "future")

    def __init__(self, requests: Sequence[Tuple[int, MaskedBid]]) -> None:
        self.requests = list(requests)
        self.decisions: List[Optional[ChargeDecision]] = [None] * len(requests)
        self.remaining = len(requests)
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()


class TtpService:
    """Drains the charge queue on the TTP's online windows."""

    def __init__(
        self,
        ttp: TrustedThirdParty,
        schedule: Optional[TtpSchedule] = None,
        *,
        time_scale: float = 0.01,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self._ttp = ttp
        self._schedule = schedule
        self._time_scale = time_scale
        self._queue: Deque[Tuple[_Batch, int]] = collections.deque()
        self._work = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        self._served = 0
        self._windows_total = 0
        self._windows_used = 0
        self._session: Optional[str] = None

    @property
    def ttp(self) -> TrustedThirdParty:
        return self._ttp

    def rekey(self, ttp: TrustedThirdParty) -> None:
        """Swap in a re-keyed TTP (epoch-service key redistribution).

        Only legal with an empty backlog: queued charge material was
        sealed under the previous ``gc`` and would decrypt to garbage
        under the new one.  The epoch scheduler rekeys between rounds,
        after the previous round's charges resolved.
        """
        if self._queue:
            raise RuntimeError(
                f"cannot rekey with {len(self._queue)} queued charge requests"
            )
        self._ttp = ttp

    def set_correlation(self, session: Optional[str]) -> None:
        """Stamp subsequent ``ttp_window`` trace events with ``session``.

        The auctioneer server passes its announcement-derived correlation
        key here on :meth:`AuctioneerServer.start`, so the TTP's events
        join the same cross-process timeline without wire changes.
        """
        self._session = session

    def stats(self) -> TtpServiceStats:
        """Duty-cycle accounting so far (windows, requests served)."""
        return TtpServiceStats(
            requests_served=self._served,
            windows_total=self._windows_total,
            windows_used=self._windows_used,
        )

    async def start(self) -> None:
        """Come online: begin draining the queue on the configured windows."""
        if self._task is not None:
            raise RuntimeError("TTP service already started")
        self._stopping = False
        self._task = asyncio.ensure_future(self._drain_loop())

    async def stop(self) -> None:
        """Finish the backlog, then go offline."""
        if self._task is None:
            return
        self._stopping = True
        self._work.set()
        await self._task
        self._task = None

    async def charge_batch(
        self, requests: Sequence[Tuple[int, MaskedBid]]
    ) -> List[ChargeDecision]:
        """Deposit one winner list; resolves when every request is served."""
        if self._task is None:
            raise RuntimeError("TTP service is not running")
        if not requests:
            return []
        obs.count("net.ttp.batches")
        batch = _Batch(requests)
        for index in range(len(batch.requests)):
            self._queue.append((batch, index))
        self._work.set()
        return await batch.future

    # -- the online-window loop --------------------------------------------

    async def _drain_loop(self) -> None:
        while True:
            if self._stopping and not self._queue:
                return
            if self._schedule is None:
                await self._work.wait()
                self._work.clear()
                self._serve_window(capacity=None)
            else:
                await asyncio.sleep(self._schedule.period * self._time_scale)
                self._serve_window(capacity=self._schedule.capacity)

    def _serve_window(self, capacity: Optional[int]) -> None:
        """One online window: pop up to ``capacity`` requests and decide
        them with one :meth:`TrustedThirdParty.process_batch` call."""
        self._windows_total += 1
        queue = self._queue
        served = len(queue) if capacity is None else min(capacity, len(queue))
        with obs.timer("net.ttp.window"):
            taken = [queue.popleft() for _ in range(served)]
            if taken:
                decisions = self._ttp.process_batch(
                    [batch.requests[index] for batch, index in taken]
                )
                for (batch, index), decision in zip(taken, decisions):
                    batch.decisions[index] = decision
                    batch.remaining -= 1
                    if batch.remaining == 0 and not batch.future.done():
                        batch.future.set_result(list(batch.decisions))
        if served:
            self._windows_used += 1
            self._served += served
            obs.count("net.ttp.windows_used")
            tr = trace.get_active()
            if tr is not None:
                # The TTP shares the server's recorder and event loop; the
                # synchronous corr_scope re-labels just this event as the
                # TTP's without disturbing the server's defaults.
                with tr.corr_scope(session=self._session, role="ttp"):
                    tr.instant(
                        "ttp_window",
                        vis="ttp",
                        served=served,
                        backlog=len(self._queue),
                    )
        obs.count("net.ttp.windows")
        obs.set_gauge("net.ttp.backlog", float(len(self._queue)))
