"""The epoch loop: a one-shot auctioneer promoted to a long-lived service.

:class:`~repro.net.server.AuctioneerServer` runs *one* round per call;
:class:`EpochScheduler` drives it continuously.  Each **epoch** is one
auction round plus the boundary work around it:

1. **churn** — the epoch's :class:`~repro.service.membership.MembershipDelta`
   (from the planner, merged with any straggler retirements) is applied to
   the :class:`~repro.service.membership.MembershipManager`; a non-empty
   delta bumps the membership version, rotates ``gc`` and redistributes
   the ring to the server (:meth:`AuctioneerServer.redistribute_keys`) and
   — via the ``on_membership`` hook — to the SU clients;
2. **barrier** — :meth:`AuctioneerServer.wait_for_roster` blocks until the
   connected set is exactly the epoch's dense wire roster, so leavers are
   gone and joiners present before the round snapshots its participants;
3. **round** — ``server.run_round(service_entropy(seed, epoch))`` under a
   *fresh* metrics registry, which is folded into the enclosing registry
   afterwards, giving both per-epoch and whole-run telemetry from one
   instrumentation pass;
4. **audit** — an optional ``check_epoch`` hook (the soak driver's
   differential equivalence against a single-round in-process session);
5. **persist** — the epoch's result document and metrics land in the
   :class:`~repro.service.store.EpochStore`, and the pseudonym quarantine
   window advances.

Cadence: ``interval_s == 0`` runs as fast as the SUs answer;
``interval_s > 0`` paces epoch *starts* on a fixed monotonic schedule
(late epochs are not compensated with bursts — the next start is always
``interval_s`` after the previous one was due).

Straggler retirement: an SU that misses its deadlines ``retire_after``
epochs in a row is composed into the next boundary's leaves, exactly as a
voluntary departure (its pseudonym quarantined, the ring rotated).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.crypto.keys import KeyRing
from repro.obs.clock import monotonic
from repro.obs.registry import MetricsRegistry
from repro.net.server import AuctioneerServer, NetRoundReport
from repro.service.membership import (
    MembershipDelta,
    MembershipManager,
    MembershipSnapshot,
)
from repro.service.store import EpochStore

__all__ = [
    "service_entropy",
    "EpochConfig",
    "EpochRecord",
    "EpochScheduler",
    "result_document",
]

#: Planner: epoch index -> that boundary's churn (epoch 0 should be empty).
ChurnPlanner = Callable[[int], MembershipDelta]

#: Hook run after churn is applied, before the roster barrier: the driver
#: seats joiners, dismisses leavers and rekeys (and renumbers) stayers
#: here.  (epoch, snapshot, ring, delta).
MembershipHook = Callable[
    [int, MembershipSnapshot, KeyRing, MembershipDelta], Awaitable[None]
]

#: Per-epoch audit: returns True (checked OK) or None (skipped); raises on
#: divergence.  (epoch, snapshot, report).
EpochCheck = Callable[[int, MembershipSnapshot, NetRoundReport], Optional[bool]]


def service_entropy(seed: int, epoch: int) -> str:
    """The entropy label of epoch ``epoch`` under service ``seed``.

    The epoch-service sibling of :func:`repro.net.loadgen.round_entropy`:
    a pure function of the shared seed, so the differential check can hand
    the in-process session the exact label the wire round used.
    """
    return f"service:{seed}:{epoch}"


@dataclass(frozen=True)
class EpochConfig:
    """The scheduler's knobs (population/protocol knobs live elsewhere)."""

    epochs: int
    seed: int = 1
    interval_s: float = 0.0
    roster_timeout: float = 30.0
    retire_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.interval_s < 0:
            raise ValueError("interval must be non-negative")
        if self.roster_timeout <= 0:
            raise ValueError("roster timeout must be positive")
        if self.retire_after is not None and self.retire_after < 1:
            raise ValueError("retire_after must be >= 1 straggles")


@dataclass(frozen=True)
class EpochRecord:
    """One completed epoch, service-side."""

    epoch: int
    version: int
    members: Tuple[int, ...]
    report: NetRoundReport
    straggler_logicals: Tuple[int, ...]
    retired: Tuple[int, ...]
    equivalent: Optional[bool]


def result_document(
    epoch: int,
    entropy: str,
    snapshot: MembershipSnapshot,
    report: NetRoundReport,
    *,
    equivalent: Optional[bool],
) -> Dict[str, object]:
    """The JSON result document the epoch store persists.

    Mirrors the RESULT broadcast (winner list in *wire* ids, revenue, the
    Theorem-4 byte accounting) plus the service-side context a broadcast
    does not carry: membership, pseudonyms and straggler logical ids.
    """
    outcome = report.result.outcome
    return {
        "epoch": epoch,
        "entropy": entropy,
        "membership": snapshot.as_document(),
        "participants": list(report.participants),
        "stragglers": [
            snapshot.logical_for_wire(w) for w in report.stragglers
        ],
        "latency_s": report.latency_s,
        "equivalent": equivalent,
        "result": {
            "wins": [
                {
                    "su": report.participants[w.bidder],
                    "logical": snapshot.logical_for_wire(
                        report.participants[w.bidder]
                    ),
                    "channel": w.channel,
                    "charge": w.charge,
                    "valid": w.valid,
                }
                for w in outcome.wins
            ],
            "revenue": outcome.sum_of_winning_bids(),
            "location_bytes": report.result.location_bytes,
            "bid_bytes": report.result.bid_bytes,
            "masked_set_bytes": report.result.masked_set_bytes,
            "framed_bytes": report.result.framed_bytes,
        },
    }


class EpochScheduler:
    """Runs the configured number of epochs against one server."""

    def __init__(
        self,
        server: AuctioneerServer,
        membership: MembershipManager,
        config: EpochConfig,
        *,
        plan: Optional[ChurnPlanner] = None,
        store: Optional[EpochStore] = None,
        on_membership: Optional[MembershipHook] = None,
        check_epoch: Optional[EpochCheck] = None,
    ) -> None:
        self._server = server
        self._membership = membership
        self._config = config
        self._plan = plan
        self._store = store
        self._on_membership = on_membership
        self._check_epoch = check_epoch
        self._straggle_streaks: Dict[int, int] = {}
        self._forced_leaves: Tuple[int, ...] = ()
        self.records: List[EpochRecord] = []

    async def run(self) -> List[EpochRecord]:
        """Drive every epoch; returns the per-epoch records in order."""
        next_due = monotonic()
        for epoch in range(self._config.epochs):
            if self._config.interval_s > 0:
                delay = next_due - monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                next_due += self._config.interval_s
            await self._run_epoch(epoch)
        if self._store is not None:
            self._store.finalize(self.summary())
        return self.records

    def summary(self) -> Dict[str, object]:
        """Run-level rollup for the store manifest."""
        return {
            "epochs": len(self.records),
            "final_version": self._membership.version,
            "final_members": list(self._membership.members),
            "straggler_epochs": sum(
                1 for r in self.records if r.straggler_logicals
            ),
            "equivalence_checked": sum(
                1 for r in self.records if r.equivalent
            ),
            "retired": sorted(
                {logical for r in self.records for logical in r.retired}
            ),
        }

    # -- one epoch ----------------------------------------------------------

    async def _run_epoch(self, epoch: int) -> None:
        config = self._config
        delta = self._epoch_delta(epoch)
        retired = self._forced_leaves
        self._forced_leaves = ()

        previous_version = self._membership.version
        snapshot = self._membership.apply(delta)
        ring = self._membership.keyring()
        if self._membership.version != previous_version:
            self._server.redistribute_keys(ring)
        if self._on_membership is not None:
            await self._on_membership(epoch, snapshot, ring, delta)
        await self._server.wait_for_roster(
            snapshot.wire_roster(), timeout=config.roster_timeout
        )

        entropy = service_entropy(config.seed, epoch)
        outer = obs.get_active()
        registry = MetricsRegistry()
        with obs.collecting(registry):
            report = await self._server.run_round(entropy)
        _fold_registry(outer, registry)

        straggler_logicals = tuple(
            snapshot.logical_for_wire(w) for w in report.stragglers
        )
        self._note_straggles(snapshot, straggler_logicals)

        equivalent: Optional[bool] = None
        if self._check_epoch is not None:
            equivalent = self._check_epoch(epoch, snapshot, report)
            if equivalent:
                obs.count("service.equivalence_ok")

        record = EpochRecord(
            epoch=epoch,
            version=snapshot.version,
            members=snapshot.members,
            report=report,
            straggler_logicals=straggler_logicals,
            retired=retired,
            equivalent=equivalent,
        )
        self.records.append(record)
        if self._store is not None:
            self._store.record_epoch(
                epoch,
                result_document(
                    epoch, entropy, snapshot, report, equivalent=equivalent
                ),
                registry=registry,
                summary={
                    "version": snapshot.version,
                    "members": len(snapshot.members),
                    "winners": len(report.result.outcome.wins),
                    "revenue": report.result.outcome.sum_of_winning_bids(),
                    "stragglers": len(straggler_logicals),
                    "equivalent": equivalent,
                    "latency_s": report.latency_s,
                },
            )
        self._membership.advance_epoch_window()
        obs.count("service.epochs")
        obs.set_gauge("service.epoch", float(epoch))

    def _epoch_delta(self, epoch: int) -> MembershipDelta:
        """The planner's delta merged with forced retirements, sanitized
        against the *actual* membership (retirements skew the planner's
        simulated evolution, so inadmissible parts are dropped, never
        raised — the service must not die because a planned joiner is
        already back)."""
        planned = self._plan(epoch) if self._plan is not None else MembershipDelta()
        members = set(self._membership.members)
        leaves = {
            logical
            for logical in (*planned.leaves, *self._forced_leaves)
            if logical in members
        }
        joins = sorted(
            logical
            for logical in set(planned.joins)
            if logical not in members and logical not in leaves
        )
        if leaves >= members and not joins:
            # Never empty the service: keep the smallest member seated.
            leaves.discard(min(members))
        return MembershipDelta(joins=tuple(joins), leaves=tuple(sorted(leaves)))

    def _note_straggles(
        self, snapshot: MembershipSnapshot, stragglers: Tuple[int, ...]
    ) -> None:
        straggler_set = set(stragglers)
        for logical in snapshot.members:
            if logical in straggler_set:
                self._straggle_streaks[logical] = (
                    self._straggle_streaks.get(logical, 0) + 1
                )
            else:
                self._straggle_streaks.pop(logical, None)
        if stragglers:
            obs.count("service.straggler_epochs")
        retire_after = self._config.retire_after
        if retire_after is None:
            return
        due = tuple(
            sorted(
                logical
                for logical, streak in self._straggle_streaks.items()
                if streak >= retire_after
            )
        )
        if due:
            self._forced_leaves = due
            for logical in due:
                self._straggle_streaks.pop(logical, None)
            obs.count("service.retirements", len(due))


def _fold_registry(
    outer: Optional[MetricsRegistry], registry: MetricsRegistry
) -> None:
    """Fold one epoch's registry into the enclosing one (if any).

    The epoch's keys already carry their phase scopes, and the scheduler
    holds no outer phase open, so counters/timers/histograms land on
    identical keys — whole-run totals equal the sum of the epochs.  Gauges are
    last-write-wins by definition.
    """
    if outer is None or outer is registry:
        return
    for key, value in registry.counters.items():
        outer.count(key, value)
    for key, stat in registry.timers.items():
        timing = stat.as_dict()
        outer.record_seconds(key, timing["seconds"], int(timing["count"]))
    for key, hist in registry.histograms.items():
        outer.merge_histogram_raw(key, hist.copy())
    for key, value in registry.gauges.items():
        outer.set_gauge_raw(key, value)
