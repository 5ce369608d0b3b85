"""Sustained-load soak driver: epochs, Poisson churn, SLO-ready telemetry.

``repro loadgen --soak`` promotes the one-shot load generator into a
long-running harness: it hosts an :class:`~repro.net.server.AuctioneerServer`
(memory or TCP transport), seats an initial SU roster out of a fixed
*population*, and then drives N epochs through the
:class:`~repro.service.scheduler.EpochScheduler` while SUs join and leave
between epochs on a deterministic Poisson churn plan.

Everything is a pure function of the soak seed:

* the population (the CLI's ``make_database``/``generate_users`` recipe),
* the churn plan (:func:`churn_plan` — Poisson draws from a seeded PRNG
  over a simulated membership, so any party holding the seed derives the
  identical join/leave schedule without coordination),
* the per-epoch entropy labels
  (:func:`~repro.service.scheduler.service_entropy`),
* the key-ring rotations (membership version -> ``gc`` label).

That determinism is what makes the soak *checkable*: with
``check_equivalence=True`` every full-participation epoch is re-run as
loadgen's in-process :func:`~repro.net.loadgen.reference_round` over the
same epoch's final membership and demanded bit-identical.  (An epoch
with stragglers is skipped: survivor wire ids are non-contiguous, so the
dense-id equivalence contract does not apply — the PR-4 caveat.)

The soak shares loadgen's harness: :func:`~repro.net.loadgen.hosted_server`
hosts the server and :class:`~repro.net.loadgen.Fleet` seats the SUs.
At each epoch boundary only leavers disconnect and only joiners dial;
stayers whose dense wire id shifted are renumbered on their connection
(:meth:`~repro.net.server.AuctioneerServer.renumber` plus
:meth:`~repro.net.client.SUClient.rekey`).

Latency telemetry lands in a :class:`~repro.net.loadgen.LoadgenReport`
with **per-epoch histograms**: the steady-state percentiles exclude the
configured warm-up epochs, so a cold first epoch (cache fills, connection
ramp) cannot mask a tail regression in the epochs that matter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.crypto.keys import KeyRing
from repro.net.loadgen import (
    Fleet,
    LoadgenConfig,
    LoadgenReport,
    build_population,
    check_result_equivalence,
    hosted_server,
    protocol_seed,
    reference_round,
)
from repro.net.server import NetRoundReport
from repro.obs.clock import monotonic
from repro.service.membership import (
    MembershipDelta,
    MembershipManager,
    MembershipSnapshot,
)
from repro.service.scheduler import EpochConfig, EpochRecord, EpochScheduler
from repro.service.store import EpochStore

__all__ = ["SoakConfig", "SoakReport", "churn_plan", "run_soak"]


@dataclass(frozen=True)
class SoakConfig:
    """One soak run; defaults are CI-smoke sized."""

    population: int = 12          # roster capacity (logical ids 0..P-1)
    initial_members: Optional[int] = None  # first N logical ids (default: 2/3)
    epochs: int = 5
    n_channels: int = 6
    seed: int = 1
    area: int = 4
    grid_n: int = 20
    two_lambda: int = 6
    bmax: int = 127
    join_rate: float = 0.0        # Poisson mean joins per epoch boundary
    leave_rate: float = 0.0       # Poisson mean leaves per epoch boundary
    transport: str = "memory"     # "memory" | "tcp"
    host: str = "127.0.0.1"
    port: int = 0
    interval_s: float = 0.0
    warmup_epochs: int = 1
    check_equivalence: bool = False
    run_dir: Optional[str] = None
    retire_after: Optional[int] = None
    location_deadline: float = 10.0
    bid_deadline: float = 10.0
    frame_timeout: float = 60.0
    roster_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.transport not in ("memory", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.population < 2:
            raise ValueError("a soak needs a population of at least 2")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.join_rate < 0 or self.leave_rate < 0:
            raise ValueError("churn rates must be non-negative")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError("warmup must leave at least one steady epoch")
        members = self.n_initial
        if not 1 <= members <= self.population:
            raise ValueError("initial members must be within the population")

    @property
    def n_initial(self) -> int:
        if self.initial_members is not None:
            return self.initial_members
        return max(1, (2 * self.population) // 3)


@dataclass
class SoakReport:
    """What one soak run measured and proved."""

    loadgen: LoadgenReport
    records: List[EpochRecord] = field(default_factory=list)
    joins: int = 0
    leaves: int = 0
    run_dir: Optional[Path] = None

    @property
    def epochs_completed(self) -> int:
        return len(self.records)

    @property
    def equivalence_checked(self) -> int:
        return sum(1 for r in self.records if r.equivalent)

    def format(self, *, warmup: int = 1) -> str:
        """The human-readable report ``repro loadgen --soak`` prints."""
        lines = [
            f"soak: {self.epochs_completed} epochs against "
            f"{self.loadgen.address} "
            f"({self.joins} joins, {self.leaves} leaves)",
        ]
        lines.extend(self.loadgen.format(steady_warmup=warmup).splitlines()[1:])
        for record in self.records:
            outcome = record.report.result.outcome
            marks = []
            if record.straggler_logicals:
                marks.append(f"stragglers {list(record.straggler_logicals)}")
            if record.retired:
                marks.append(f"retired {list(record.retired)}")
            if record.equivalent:
                marks.append("equivalent")
            suffix = f" ({', '.join(marks)})" if marks else ""
            lines.append(
                f"  epoch {record.epoch}: v{record.version} "
                f"{len(record.members)} SUs, "
                f"{len(outcome.wins)} winners, "
                f"revenue {outcome.sum_of_winning_bids()}, "
                f"{record.report.latency_s * 1e3:.1f} ms{suffix}"
            )
        if self.run_dir is not None:
            lines.append(f"  history      {self.run_dir}")
        return "\n".join(lines)


def _poisson(rng: random.Random, lam: float) -> int:
    """One Poisson draw (Knuth's product method; lam is CI-small)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, product = 0, rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k


def churn_plan(config: SoakConfig) -> List[MembershipDelta]:
    """The run's deterministic join/leave schedule, one delta per epoch.

    Simulates the membership forward from the initial roster, drawing
    Poisson-many leaves (never emptying the roster) and joins (bounded by
    the population) per boundary from ``random.Random(f"soak-churn:{seed}")``.
    Epoch 0 is always empty — the initial roster *is* epoch 0's churn.
    Pure in the config, so tests, a paired fleet, or a replay all derive
    the same plan.
    """
    rng = random.Random(f"soak-churn:{config.seed}")
    members = set(range(config.n_initial))
    deltas: List[MembershipDelta] = [MembershipDelta()]
    for _ in range(1, config.epochs):
        n_leave = min(_poisson(rng, config.leave_rate), len(members) - 1)
        leaves = tuple(rng.sample(sorted(members), n_leave)) if n_leave else ()
        members -= set(leaves)
        outsiders = sorted(
            set(range(config.population)) - members - set(leaves)
        )
        n_join = min(_poisson(rng, config.join_rate), len(outsiders))
        joins = tuple(rng.sample(outsiders, n_join)) if n_join else ()
        members |= set(joins)
        deltas.append(
            MembershipDelta(joins=tuple(sorted(joins)),
                            leaves=tuple(sorted(leaves)))
        )
    return deltas


async def run_soak(config: SoakConfig) -> SoakReport:
    """Run one configured soak; see the module docstring."""
    base = LoadgenConfig(
        n_users=config.population,
        n_channels=config.n_channels,
        rounds=config.epochs,
        seed=config.seed,
        area=config.area,
        grid_n=config.grid_n,
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        transport=config.transport,
        host=config.host,
        port=config.port,
        location_deadline=config.location_deadline,
        bid_deadline=config.bid_deadline,
        frame_timeout=config.frame_timeout,
        entropy_scheme="service",
    )
    grid, users = build_population(base)
    deltas = churn_plan(config)
    report = LoadgenReport(
        address="",
        n_users=config.population,
        rounds_completed=0,
        elapsed_s=0.0,
    )

    def _check(
        epoch: int, snapshot: MembershipSnapshot, net: NetRoundReport
    ) -> Optional[bool]:
        if not config.check_equivalence:
            return None
        if net.stragglers:
            # Survivor wire ids are non-contiguous; the dense-id remap is
            # not the identity, so bit-equality does not apply (PR-4).
            obs.count("service.equivalence_skipped")
            return None
        members = [users[logical] for logical in snapshot.members]
        check_result_equivalence(
            net.result, reference_round(base, members, grid, epoch)
        )
        return True

    store: Optional[EpochStore] = None
    if config.run_dir is not None:
        store = EpochStore(
            config.run_dir,
            config={
                "population": config.population,
                "initial_members": config.n_initial,
                "epochs": config.epochs,
                "n_channels": config.n_channels,
                "seed": config.seed,
                "join_rate": config.join_rate,
                "leave_rate": config.leave_rate,
                "transport": config.transport,
            },
        )

    async with hosted_server(base) as server:
        fleet = Fleet(base, grid, server.scale, server.transport, report=report)

        async def reseat(
            epoch: int,
            snapshot: MembershipSnapshot,
            ring: KeyRing,
            delta: MembershipDelta,
        ) -> None:
            """Apply one boundary's churn to the fleet.

            Leavers are dismissed first and their departure *awaited* on
            the server roster, so the renumbering sees stayers only and a
            joiner's HELLO cannot race a leaver's teardown.  Dense wire ids
            shift when a lower id leaves or joins: the server re-keys each
            stayer's connection to its new id, and the client adopts that
            id with the redistributed ring.  Only joiners dial.
            """
            leavers = [
                logical for logical in fleet.clients
                if logical not in snapshot.wire_ids
            ]
            for logical in leavers:
                await fleet.dismiss(logical, config.roster_timeout)
            stayers = fleet.clients
            if leavers:
                await server.wait_for_roster(
                    [client.su_id for client in stayers.values()],
                    timeout=config.roster_timeout,
                )
            server.renumber({
                client.su_id: snapshot.wire_ids[logical]
                for logical, client in stayers.items()
                if client.su_id != snapshot.wire_ids[logical]
            })
            for logical, client in stayers.items():
                client.rekey(ring, snapshot.wire_ids[logical])
            joiners = [
                logical for logical in snapshot.members
                if logical not in stayers
            ]
            for logical in joiners:
                fleet.seat(logical, snapshot.wire_ids[logical], users[logical], ring)
            # Epoch 0 seats the initial roster: no boundary, no reseat.
            if epoch and (leavers or joiners):
                obs.count("service.reseats", len(leavers) + len(joiners))

        scheduler = EpochScheduler(
            server,
            MembershipManager(
                config.population,
                initial_members=range(config.n_initial),
                master_seed=protocol_seed(config.seed),
                base_ring=server.keyring,
            ),
            EpochConfig(
                epochs=config.epochs,
                seed=config.seed,
                interval_s=config.interval_s,
                roster_timeout=config.roster_timeout,
                retire_after=config.retire_after,
            ),
            plan=lambda epoch: deltas[epoch],
            store=store,
            on_membership=reseat,
            check_epoch=_check,
        )
        t0 = monotonic()
        try:
            records = await scheduler.run()
        finally:
            report.elapsed_s = monotonic() - t0
            for logical in list(fleet.clients):
                await fleet.dismiss(logical, config.roster_timeout)

    report.address = server.address
    report.rounds_completed = len(records)
    report.wire_bytes = server.wire.total_bytes
    report.stragglers = sum(len(r.straggler_logicals) for r in records)
    report.equivalence_checked = sum(1 for r in records if r.equivalent)
    for record in records:
        report.add_round(record.epoch, record.report.result)

    return SoakReport(
        loadgen=report,
        records=list(records),
        joins=sum(len(deltas[r.epoch].joins) for r in records),
        leaves=sum(len(deltas[r.epoch].leaves) for r in records)
        + sum(len(r.retired) for r in records),
        run_dir=store.root if store is not None else None,
    )
