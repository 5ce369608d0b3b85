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
``check_equivalence=True`` every full-participation epoch is re-run as a
single-round in-process :func:`~repro.lppa.session.run_lppa_auction` over
the same epoch's final membership and demanded bit-identical.  (An epoch
with stragglers is skipped: survivor wire ids are non-contiguous, so the
dense-id equivalence contract does not apply — the PR-4 caveat.)

Latency telemetry lands in a :class:`~repro.net.loadgen.LoadgenReport`
with **per-epoch histograms**: the steady-state percentiles exclude the
configured warm-up epochs, so a cold first epoch (cache fills, connection
ramp) cannot mask a tail regression in the epochs that matter.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.auction.bidders import SecondaryUser
from repro.geo.grid import GridSpec
from repro.lppa.policies import KeepZeroPolicy
from repro.lppa.session import run_lppa_auction
from repro.net.client import ServerGoodbye, SUClient
from repro.net.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    build_population,
    check_result_equivalence,
    protocol_seed,
)
from repro.net.server import AuctioneerServer, NetRoundReport, ServerConfig
from repro.net.transport import MemoryTransport, TcpTransport, Transport
from repro.obs.clock import monotonic
from repro.service.membership import (
    MembershipDelta,
    MembershipManager,
    MembershipSnapshot,
)
from repro.service.scheduler import (
    EpochConfig,
    EpochRecord,
    EpochScheduler,
    service_entropy,
)
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


class _Seat:
    """One seated member: its client object and its round-loop task."""

    __slots__ = ("client", "task")

    def __init__(self, client: SUClient, task: asyncio.Task) -> None:
        self.client = client
        self.task = task


class _Fleet:
    """The soak's SU clients, reseated as the membership evolves."""

    def __init__(
        self,
        config: SoakConfig,
        grid: GridSpec,
        users: Sequence[SecondaryUser],
        server: AuctioneerServer,
        transport: Transport,
        report: LoadgenReport,
    ) -> None:
        self._config = config
        self._grid = grid
        self._users = users
        self._server = server
        self._transport = transport
        self._report = report
        self._seats: Dict[int, _Seat] = {}

    @property
    def wire_bytes(self) -> int:
        return sum(
            seat.client.bytes_sent + seat.client.bytes_received
            for seat in self._seats.values()
        )

    async def reseat(
        self,
        epoch: int,
        snapshot: MembershipSnapshot,
        ring,
        delta: MembershipDelta,
    ) -> None:
        """Apply one boundary's churn to the client fleet.

        Leavers (and members whose dense wire id shifted) are disconnected
        first and their departure *awaited* on the server roster — a new
        HELLO under a freed wire id must not race the old connection's
        teardown (the server rejects duplicate SUs).  Stationary members
        keep their connection and simply adopt the redistributed ring.
        """
        member_set = set(snapshot.members)
        kept: List[int] = []
        dropped = 0
        for logical, seat in list(self._seats.items()):
            wire = snapshot.wire_ids.get(logical)
            if logical in member_set and seat.client.su_id == wire:
                seat.client.rekey(ring)
                kept.append(seat.client.su_id)
                continue
            await self._dismiss(logical)
            dropped += 1
        if dropped:
            await self._server.wait_for_roster(
                kept, timeout=self._config.roster_timeout
            )
        seated = 0
        for logical in snapshot.members:
            if logical in self._seats:
                continue
            self._seat(logical, snapshot.wire_ids[logical], ring)
            seated += 1
        if seated or dropped:
            obs.count("service.reseats", seated + dropped)

    def _seat(self, logical: int, wire_id: int, ring) -> None:
        client = SUClient(
            wire_id,
            self._users[logical],
            ring,
            self._server.scale,
            self._grid,
            self._config.two_lambda,
            self._transport,
            policy=KeepZeroPolicy(),
            frame_timeout=self._config.frame_timeout,
        )
        task = asyncio.ensure_future(self._member_loop(client))
        self._seats[logical] = _Seat(client, task)

    async def _dismiss(self, logical: int) -> None:
        """Close first, then await: cancelling a loop task parked on an
        already-completed read can be swallowed by ``wait_for``, stalling
        the dismissal until the client's own frame timeout.  Closing the
        connection wakes both ends immediately — and buffered frames stay
        readable past EOF, so the task still consumes its final RESULT
        (recording the last latency sample) before dying on the next read."""
        seat = self._seats.pop(logical)
        seat.client.close()
        try:
            await asyncio.wait_for(seat.task, self._config.roster_timeout)
        except Exception:
            # Timeout (wait_for already cancelled the task), a connection
            # error, or any other loop failure: the seat is gone either way.
            pass

    async def _member_loop(self, client: SUClient) -> None:
        """Connect, then play every round until dismissed or told BYE."""
        try:
            await client.connect()
            while True:
                record = await client.run_round()
                self._report.record_latency(
                    record.latency_s, epoch=record.round_index
                )
        except ServerGoodbye:
            pass
        except (asyncio.IncompleteReadError, ConnectionError, RuntimeError):
            # The connection went away (a dismissal closing under us, or
            # the server stopping): a normal end of service, not an error.
            pass
        finally:
            client.close()

    async def dismiss_all(self) -> None:
        for logical in list(self._seats):
            await self._dismiss(logical)


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
    )
    grid, users = build_population(base)

    transport: Transport
    if config.transport == "tcp":
        transport = TcpTransport(config.host, config.port)
    else:
        transport = MemoryTransport()
    server = AuctioneerServer(
        ServerConfig(
            n_users=config.population,
            n_channels=config.n_channels,
            grid=grid,
            two_lambda=config.two_lambda,
            bmax=config.bmax,
            seed=protocol_seed(config.seed),
            location_deadline=config.location_deadline,
            bid_deadline=config.bid_deadline,
        ),
        transport,
    )
    membership = MembershipManager(
        config.population,
        initial_members=range(config.n_initial),
        master_seed=protocol_seed(config.seed),
        base_ring=server.keyring,
    )
    deltas = churn_plan(config)

    report = LoadgenReport(
        address="",
        n_users=config.population,
        rounds_completed=0,
        elapsed_s=0.0,
    )
    fleet = _Fleet(config, grid, users, server, transport, report)

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
        with obs.unmeasured():
            session = run_lppa_auction(
                [users[logical] for logical in snapshot.members],
                grid,
                two_lambda=config.two_lambda,
                bmax=config.bmax,
                seed=protocol_seed(config.seed),
                policy=KeepZeroPolicy(),
                entropy=service_entropy(config.seed, epoch),
            )
        check_result_equivalence(net.result, session)
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

    scheduler = EpochScheduler(
        server,
        membership,
        EpochConfig(
            epochs=config.epochs,
            seed=config.seed,
            interval_s=config.interval_s,
            roster_timeout=config.roster_timeout,
            retire_after=config.retire_after,
        ),
        plan=lambda epoch: deltas[epoch],
        store=store,
        on_membership=fleet.reseat,
        check_epoch=_check,
    )

    await server.start()
    t0 = monotonic()
    try:
        records = await scheduler.run()
    finally:
        elapsed = monotonic() - t0
        wire_bytes = fleet.wire_bytes
        await fleet.dismiss_all()
        await server.stop()

    report.address = server.address
    report.rounds_completed = len(records)
    report.elapsed_s = elapsed
    report.wire_bytes = server.wire.total_bytes or wire_bytes
    report.stragglers = sum(len(r.straggler_logicals) for r in records)
    report.equivalence_checked = sum(1 for r in records if r.equivalent)
    for record in records:
        outcome = record.report.result.outcome
        report.round_summaries.append(
            {
                "round": record.epoch,
                "winners": len(outcome.wins),
                "revenue": outcome.sum_of_winning_bids(),
                "framed_bytes": record.report.result.framed_bytes,
            }
        )

    soak = SoakReport(
        loadgen=report,
        records=list(records),
        joins=sum(len(deltas[r.epoch].joins) for r in records),
        leaves=sum(len(deltas[r.epoch].leaves) for r in records)
        + sum(len(r.retired) for r in records),
        run_dir=store.root if store is not None else None,
    )
    return soak
