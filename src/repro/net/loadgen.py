"""Load generation and differential checking for the network runtime.

``repro loadgen`` drives N concurrent :class:`~repro.net.client.SUClient`
coroutines against an :class:`~repro.net.server.AuctioneerServer` — either
one it hosts itself (memory or TCP transport) or a remote ``repro serve``
process (``--connect``) — and reports throughput (rounds/sec), p50/p95
round latency and exact bytes on the wire.

This module is the one networked harness: :class:`Fleet` seats every SU
client (loadgen's and the soak's, :mod:`repro.service.soak`),
:func:`hosted_server` starts and stops every self-hosted server (loadgen,
the soak and ``repro serve``), and :func:`reference_round` is the one
in-process reference a networked round is checked against.

Determinism ties the whole thing together: the protocol seed and the
per-round entropy labels are pure functions of the loadgen seed, and the
SU population is regenerated from the same
``make_database``/``generate_users`` recipe the CLI uses everywhere else.
``check_equivalence=True`` therefore re-runs every round through the
in-process :func:`~repro.lppa.session.run_lppa_auction` and demands a
bit-identical :class:`~repro.lppa.session.LppaResult` (self-hosted mode)
or an identical RESULT wire summary (connect mode, where the keyring is
re-derived locally from the shared seed — the paper's out-of-band key
distribution).
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, List, Optional, Sequence, Tuple, Union

from repro.auction.bidders import SecondaryUser, generate_users
from repro.crypto.keys import KeyRing
from repro.geo.datasets import make_database
from repro.geo.grid import GridSpec
from repro.lppa.batching import TtpSchedule
from repro.lppa.bids_advanced import BidScale
from repro.lppa.policies import KeepZeroPolicy, UniformReplacePolicy
from repro.lppa.session import LppaResult, run_lppa_auction
from repro.lppa.ttp import TrustedThirdParty
from repro.net.client import ServerGoodbye, SUClient
from repro.net.server import AuctioneerServer, NetRoundReport, ServerConfig
from repro.net.transport import MemoryTransport, TcpTransport, Transport
from repro.net.ttp_service import TtpService
from repro import obs
from repro.obs import trace
from repro.obs.clock import monotonic
from repro.obs.hist import Histogram

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "EquivalenceFailure",
    "Fleet",
    "build_population",
    "check_result_equivalence",
    "hosted_server",
    "protocol_seed",
    "reference_round",
    "round_entropy",
    "run_loadgen",
]

#: Compared field-by-field between the networked and in-process results.
_RESULT_FIELDS = (
    "outcome",
    "conflict_graph",
    "rankings",
    "location_bytes",
    "bid_bytes",
    "masked_set_bytes",
    "framed_bytes",
)


class EquivalenceFailure(AssertionError):
    """A networked round diverged from the in-process session."""


@dataclass(frozen=True)
class LoadgenConfig:
    """Everything one loadgen run needs; all defaults are CI-sized."""

    n_users: int = 8
    n_channels: int = 6
    rounds: int = 3
    seed: int = 1
    area: int = 4
    grid_n: int = 20
    two_lambda: int = 6
    bmax: int = 127
    replace: float = 0.0
    #: Privacy scheme the self-hosted server announces; clients pick it up
    #: from the WELCOME frame, so connect mode ignores this field.
    scheme: str = "ppbs"
    transport: str = "memory"  # "memory" | "tcp"
    host: str = "127.0.0.1"
    port: int = 0
    connect: Optional[str] = None  # "host:port" -> dial a running server
    check_equivalence: bool = False
    location_deadline: float = 10.0
    bid_deadline: float = 10.0
    ttp_period: Optional[int] = None
    ttp_capacity: Optional[int] = None
    frame_timeout: float = 30.0
    #: Keep every raw latency sample for exact-sort percentiles.  Off by
    #: default so multi-hour runs stay bounded: the histogram alone costs
    #: a fixed ~100 buckets no matter how many rounds complete.
    raw_latencies: bool = False
    #: Which per-round entropy labels the run derives: ``"loadgen"``
    #: (:func:`round_entropy`, the `repro serve` pairing) or ``"service"``
    #: (:func:`repro.service.scheduler.service_entropy`, for driving or
    #: checking against a ``repro serve --epochs`` epoch loop).
    entropy_scheme: str = "loadgen"

    def __post_init__(self) -> None:
        if self.transport not in ("memory", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if self.entropy_scheme not in ("loadgen", "service"):
            raise ValueError(f"unknown entropy scheme {self.entropy_scheme!r}")


@dataclass
class LoadgenReport:
    """What one loadgen run measured."""

    address: str
    n_users: int
    rounds_completed: int
    elapsed_s: float
    latency_hist: Histogram = field(default_factory=Histogram)
    #: Per-round/epoch histograms (key: round or epoch index).  The
    #: aggregate ``latency_hist`` always folds everything; these exist so
    #: steady-state percentiles can exclude warm-up epochs.  They cost
    #: O(rounds) bounded histograms.
    epoch_hists: Dict[int, Histogram] = field(default_factory=dict)
    raw_latencies_s: Optional[List[float]] = None
    wire_bytes: int = 0
    round_summaries: List[Dict[str, Any]] = field(default_factory=list)
    stragglers: int = 0
    equivalence_checked: int = 0

    def record_latency(self, seconds: float, epoch: int) -> None:
        """Fold one round latency of round/epoch ``epoch`` into the bounded
        aggregate histogram and that epoch's own histogram (and, when the
        ``raw_latencies`` escape hatch is on, the exact sample list)."""
        self.latency_hist.observe(seconds)
        hist = self.epoch_hists.get(epoch)
        if hist is None:
            hist = self.epoch_hists[epoch] = Histogram()
        hist.observe(seconds)
        if self.raw_latencies_s is not None:
            self.raw_latencies_s.append(seconds)

    def add_round(
        self, round_index: int, result: Union[LppaResult, Dict[str, Any]]
    ) -> None:
        """Append one round's summary line, from the server's
        :class:`LppaResult` or an SU's RESULT document."""
        if isinstance(result, LppaResult):
            outcome = result.outcome
            result = {
                "wins": outcome.wins,
                "revenue": outcome.sum_of_winning_bids(),
                "framed_bytes": result.framed_bytes,
            }
        self.round_summaries.append(
            {
                "round": round_index,
                "winners": len(result.get("wins", ())),
                "revenue": result.get("revenue", 0),
                "framed_bytes": result.get("framed_bytes", 0),
            }
        )

    def steady_histogram(self, warmup: int = 1) -> Histogram:
        """Latencies of epochs ``>= warmup`` merged into one histogram."""
        steady = Histogram()
        for epoch, hist in self.epoch_hists.items():
            if epoch >= warmup:
                steady.merge(hist)
        return steady

    def epoch_quantile(self, epoch: int, q: float) -> float:
        """One epoch's latency quantile (0.0 when the epoch has no data)."""
        hist = self.epoch_hists.get(epoch)
        return hist.quantile(q) if hist is not None else 0.0

    @property
    def rounds_per_sec(self) -> float:
        return self.rounds_completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def _quantile(self, q: float) -> float:
        if self.raw_latencies_s is not None:
            return _percentile(self.raw_latencies_s, q)
        return self.latency_hist.quantile(q)

    @property
    def p50_latency_s(self) -> float:
        return self._quantile(0.50)

    @property
    def p95_latency_s(self) -> float:
        return self._quantile(0.95)

    @property
    def p99_latency_s(self) -> float:
        return self._quantile(0.99)

    def record_metrics(self, *, steady_warmup: Optional[int] = None) -> None:
        """Fold the SLO summary into the active obs registry, if any.

        Gives ``repro loadgen --metrics`` artifact keys for the latency
        tail (``net.loadgen.latency_p50/p95/p99``), throughput and wire
        volume, so ``repro metrics diff`` can flag tail regressions.

        ``steady_warmup`` (the soak driver passes its warm-up epoch count)
        additionally emits the steady-state histogram and percentiles
        (``net.loadgen.steady_latency*``) with the first ``steady_warmup``
        epochs excluded, so SLO gates on the tail are not diluted by cold
        caches and connection ramp.
        """
        if obs.get_active() is None:
            return
        obs.record_seconds("net.loadgen.latency_p50", self.p50_latency_s)
        obs.record_seconds("net.loadgen.latency_p95", self.p95_latency_s)
        obs.record_seconds("net.loadgen.latency_p99", self.p99_latency_s)
        obs.record_seconds("net.loadgen.elapsed", self.elapsed_s)
        obs.merge_histogram("net.loadgen.latency", self.latency_hist)
        obs.count("net.loadgen.rounds", self.rounds_completed)
        obs.count("net.loadgen.wire_bytes", self.wire_bytes)
        obs.count("net.loadgen.stragglers", self.stragglers)
        if steady_warmup is not None:
            steady = self.steady_histogram(steady_warmup)
            if steady.count:
                obs.merge_histogram("net.loadgen.steady_latency", steady)
                obs.record_seconds(
                    "net.loadgen.steady_latency_p50", steady.quantile(0.50)
                )
                obs.record_seconds(
                    "net.loadgen.steady_latency_p95", steady.quantile(0.95)
                )
                obs.record_seconds(
                    "net.loadgen.steady_latency_p99", steady.quantile(0.99)
                )

    def format(self, *, steady_warmup: Optional[int] = None) -> str:
        """The human-readable report the ``repro loadgen`` CLI prints."""
        lines = [
            f"loadgen: {self.n_users} SUs x {self.rounds_completed} rounds "
            f"against {self.address}",
            f"  throughput   {self.rounds_per_sec:.2f} rounds/sec "
            f"({self.elapsed_s:.3f}s total)",
            f"  latency      p50 {self.p50_latency_s * 1e3:.2f} ms, "
            f"p95 {self.p95_latency_s * 1e3:.2f} ms, "
            f"p99 {self.p99_latency_s * 1e3:.2f} ms",
            f"  wire         {self.wire_bytes} bytes",
            f"  stragglers   {self.stragglers}",
        ]
        if steady_warmup is not None and self.epoch_hists:
            steady = self.steady_histogram(steady_warmup)
            if steady.count:
                lines.insert(
                    3,
                    f"  steady       p50 {steady.quantile(0.50) * 1e3:.2f} ms, "
                    f"p95 {steady.quantile(0.95) * 1e3:.2f} ms, "
                    f"p99 {steady.quantile(0.99) * 1e3:.2f} ms "
                    f"(epochs >= {steady_warmup})",
                )
        if self.equivalence_checked:
            lines.append(
                f"  equivalence  OK ({self.equivalence_checked} rounds "
                "bit-identical to the in-process session)"
            )
        for summary in self.round_summaries:
            lines.append(
                f"  round {summary['round']}: {summary['winners']} winners, "
                f"revenue {summary['revenue']}, "
                f"{summary['framed_bytes']} framed bytes"
            )
        return "\n".join(lines)


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def protocol_seed(seed: int) -> bytes:
    """TTP setup seed as a function of the loadgen seed (shared by the
    server and a ``--connect`` client fleet deriving keys locally)."""
    return f"net:{seed}".encode()


def round_entropy(seed: int, round_index: int) -> str:
    """The entropy label of round ``round_index`` under loadgen ``seed``."""
    return f"net-loadgen:{seed}:{round_index}"


def _entropy(config: LoadgenConfig, round_index: int) -> str:
    """This run's entropy label for one round, per the configured scheme.

    The ``"service"`` branch must stay byte-identical to
    :func:`repro.service.scheduler.service_entropy` (asserted by the
    service test suite); it is inlined here because :mod:`repro.service`
    imports this module.
    """
    if config.entropy_scheme == "service":
        return f"service:{config.seed}:{round_index}"
    return round_entropy(config.seed, round_index)


def _grid(config: LoadgenConfig) -> GridSpec:
    return GridSpec(
        rows=config.grid_n, cols=config.grid_n, cell_km=75.0 / config.grid_n
    )


def build_population(
    config: LoadgenConfig,
) -> Tuple[GridSpec, List[SecondaryUser]]:
    """The CLI's standard population recipe, keyed only by the config."""
    grid = _grid(config)
    database = make_database(config.area, n_channels=config.n_channels, grid=grid)
    users = generate_users(database, config.n_users, random.Random(config.seed))
    return grid, users


def _policy(config: LoadgenConfig):
    if config.replace > 0:
        return UniformReplacePolicy(config.replace)
    return KeepZeroPolicy()


def reference_round(
    config: LoadgenConfig,
    users: Sequence[SecondaryUser],
    grid: GridSpec,
    round_index: int,
    scheme: Optional[str] = None,
) -> LppaResult:
    """Round ``round_index`` of ``users`` run in-process, unmeasured: the
    reference a networked round must equal (``scheme`` overrides the
    config's, for a server that announced its own)."""
    with obs.unmeasured():
        return run_lppa_auction(
            users,
            grid,
            two_lambda=config.two_lambda,
            bmax=config.bmax,
            seed=protocol_seed(config.seed),
            policy=_policy(config),
            entropy=_entropy(config, round_index),
            scheme=config.scheme if scheme is None else scheme,
        )


def check_result_equivalence(net: LppaResult, session: LppaResult) -> None:
    """Field-by-field comparison; raises :class:`EquivalenceFailure`.

    ``disclosures`` is exempt: it is SU-private material that never crosses
    the wire, so the networked result legitimately carries an empty tuple.
    """
    for name in _RESULT_FIELDS:
        net_value = getattr(net, name)
        session_value = getattr(session, name)
        if net_value != session_value:
            raise EquivalenceFailure(
                f"networked round diverged from the session on {name}: "
                f"{net_value!r} != {session_value!r}"
            )


def _check_wire_summary(
    doc: Dict[str, Any], session: LppaResult, round_index: int
) -> None:
    """Connect-mode equivalence: the RESULT frame against the local session."""
    expected = {
        "wins": [
            {"su": w.bidder, "channel": w.channel, "charge": w.charge,
             "valid": w.valid}
            for w in session.outcome.wins
        ],
        "revenue": session.outcome.sum_of_winning_bids(),
        "location_bytes": session.location_bytes,
        "bid_bytes": session.bid_bytes,
        "masked_set_bytes": session.masked_set_bytes,
        "framed_bytes": session.framed_bytes,
    }
    for key, want in expected.items():
        got = doc.get(key)
        if got != want:
            raise EquivalenceFailure(
                f"round {round_index}: RESULT {key} diverged: "
                f"{got!r} != {want!r}"
            )


async def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Run the configured load against a server; see the module docstring."""
    grid, users = build_population(config)
    if config.connect is not None:
        return await _run_connect(config, grid, users)
    return await _run_self_hosted(config, grid, users)


class Fleet:
    """SU clients seated on one transport, one round-loop task per seat.

    A seat plays rounds until its round budget runs out, the server sends
    BYE, or :meth:`dismiss` closes it.  Each RESULT a seat receives folds
    the SU's round latency into ``report`` (when given) under the round
    index, and the first RESULT document of every round is kept in
    :attr:`results`.  With ``traced`` each SU records into a private
    :class:`~repro.obs.trace.TraceRecorder` (``client.recorder``).
    """

    def __init__(
        self,
        config: LoadgenConfig,
        grid: GridSpec,
        scale: BidScale,
        transport: Transport,
        *,
        report: Optional[LoadgenReport] = None,
        traced: bool = False,
    ) -> None:
        self._config = config
        self._grid = grid
        self._scale = scale
        self._transport = transport
        self._report = report
        self._traced = traced
        self._tasks: Dict[int, asyncio.Future] = {}
        #: Seated clients by key (the SU id, or a soak's logical id).
        self.clients: Dict[int, SUClient] = {}
        #: The first RESULT document each round delivered, by round index.
        self.results: Dict[int, Dict[str, Any]] = {}

    def seat(
        self,
        key: int,
        wire_id: int,
        user: SecondaryUser,
        keyring: KeyRing,
        rounds: Optional[int] = None,
    ) -> None:
        """Seat ``user`` as SU ``wire_id``; it plays ``rounds`` rounds, or
        until dismissed when ``rounds`` is ``None``."""
        client = SUClient(
            wire_id,
            user,
            keyring,
            self._scale,
            self._grid,
            self._config.two_lambda,
            self._transport,
            policy=_policy(self._config),
            frame_timeout=self._config.frame_timeout,
            recorder=trace.TraceRecorder() if self._traced else None,
        )
        self.clients[key] = client
        self._tasks[key] = asyncio.ensure_future(self._play(key, rounds))

    async def _play(self, key: int, rounds: Optional[int]) -> None:
        client = self.clients[key]
        try:
            await client.connect()
            played = 0
            while rounds is None or played < rounds:
                record = await client.run_round()
                played += 1
                if self._report is not None:
                    self._report.record_latency(
                        record.latency_s, record.round_index
                    )
                self.results.setdefault(record.round_index, record.result)
        except ServerGoodbye:
            pass
        except (asyncio.IncompleteReadError, ConnectionError, RuntimeError):
            # A dismissed seat ends here, on the connection the fleet
            # closed.  Ending cleanly matters: an exception left on the
            # task would hold the seat's frames in a reference cycle.
            if self.clients.get(key) is client:
                raise
        finally:
            client.close()

    async def dismiss(self, key: int, timeout: float) -> None:
        """Unseat one SU; never raises.

        Close first, then await: cancelling a loop task parked on an
        already-completed read can be swallowed by ``wait_for``, stalling
        the dismissal until the client's own frame timeout.  Closing the
        connection wakes both ends at once, and buffered frames stay
        readable past EOF, so the task still consumes its final RESULT
        (recording the last latency sample) before dying on the next read.
        """
        client = self.clients.pop(key)
        task = self._tasks.pop(key)
        client.close()
        try:
            await asyncio.wait_for(task, timeout)
        except Exception:
            # Timeout (wait_for already cancelled the task), the closed
            # connection, or any other loop failure: the seat is gone.
            pass

    async def finish(self) -> None:
        """Await every seat still held; a client's error propagates."""
        await asyncio.gather(*self._tasks.values())


@contextlib.asynccontextmanager
async def hosted_server(
    config: LoadgenConfig, **server_options: Any
) -> AsyncIterator[AuctioneerServer]:
    """A started :class:`AuctioneerServer` for ``config``, stopped on exit.

    It listens on the config's transport and charges through an always-on
    TTP, or through a :class:`TtpService` on the ``ttp_period`` schedule.
    ``server_options`` go to :class:`ServerConfig` (``repro serve`` adds
    its scrape endpoint there).
    """
    server_config = ServerConfig(
        n_users=config.n_users,
        n_channels=config.n_channels,
        grid=_grid(config),
        two_lambda=config.two_lambda,
        bmax=config.bmax,
        seed=protocol_seed(config.seed),
        location_deadline=config.location_deadline,
        bid_deadline=config.bid_deadline,
        scheme=config.scheme,
        **server_options,
    )
    transport: Transport
    if config.transport == "tcp":
        transport = TcpTransport(config.host, config.port)
    else:
        transport = MemoryTransport()
    ttp_service: Optional[TtpService] = None
    if config.ttp_period is not None:
        ttp, _, _ = TrustedThirdParty.setup(
            server_config.seed, config.n_channels, bmax=config.bmax
        )
        schedule = TtpSchedule(
            period=config.ttp_period,
            capacity=config.ttp_capacity or config.n_users,
        )
        ttp_service = TtpService(ttp, schedule)
        await ttp_service.start()
    server = AuctioneerServer(server_config, transport, ttp_service=ttp_service)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()
        if ttp_service is not None:
            await ttp_service.stop()


async def _run_self_hosted(
    config: LoadgenConfig,
    grid: GridSpec,
    users: Sequence[SecondaryUser],
) -> LoadgenReport:
    async with hosted_server(config) as server:
        fleet = Fleet(config, grid, server.scale, server.transport)
        for su_id, user in enumerate(users):
            fleet.seat(su_id, su_id, user, server.keyring, config.rounds)
        await server.wait_for_clients(config.n_users, timeout=30.0)
        t0 = monotonic()
        reports: List[NetRoundReport] = []
        for round_index in range(config.rounds):
            reports.append(
                await server.run_round(_entropy(config, round_index))
            )
        elapsed = monotonic() - t0
        await fleet.finish()

    report = LoadgenReport(
        address=server.address,
        n_users=config.n_users,
        rounds_completed=len(reports),
        elapsed_s=elapsed,
        raw_latencies_s=[] if config.raw_latencies else None,
        wire_bytes=server.wire.total_bytes,
        stragglers=sum(len(r.stragglers) for r in reports),
    )
    for r in reports:
        report.record_latency(r.latency_s, r.round_index)
        report.add_round(r.round_index, r.result)
        if config.check_equivalence:
            session = reference_round(config, users, grid, r.round_index)
            check_result_equivalence(r.result, session)
            report.equivalence_checked += 1
    return report


async def _run_connect(
    config: LoadgenConfig,
    grid: GridSpec,
    users: Sequence[SecondaryUser],
) -> LoadgenReport:
    host, _, port_text = config.connect.rpartition(":")  # type: ignore[union-attr]
    if not host or not port_text.isdigit():
        raise ValueError(f"--connect wants host:port, got {config.connect!r}")
    # Out-of-band key distribution: the TTP setup is deterministic in the
    # shared seed, so the fleet derives the same ring the server holds.
    _, keyring, scale = TrustedThirdParty.setup(
        protocol_seed(config.seed), config.n_channels, bmax=config.bmax
    )
    report = LoadgenReport(
        address=f"{host}:{port_text}",
        n_users=config.n_users,
        rounds_completed=0,
        elapsed_s=0.0,
        raw_latencies_s=[] if config.raw_latencies else None,
    )
    recorder = trace.get_active()
    fleet = Fleet(
        config, grid, scale, TcpTransport(host, int(port_text)),
        report=report, traced=recorder is not None,
    )
    t0 = monotonic()
    for su_id, user in enumerate(users):
        fleet.seat(su_id, su_id, user, keyring, config.rounds)
    await fleet.finish()
    report.elapsed_s = monotonic() - t0
    clients = list(fleet.clients.values())
    if recorder is not None:
        # No server runs in this process: the trace is the SUs' own
        # records, in `repro trace merge` order.
        recorders = [c.recorder for c in clients if c.recorder is not None]
        _, events = trace.merge_traces(
            [(r.header(), r.events()) for r in recorders]
        )
        recorder.extend(events)

    report.wire_bytes = sum(c.bytes_sent + c.bytes_received for c in clients)
    report.rounds_completed = len(fleet.results)
    for round_index in sorted(fleet.results):
        doc = fleet.results[round_index]
        report.add_round(round_index, doc)
        if config.check_equivalence:
            # The reference session must run the scheme the server announced
            # in its WELCOME frame, not whatever this process defaults to.
            session = reference_round(
                config, users, grid, round_index, scheme=clients[0].scheme.name
            )
            _check_wire_summary(doc, session, round_index)
            report.equivalence_checked += 1
    return report
