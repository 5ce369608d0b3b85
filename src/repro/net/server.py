"""The auctioneer as an asyncio server: an explicit round state machine.

:func:`repro.lppa.session.run_lppa_auction` runs one round as a straight
function call; this server decomposes the same round into the phases the
paper describes as *message exchanges*, driven by real frames over a
:class:`~repro.net.transport.Transport`:

.. code-block:: text

    IDLE ──round──> COLLECT_LOCATIONS ──deadline/all──> COLLECT_BIDS
                 (ROUND_BEGIN out,                   (BID_REQUEST out,
                  LOCATION in)                        BIDS in)
    COLLECT_BIDS ──deadline/all──> ALLOCATE ──> CHARGE ──> IDLE
                                 (rankings +   (TtpService  (RESULT out)
                                  Algorithm 3)  windows)

Semantics:

* **deadlines** — each collect phase waits until every expected SU has
  submitted *or* the phase deadline fires; the round then proceeds with
  whoever arrived (stragglers are excluded from the round, reported in the
  :class:`NetRoundReport`, and any late frame is answered with a clean
  ``ERROR late-submission`` frame rather than a hang);
* **malformed frames** — envelope or payload bytes that fail the strict
  codec path (:func:`repro.net.frames.read_frame` with ``strict=True``,
  :func:`repro.lppa.codec.decode_location` / ``decode_bids``) raise
  :class:`~repro.lppa.codec.CodecError`; the offender gets an ``ERROR
  malformed-frame`` and its connection is closed, without poisoning the
  round for everyone else;
* **backpressure** — every write awaits the transport's drain, and no
  frame larger than ``max_frame_bytes`` is ever buffered (the envelope
  length is validated before payload bytes are read);
* **determinism** — with entropy-labelled rounds
  (:func:`repro.lppa.entropy.derive_round_rngs` contract) and full
  participation, the round's :class:`~repro.lppa.round.results.LppaResult`
  is bit-identical to the in-process session; ``tests/net/test_runtime.py``
  pins this differentially.

Dense user ids: the masked-table layer requires submissions numbered
``0..m-1``.  SUs keep their public ids on the wire; the server remaps the
round's participants to dense slots (sorted by SU id) before the
allocation and maps winner records back for the RESULT broadcast.  With
every expected SU participating the remap is the identity, which is what
makes the differential equivalence exact.

Observability: the four session phase keys (``location_submission``,
``bid_submission``, ``psd_allocation``, ``ttp_charging``) wrap the same
work here, wire messages land in the flight recorder with the same kinds
and visibility tags, and ``net.*`` counters add the runtime's own view
(frames, envelope bytes, deadline expiries, TTP windows).

Structurally the server is the round core's *network driver*: the phases
themselves are the shared :data:`repro.lppa.round.PHASE_STEPS` executed by
:func:`repro.lppa.round.execute_round_async` with the crypto value
backend; :class:`_NetRoundDriver` below contributes only the
transport-facing interaction points (deadline-gated collection, straggler
repair, the TTP service exchange, the RESULT broadcast).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.obs import trace
from repro.obs.clock import monotonic
from repro.obs.live import MetricsHttpServer
from repro.obs.trace import correlation_key
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale
from repro.lppa.codec import CodecError
from repro.lppa.entropy import alloc_rng
from repro.lppa.round import (
    LppaResult,
    PhaseStep,
    RoundDriver,
    RoundState,
    execute_round_async,
)
from repro.lppa.schemes.registry import get_scheme
from repro.lppa.ttp import TrustedThirdParty
from repro.net.frames import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameType,
    pack_json,
    read_frame,
    unpack_json,
    write_frame,
)
from repro.net.transport import Connection, Transport, TransportClosed
from repro.net.ttp_service import TtpService

__all__ = [
    "RoundPhase",
    "ServerConfig",
    "NetRoundReport",
    "WireStats",
    "RoundAborted",
    "AuctioneerServer",
    "ERR_MALFORMED",
    "ERR_LATE",
    "ERR_BAD_HELLO",
    "ERR_DUPLICATE_SU",
    "ERR_UNEXPECTED",
    "ERR_WRONG_USER",
    "ERR_BAD_SUBMISSION",
    "ERR_ROUND_ABORTED",
]

ERR_MALFORMED = "malformed-frame"
ERR_LATE = "late-submission"
ERR_BAD_HELLO = "bad-hello"
ERR_DUPLICATE_SU = "duplicate-su"
ERR_UNEXPECTED = "unexpected-frame"
ERR_WRONG_USER = "wrong-user-id"
ERR_BAD_SUBMISSION = "bad-submission"
ERR_ROUND_ABORTED = "round-aborted"


class RoundPhase(enum.Enum):
    """Where the state machine is; collect phases gate inbound submissions."""

    IDLE = "idle"
    COLLECT_LOCATIONS = "collect-locations"
    COLLECT_BIDS = "collect-bids"
    ALLOCATE = "allocate"
    CHARGE = "charge"


class RoundAborted(RuntimeError):
    """No usable participants survived the collect phases."""


class _CloseConnection(Exception):
    """Internal: the dispatcher decided this peer must be disconnected."""


@dataclass(frozen=True)
class ServerConfig:
    """Protocol parameters plus the runtime's deadlines.

    ``metrics_port`` opts into the OpenMetrics scrape endpoint
    (:class:`~repro.obs.live.MetricsHttpServer`): ``None`` (the default)
    never constructs the endpoint, ``0`` binds an ephemeral port.  The
    endpoint serves whatever the process-wide :mod:`repro.obs` registry is
    collecting, overlaid with the server's runtime gauges.
    """

    n_users: int
    n_channels: int
    grid: GridSpec
    two_lambda: int
    bmax: int
    seed: bytes = b"lppa-session"
    rd: int = 4
    cr: int = 8
    #: Privacy scheme name; non-default schemes tag the WELCOME announcement
    #: so clients encode/decode with the matching codecs.
    scheme: str = "ppbs"
    location_deadline: float = 5.0
    bid_deadline: float = 5.0
    join_deadline: float = 10.0
    max_frame_bytes: int = MAX_FRAME_BYTES
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("need at least one expected SU")
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        if min(self.location_deadline, self.bid_deadline, self.join_deadline) <= 0:
            raise ValueError("deadlines must be positive")


@dataclass
class WireStats:
    """Exact envelope accounting, both directions, server-side."""

    frames_in: int = 0
    bytes_in: int = 0
    frames_out: int = 0
    bytes_out: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_in + self.bytes_out


@dataclass(frozen=True)
class NetRoundReport:
    """One networked round: the protocol result plus runtime accounting."""

    round_index: int
    result: LppaResult
    participants: Tuple[int, ...]  # original SU ids, dense order
    stragglers: Tuple[int, ...]    # roster members that missed a deadline
    latency_s: float


@dataclass
class _ClientState:
    su: int
    conn: Connection
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class AuctioneerServer:
    """Runs LPPA rounds for SUs connected over a transport."""

    def __init__(
        self,
        config: ServerConfig,
        transport: Transport,
        *,
        ttp_service: Optional[TtpService] = None,
    ) -> None:
        self._config = config
        self._transport = transport
        self._scheme = get_scheme(config.scheme)
        ttp, keyring, scale = TrustedThirdParty.setup(
            config.seed,
            config.n_channels,
            bmax=config.bmax,
            rd=config.rd,
            cr=config.cr,
        )
        # The key ring is *TTP/SU* material: this process plays every role
        # (as the in-process session does) and exposes the ring so drivers
        # can hand it to their SU clients "out of band".  The auctioneer
        # code path below never touches it.
        self._keyring = keyring
        self._scale = scale
        self._ttp_service = (
            ttp_service if ttp_service is not None else TtpService(ttp)
        )
        self._owns_ttp_service = ttp_service is None
        self._clients: Dict[int, _ClientState] = {}
        self._client_arrived = asyncio.Event()
        self._roster_changed = asyncio.Event()
        self._phase = RoundPhase.IDLE
        self._round = -1
        self._expected: Set[int] = set()
        self._locations: Dict[int, Any] = {}
        self._bids: Dict[int, Any] = {}
        self._phase_done = asyncio.Event()
        self.wire = WireStats()
        # Both ends of every connection derive this from the WELCOME
        # announcement, so server, clients and TTP stamp the same trace
        # session without a single extra wire byte.
        self._session_key = correlation_key(self._announcement())
        self._metrics_server: Optional[MetricsHttpServer] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def keyring(self):
        """SU/TTP key material for out-of-band distribution to clients."""
        return self._keyring

    @property
    def scale(self) -> BidScale:
        return self._scale

    @property
    def scheme(self):
        """The privacy scheme this server runs (from ``config.scheme``)."""
        return self._scheme

    @property
    def ttp_service(self) -> TtpService:
        return self._ttp_service

    @property
    def transport(self) -> Transport:
        """The transport this server listens on (SUs dial the same one)."""
        return self._transport

    @property
    def address(self) -> str:
        return self._transport.address

    @property
    def phase(self) -> RoundPhase:
        return self._phase

    @property
    def n_connected(self) -> int:
        return len(self._clients)

    @property
    def roster(self) -> Tuple[int, ...]:
        """Currently connected SU ids, sorted (the next round's roster)."""
        return tuple(sorted(self._clients))

    @property
    def session_key(self) -> str:
        """The trace correlation key derived from the announcement."""
        return self._session_key

    @property
    def metrics_address(self) -> Optional[str]:
        """``host:port`` of the scrape endpoint, or ``None`` when disabled."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.address

    async def start(self) -> None:
        """Bring the TTP service online (if owned) and start listening."""
        tr = trace.get_active()
        if tr is not None:
            tr.set_correlation(session=self._session_key, role="server")
        self._ttp_service.set_correlation(self._session_key)
        if self._owns_ttp_service:
            await self._ttp_service.start()
        await self._transport.listen(self._handle_connection)
        if self._config.metrics_port is not None:
            self._metrics_server = MetricsHttpServer(
                self._metrics_snapshot,
                host=self._config.metrics_host,
                port=self._config.metrics_port,
            )
            await self._metrics_server.start()

    async def stop(self) -> None:
        """Say goodbye, close every connection and the transport."""
        for state in list(self._clients.values()):
            with contextlib.suppress(TransportClosed, ConnectionError):
                await self._send(state, FrameType.BYE, pack_json({"rounds": self._round + 1}))
            state.conn.close()
        self._clients.clear()
        await self._transport.close()
        if self._owns_ttp_service:
            await self._ttp_service.stop()
        if self._metrics_server is not None:
            await self._metrics_server.stop()
            self._metrics_server = None

    def _metrics_snapshot(self) -> Dict[str, object]:
        """What a scrape sees: the active registry plus runtime gauges.

        Evaluated per scrape between protocol await-points, so it observes
        a consistent registry without locks; the overlay gauges make the
        endpoint useful even when nothing else is collecting.
        """
        registry = obs.get_active()
        snapshot: Dict[str, object] = (
            {"counters": {}, "timers": {}, "totals": {}, "histograms": {}, "gauges": {}}
            if registry is None
            else registry.snapshot()
        )
        gauges = dict(snapshot.get("gauges") or {})  # type: ignore[arg-type]
        gauges["net.server.connected_clients"] = float(len(self._clients))
        gauges["net.server.rounds_started"] = float(self._round + 1)
        snapshot["gauges"] = gauges
        return snapshot

    async def wait_for_clients(self, n: int, *, timeout: float) -> None:
        """Block until ``n`` SUs are registered (or raise on timeout)."""

        async def _waiter() -> None:
            while len(self._clients) < n:
                self._client_arrived.clear()
                await self._client_arrived.wait()

        await asyncio.wait_for(_waiter(), timeout)

    async def wait_for_roster(
        self, expected: Sequence[int], *, timeout: float
    ) -> None:
        """Block until the connected set is *exactly* ``expected``.

        The epoch scheduler's membership barrier: joins must have arrived
        **and** leavers must have disconnected before the next round
        snapshots its roster — a lingering departed SU would break the
        dense-id equivalence contract.
        """
        want = set(expected)

        async def _waiter() -> None:
            while set(self._clients) != want:
                self._roster_changed.clear()
                await self._roster_changed.wait()

        await asyncio.wait_for(_waiter(), timeout)

    def redistribute_keys(self, keyring) -> None:
        """Adopt a new key ring: fresh TTP, same scale, same transport.

        The epoch service's key (re)distribution on membership change
        (paper section IV: the TTP hands the ring to the bidders out of
        band).  Constructing the :class:`TrustedThirdParty` registers the
        new key epoch with the mask cache — selective invalidation keeps
        stationary SUs' entries warm.  Must be called between rounds
        (phase IDLE) with an empty charge backlog.
        """
        if self._phase is not RoundPhase.IDLE:
            raise RuntimeError("cannot rekey mid-round")
        ttp = TrustedThirdParty(keyring, self._scale)
        self._keyring = keyring
        self._ttp_service.rekey(ttp)
        obs.count("service.rekeys")

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, conn: Connection) -> None:
        state: Optional[_ClientState] = None
        try:
            ftype, payload = await asyncio.wait_for(
                self._read(conn), self._config.join_deadline
            )
            if ftype is not FrameType.HELLO:
                await self._send_raw(conn, FrameType.ERROR, ERR_UNEXPECTED,
                                     f"expected HELLO, got {ftype}")
                return
            hello = unpack_json(payload)
            su = hello.get("su")
            if not isinstance(su, int) or not 0 <= su < self._config.n_users:
                await self._send_raw(conn, FrameType.ERROR, ERR_BAD_HELLO,
                                     f"su {su!r} outside [0, {self._config.n_users})")
                return
            if su in self._clients:
                await self._send_raw(conn, FrameType.ERROR, ERR_DUPLICATE_SU,
                                     f"su {su} already registered")
                return
            state = _ClientState(su=su, conn=conn)
            self._clients[su] = state
            self._client_arrived.set()
            self._roster_changed.set()
            obs.count("net.clients_joined")
            await self._send(state, FrameType.WELCOME, pack_json(self._announcement()))
            while True:
                ftype, payload = await self._read(conn)
                await self._dispatch(state, ftype, payload)
        except _CloseConnection:
            pass
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
            # Peer vanished (possibly mid-frame).  Drop it; an in-flight
            # collect phase re-checks completion so the round is not
            # poisoned by a dead straggler.
            obs.count("net.connections_dropped")
        except CodecError as exc:
            obs.count("net.malformed_frames")
            with contextlib.suppress(TransportClosed, ConnectionError):
                await self._send_raw(conn, FrameType.ERROR, ERR_MALFORMED, str(exc))
        finally:
            if state is not None and self._clients.get(state.su) is state:
                del self._clients[state.su]
                self._roster_changed.set()
                self._discard_pending(state.su)
                self._maybe_phase_done()
            conn.close()

    def _announcement(self) -> Dict[str, object]:
        """The public auction announcement (what WELCOME carries).

        The default scheme contributes no extra key, keeping the default
        announcement — and the correlation key derived from it — identical
        to the pre-scheme protocol; other schemes add ``"scheme"`` so the
        client selects the matching codecs.
        """
        cfg = self._config
        return {
            "n_users": cfg.n_users,
            "n_channels": cfg.n_channels,
            "bmax": cfg.bmax,
            "two_lambda": cfg.two_lambda,
            "grid_rows": cfg.grid.rows,
            "grid_cols": cfg.grid.cols,
            **self._scheme.announcement_fields(),
        }

    async def _read(self, conn: Connection) -> Tuple[FrameType, bytes]:
        ftype, payload = await read_frame(
            conn, strict=True, max_frame_bytes=self._config.max_frame_bytes
        )
        self.wire.frames_in += 1
        self.wire.bytes_in += FRAME_HEADER_BYTES + len(payload)
        obs.count("net.frames_received")
        return ftype, payload

    async def _send(self, state: _ClientState, ftype: FrameType, payload: bytes) -> None:
        async with state.lock:
            n = await write_frame(state.conn, ftype, payload)
        self.wire.frames_out += 1
        self.wire.bytes_out += n
        obs.count("net.frames_sent")

    async def _send_raw(
        self, conn: Connection, ftype: FrameType, code: str, detail: str
    ) -> None:
        n = await write_frame(conn, ftype, pack_json({"code": code, "detail": detail}))
        self.wire.frames_out += 1
        self.wire.bytes_out += n
        obs.count("net.frames_sent")

    async def _send_error(self, state: _ClientState, code: str, detail: str) -> None:
        with contextlib.suppress(TransportClosed, ConnectionError):
            await self._send(
                state, FrameType.ERROR, pack_json({"code": code, "detail": detail})
            )

    async def _dispatch(
        self, state: _ClientState, ftype: FrameType, payload: bytes
    ) -> None:
        if ftype is FrameType.LOCATION:
            await self._on_submission(state, payload, kind="location")
        elif ftype is FrameType.BIDS:
            await self._on_submission(state, payload, kind="bids")
        else:
            await self._send_error(
                state, ERR_UNEXPECTED, f"client may not send {ftype.name}"
            )
            raise _CloseConnection

    async def _on_submission(
        self, state: _ClientState, payload: bytes, *, kind: str
    ) -> None:
        wanted = (
            RoundPhase.COLLECT_LOCATIONS if kind == "location" else RoundPhase.COLLECT_BIDS
        )
        store = self._locations if kind == "location" else self._bids
        if self._phase is not wanted or state.su not in self._expected:
            # A straggler past the deadline (or a submission outside any
            # round): answer with a clean protocol error, keep the
            # connection — the SU can rejoin the next round.
            obs.count("net.late_frames")
            await self._send_error(
                state, ERR_LATE,
                f"{kind} submission outside the {wanted.value} phase",
            )
            return
        # Malformed payloads raise CodecError and are handled (error frame +
        # connection close) by the connection handler.  The scheme's strict
        # decoders also reject another scheme's payloads (distinct tags).
        if kind == "location":
            sub: object = self._scheme.decode_location(payload)
        else:
            sub = self._scheme.decode_bids(payload)
        if sub.user_id != state.su:  # type: ignore[attr-defined]
            await self._send_error(
                state, ERR_WRONG_USER,
                f"submission claims su {sub.user_id}, connection is su {state.su}",  # type: ignore[attr-defined]
            )
            raise _CloseConnection
        if kind == "bids" and sub.n_channels != self._config.n_channels:  # type: ignore[attr-defined]
            await self._send_error(
                state, ERR_BAD_SUBMISSION,
                f"{sub.n_channels} channels, auction has {self._config.n_channels}",  # type: ignore[attr-defined]
            )
            raise _CloseConnection
        store[state.su] = sub  # type: ignore[assignment]
        self._maybe_phase_done()

    def _discard_pending(self, su: int) -> None:
        """A dead connection's half-round submissions must not reach the
        allocation: the intersection rule (location AND bids) handles the
        cross-phase case; same-phase partials are dropped here."""
        if self._phase is RoundPhase.COLLECT_LOCATIONS:
            self._locations.pop(su, None)
        elif self._phase is RoundPhase.COLLECT_BIDS:
            self._bids.pop(su, None)

    def _maybe_phase_done(self) -> None:
        if self._phase is RoundPhase.COLLECT_LOCATIONS:
            store = self._locations
        elif self._phase is RoundPhase.COLLECT_BIDS:
            store = self._bids
        else:
            return
        still_possible = {
            su for su in self._expected if su in self._clients or su in store
        }
        if still_possible <= set(store):
            self._phase_done.set()

    # -- the round state machine -------------------------------------------

    async def run_round(self, entropy: str) -> NetRoundReport:
        """Drive one auction round over the connected SUs.

        The phases themselves are the shared round core
        (:data:`repro.lppa.round.PHASE_STEPS` with the crypto backend);
        this method contributes the roster snapshot, the round counter and
        the abort protocol, and :class:`_NetRoundDriver` the transport
        interaction points.
        """
        if self._phase is not RoundPhase.IDLE:
            raise RuntimeError(f"round already in progress (phase {self._phase})")
        cfg = self._config
        roster = tuple(sorted(self._clients))
        if not roster:
            raise RoundAborted("no connected SUs")
        self._round += 1
        round_index = self._round
        self._locations = {}
        self._bids = {}
        t0 = monotonic()

        tr = trace.get_active()
        driver = _NetRoundDriver(self, round_index, entropy, roster)
        state = RoundState(
            backend=self._scheme.backend,
            driver=driver,
            n_users=len(roster),
            n_channels=cfg.n_channels,
            two_lambda=cfg.two_lambda,
            bmax=cfg.bmax,
            rd=cfg.rd,
            cr=cfg.cr,
            seed=cfg.seed,
            grid=cfg.grid,
            alloc_rng=alloc_rng(entropy),
            # TTP setup happened once at construction; prefilling the
            # material makes the crypto backend's setup step a no-op.
            keyring=self._keyring,
            scale=self._scale,
            tr=tr,
        )
        try:
            with obs.timer("net.round"):
                await execute_round_async(state)
        except RoundAborted:
            await self._broadcast(
                roster, FrameType.ERROR,
                pack_json({"code": ERR_ROUND_ABORTED,
                           "detail": "not enough submissions survived the deadlines"}),
            )
            obs.count("net.rounds_aborted")
            if tr is not None:
                tr.round_end(aborted=True)
            raise
        finally:
            self._phase = RoundPhase.IDLE
            self._expected = set()

        latency = monotonic() - t0
        obs.observe("net.round.latency", latency)
        return NetRoundReport(
            round_index=round_index,
            result=state.result,
            participants=driver.participants,
            stragglers=tuple(su for su in roster if su not in driver.participants),
            latency_s=latency,
        )

    def _dense_locations(self, sus: Sequence[int]) -> List[Any]:
        return [
            dataclasses.replace(self._locations[su], user_id=i)
            for i, su in enumerate(sus)
        ]

    def _begin_collect(self, phase: RoundPhase, expected: Sequence[int]) -> None:
        self._phase = phase
        self._expected = set(expected)
        self._phase_done.clear()

    async def _collect(self, deadline: float) -> None:
        self._maybe_phase_done()
        try:
            await asyncio.wait_for(self._phase_done.wait(), deadline)
        except asyncio.TimeoutError:
            obs.count("net.phase_deadlines_expired")

    async def _broadcast(
        self, sus: Sequence[int], ftype: FrameType, payload: bytes
    ) -> None:
        async def _one(su: int) -> None:
            state = self._clients.get(su)
            if state is None:
                return
            with contextlib.suppress(TransportClosed, ConnectionError):
                await self._send(state, ftype, payload)

        await asyncio.gather(*(_one(su) for su in sus))

    async def _broadcast_result(
        self,
        round_index: int,
        participants: Tuple[int, ...],
        result: LppaResult,
    ) -> None:
        outcome = result.outcome
        document = {
            "round": round_index,
            "participants": list(participants),
            "wins": [
                {
                    "su": participants[w.bidder],
                    "channel": w.channel,
                    "charge": w.charge,
                    "valid": w.valid,
                }
                for w in outcome.wins
            ],
            "revenue": outcome.sum_of_winning_bids(),
            "location_bytes": result.location_bytes,
            "bid_bytes": result.bid_bytes,
            "masked_set_bytes": result.masked_set_bytes,
            "framed_bytes": result.framed_bytes,
        }
        await self._broadcast(participants, FrameType.RESULT, pack_json(document))


class _NetRoundDriver(RoundDriver):
    """One round's transport-facing hooks, bound to a server and roster.

    Unlike the stateless in-process driver singleton, a fresh instance is
    created per round: it carries the round index, the entropy label, the
    roster snapshot and the surviving-participant sets the report needs.
    """

    name = "network"

    def __init__(
        self,
        server: AuctioneerServer,
        round_index: int,
        entropy: str,
        roster: Tuple[int, ...],
    ) -> None:
        self._server = server
        self._round_index = round_index
        self._entropy = entropy
        self._roster = roster
        self._location_sus: Tuple[int, ...] = ()
        self.participants: Tuple[int, ...] = ()

    def enter_phase(self, state: RoundState, step: PhaseStep) -> None:
        # The collect phases transition inside collect_* (via
        # _begin_collect, which also arms the expected set); the two
        # compute phases transition here so late frames get ERR_LATE.
        if step.key == "psd_allocation":
            self._server._phase = RoundPhase.ALLOCATE
        elif step.key == "ttp_charging":
            self._server._phase = RoundPhase.CHARGE

    async def collect_locations(self, state: RoundState) -> None:
        srv = self._server
        srv._begin_collect(RoundPhase.COLLECT_LOCATIONS, self._roster)
        await srv._broadcast(
            self._roster, FrameType.ROUND_BEGIN,
            pack_json({"round": self._round_index, "entropy": self._entropy}),
        )
        await srv._collect(srv._config.location_deadline)
        location_sus = tuple(sorted(srv._locations))
        if not location_sus:
            raise RoundAborted("no location submissions")
        self._location_sus = location_sus
        state.location_subs = srv._dense_locations(location_sus)

    async def collect_bids(self, state: RoundState) -> None:
        srv = self._server
        srv._begin_collect(RoundPhase.COLLECT_BIDS, self._location_sus)
        await srv._broadcast(
            self._location_sus, FrameType.BID_REQUEST,
            pack_json({"round": self._round_index}),
        )
        await srv._collect(srv._config.bid_deadline)
        participants = tuple(
            sorted(su for su in srv._bids if su in srv._locations)
        )
        if not participants:
            raise RoundAborted("no bid submissions")
        if participants != self._location_sus:
            # Stragglers died between phases; hand the core the surviving
            # roster's locations and let it re-ingest (straggler repair).
            state.location_subs = srv._dense_locations(participants)
            state.relocate = True
        self.participants = participants
        state.bid_subs = [
            dataclasses.replace(srv._bids[su], user_id=i)
            for i, su in enumerate(participants)
        ]

    async def decide_charges(self, state: RoundState, material: List) -> List:
        # Through the periodically-online TTP service (windowed batching).
        return await self._server._ttp_service.charge_batch(material)

    async def publish(self, state: RoundState) -> None:
        await self._server._broadcast_result(
            self._round_index, self.participants, state.result
        )
