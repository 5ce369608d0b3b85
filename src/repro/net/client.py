"""The secondary-user endpoint of the network runtime.

An :class:`SUClient` owns exactly what the paper gives an SU: its identity,
its private cell and bids (a :class:`~repro.auction.bidders.SecondaryUser`),
and the key material the TTP distributed out of band.  Everything it sends
is the masked material of the protocol — the server never sees a plaintext
cell or bid value.

Determinism contract: the round's entropy label arrives in the ROUND_BEGIN
frame and the client draws its masking randomness from
:func:`repro.lppa.entropy.bidder_rng` — the exact per-bidder stream
:func:`repro.lppa.entropy.derive_round_rngs` hands the in-process session.
That, plus dense ids under full participation, is why a networked round is
bit-identical to :func:`~repro.lppa.session.run_lppa_auction`.

Fault handling: connects retry with exponential backoff and jitter
(:class:`RetryPolicy`), every read is bounded by ``frame_timeout``, and an
ERROR frame from the server surfaces as :class:`ProtocolError` with the
server's error code — never a hang.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.obs import trace
from repro.obs.trace import correlation_key
from repro.auction.bidders import SecondaryUser
from repro.crypto.keys import KeyRing
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale
from repro.lppa.policies import KeepZeroPolicy, ZeroDisguisePolicy
from repro.lppa.schemes.base import PrivacyScheme
from repro.lppa.schemes.registry import DEFAULT_SCHEME, get_scheme
from repro.net.frames import (
    FRAME_HEADER_BYTES,
    FrameType,
    pack_json,
    read_frame,
    unpack_json,
    write_frame,
)
from repro.lppa.entropy import bidder_rng
from repro.net.transport import Connection, Transport, TransportClosed
from repro.obs.clock import monotonic

__all__ = [
    "RetryPolicy",
    "ProtocolError",
    "ServerGoodbye",
    "ClientRound",
    "SUClient",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for connection attempts."""

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay <= 0 or self.multiplier < 1 or self.max_delay <= 0:
            raise ValueError("backoff parameters must be positive (multiplier >= 1)")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to sleep after failed attempt number ``attempt`` (0-based)."""
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter:
            raw *= 1.0 + self.jitter * rng.random()
        return raw


class ProtocolError(RuntimeError):
    """The server answered with an ERROR frame."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class ServerGoodbye(Exception):
    """The server sent BYE: no more rounds are coming."""


@dataclass(frozen=True)
class ClientRound:
    """One round as this SU experienced it."""

    round_index: int
    result: Dict[str, Any]
    latency_s: float


class SUClient:
    """One SU: connects, follows the round state machine, records latency."""

    def __init__(
        self,
        su_id: int,
        user: SecondaryUser,
        keyring: KeyRing,
        scale: BidScale,
        grid: GridSpec,
        two_lambda: int,
        transport: Transport,
        *,
        policy: Optional[ZeroDisguisePolicy] = None,
        retry: Optional[RetryPolicy] = None,
        frame_timeout: float = 30.0,
        recorder: Optional[trace.TraceRecorder] = None,
    ) -> None:
        self._su_id = su_id
        self._user = user
        self._keyring = keyring
        self._scale = scale
        self._grid = grid
        self._two_lambda = two_lambda
        self._transport = transport
        self._policy = policy if policy is not None else KeepZeroPolicy()
        self._retry = retry if retry is not None else RetryPolicy()
        self._frame_timeout = frame_timeout
        # A *private* per-client flight recorder: the client never touches
        # the process-wide recorder (which a self-hosted server may own),
        # so enabling client traces cannot perturb the server's stream.
        self._recorder = recorder
        self._conn: Optional[Connection] = None
        self._announcement: Optional[Dict[str, Any]] = None
        self._session_key: Optional[str] = None
        # Resolved from the WELCOME announcement at connect time: the server
        # names its scheme there (absence means the default, PPBS).
        self._scheme: PrivacyScheme = get_scheme(DEFAULT_SCHEME)
        self.bytes_sent = 0
        self.bytes_received = 0
        self.connect_attempts = 0

    @property
    def su_id(self) -> int:
        return self._su_id

    @property
    def keyring(self) -> KeyRing:
        return self._keyring

    def rekey(self, keyring: KeyRing, wire_id: int) -> None:
        """Adopt a redistributed key ring and this SU's wire id under it.

        Out of band, as the paper's TTP hands out the ring on join/leave.
        The dense id shifts when a lower id leaves or joins; the connection
        stays (the server side is
        :meth:`~repro.net.server.AuctioneerServer.renumber`).
        Both take effect from the next round's masking, so the SU draws
        ``bidder_rng(entropy, wire_id)`` exactly as a fresh client would.
        """
        self._keyring = keyring
        self._su_id = wire_id
        if self._recorder is not None:
            self._recorder.set_correlation(role=f"su:{wire_id}")

    @property
    def announcement(self) -> Optional[Dict[str, Any]]:
        """The WELCOME document, once connected."""
        return self._announcement

    @property
    def scheme(self) -> PrivacyScheme:
        """The privacy scheme announced by the server (PPBS until connected)."""
        return self._scheme

    @property
    def session_key(self) -> Optional[str]:
        """Correlation key derived from the WELCOME announcement."""
        return self._session_key

    @property
    def recorder(self) -> Optional[trace.TraceRecorder]:
        """This client's private flight recorder, if one was attached."""
        return self._recorder

    # -- connection management ----------------------------------------------

    async def connect(self) -> Dict[str, Any]:
        """Dial the server (with backoff) and register; returns the
        auction announcement from the WELCOME frame."""
        backoff_rng = random.Random(f"su-backoff:{self._su_id}")
        last_error: Optional[BaseException] = None
        for attempt in range(self._retry.max_attempts):
            self.connect_attempts += 1
            try:
                conn = await self._transport.connect()
                try:
                    await self._write(conn, FrameType.HELLO,
                                      pack_json({"su": self._su_id}))
                    ftype, payload = await self._read(conn)
                except BaseException:
                    conn.close()
                    raise
                if ftype is FrameType.ERROR:
                    doc = unpack_json(payload)
                    conn.close()
                    raise ProtocolError(
                        str(doc.get("code", "?")), str(doc.get("detail", ""))
                    )
                if ftype is not FrameType.WELCOME:
                    conn.close()
                    raise ProtocolError(
                        "bad-welcome", f"expected WELCOME, got {ftype}"
                    )
                self._conn = conn
                self._announcement = unpack_json(payload)
                self._scheme = get_scheme(
                    str(self._announcement.get("scheme", DEFAULT_SCHEME))
                )
                # Same bytes, same hash: the server derived this key from
                # the identical announcement document before sending it.
                self._session_key = correlation_key(self._announcement)
                if self._recorder is not None:
                    self._recorder.set_correlation(
                        session=self._session_key, role=f"su:{self._su_id}"
                    )
                    self._recorder.instant(
                        "client_connected", vis="su",
                        attempts=self.connect_attempts,
                    )
                return self._announcement
            except ProtocolError:
                raise  # the server answered; retrying won't change its mind
            except (
                TransportClosed,
                ConnectionError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ) as exc:
                last_error = exc
                obs.count("net.client.connect_retries")
                if attempt + 1 < self._retry.max_attempts:
                    await asyncio.sleep(self._retry.delay(attempt, backoff_rng))
        raise TransportClosed(
            f"su {self._su_id}: server unreachable after "
            f"{self._retry.max_attempts} attempts"
        ) from last_error

    def close(self) -> None:
        """Drop the connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- the round, from the SU's side --------------------------------------

    async def run_round(self) -> ClientRound:
        """Participate in the next round; blocks until RESULT (or raises
        :class:`ProtocolError` / :class:`ServerGoodbye`).

        Memory: each submission is encoded and dropped before its frame is
        written, and the disclosure :meth:`PrivacyScheme.make_bids` returns
        alongside the bids is never kept, so while this SU waits for the
        server no masked object of the round is alive on its side.  The
        returned :class:`ClientRound` (the parsed RESULT document) is the
        only thing the round leaves behind.
        """
        conn = self._require_conn()
        round_index, entropy = await self._await_round_begin(conn)
        t0 = monotonic()
        payload = self._scheme.encode_location(
            self._scheme.make_location(
                self._su_id, self._user.cell, self._keyring,
                self._grid, self._two_lambda,
            )
        )
        t_sent = monotonic()
        await self._write(conn, FrameType.LOCATION, payload)

        ftype, payload = await self._read(conn)
        obs.observe("net.client.frame_rtt", monotonic() - t_sent)
        if ftype is not FrameType.BID_REQUEST:
            self._unexpected(ftype, payload, expected="BID_REQUEST")
        # The per-bidder stream of the derive_round_rngs contract: masking
        # randomness is a function of (round entropy, this SU's id) only.
        # make_bids returns (bids, disclosure); only the bids are sent.
        payload = self._scheme.encode_bids(
            self._scheme.make_bids(
                self._su_id, self._user.bids, self._keyring, self._scale,
                bidder_rng(entropy, self._su_id), policy=self._policy,
            )[0]
        )
        t_sent = monotonic()
        await self._write(conn, FrameType.BIDS, payload)

        ftype, payload = await self._read(conn)
        obs.observe("net.client.frame_rtt", monotonic() - t_sent)
        if ftype is not FrameType.RESULT:
            self._unexpected(ftype, payload, expected="RESULT")
        result = unpack_json(payload)
        latency = monotonic() - t0
        obs.count("net.client.rounds")
        obs.observe("net.client.round_latency", latency)
        if self._recorder is not None:
            with self._recorder.corr_scope(round_=round_index):
                self._recorder.instant(
                    "client_round_complete", vis="su",
                    wins=len(result.get("wins", ())),
                )
        return ClientRound(
            round_index=round_index, result=result, latency_s=latency
        )

    async def run(self, n_rounds: int) -> int:
        """Connect if needed, play up to ``n_rounds`` rounds, close; returns
        the number of rounds played (fewer when the server says BYE).

        Memory stays flat however many rounds this plays: each round's
        :class:`ClientRound` is dropped as soon as it returns.  A caller
        that wants each round's RESULT document loops over
        :meth:`run_round` itself, as :class:`~repro.net.loadgen.Fleet` does.
        """
        if self._conn is None:
            await self.connect()
        played = 0
        try:
            for _ in range(n_rounds):
                await self.run_round()
                played += 1
        except ServerGoodbye:
            pass
        finally:
            self.close()
        return played

    async def _await_round_begin(self, conn: Connection) -> Tuple[int, str]:
        ftype, payload = await self._read(conn)
        if ftype is not FrameType.ROUND_BEGIN:
            self._unexpected(ftype, payload, expected="ROUND_BEGIN")
        doc = unpack_json(payload)
        return int(doc["round"]), str(doc["entropy"])

    def _unexpected(self, ftype: FrameType, payload: bytes, *, expected: str):
        if ftype is FrameType.BYE:
            raise ServerGoodbye
        if ftype is FrameType.ERROR:
            doc = unpack_json(payload)
            raise ProtocolError(
                str(doc.get("code", "?")), str(doc.get("detail", ""))
            )
        raise ProtocolError("unexpected-frame", f"expected {expected}, got {ftype}")

    # -- framed I/O with timeouts and byte accounting ------------------------

    def _require_conn(self) -> Connection:
        if self._conn is None:
            raise RuntimeError(f"su {self._su_id} is not connected")
        return self._conn

    async def _read(self, conn: Connection) -> Tuple[FrameType, bytes]:
        async with asyncio.timeout(self._frame_timeout):
            ftype, payload = await read_frame(conn, strict=True)
        self.bytes_received += FRAME_HEADER_BYTES + len(payload)
        return ftype, payload

    async def _write(self, conn: Connection, ftype: FrameType, payload: bytes) -> None:
        self.bytes_sent += await write_frame(conn, ftype, payload)
