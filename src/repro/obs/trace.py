"""``repro.obs.trace`` — the protocol flight recorder.

Where :mod:`repro.obs.registry` aggregates (counters and timers), this
module *records*: every protocol event — phase spans with parent/child
nesting, each :class:`~repro.lppa.messages.LocationSubmission` /
:class:`~repro.lppa.messages.BidSubmission` with its exact serialized wire
size, the TTP charging messages, the adversary-visible per-channel bid
rankings — lands as one schema-versioned record in an in-memory ring
buffer.  The paper's claims are per-message (Theorem 4 bounds what each SU
transmits) and per-round (the BCM/BPM threat model is about what the
auctioneer observes message by message); a trace lets the auditors in
:mod:`repro.analysis.trace_audit` check those claims against what the
protocol *actually emitted*.

Event record shapes (schema version 1, one JSON object per JSONL line):

* header (always the first line of an export)::

      {"type": "trace_header", "schema_version": 1, "clock": "perf_counter",
       "event_count": N, "dropped": D, "capacity": C}

* common event fields: ``type`` (``span`` | ``message`` | ``instant`` |
  ``meta`` | ``ranking``), ``seq`` (monotonic int), ``ts`` (seconds since
  the recorder started, from :mod:`repro.obs.clock`), ``round``
  (auction-round index or ``null``), ``vis`` (who can observe the event:
  ``public`` | ``auctioneer`` | ``su`` | ``ttp``); optionally ``session``
  (the :func:`correlation_key` both ends of a connection derive from the
  WELCOME announcement), ``role`` (``server`` | ``su:<id>`` | ``ttp`` |
  ...) and — on merged traces — ``src`` (source index in the merge);
* ``span`` — ``name``, ``path`` (dot-joined nesting), ``parent`` (path or
  ``null``), ``dur`` (seconds; ``ts`` is the span's *start*);
* ``message`` — ``kind`` (``location_submission`` | ``bid_submission`` |
  ``charge_request`` | ``charge_decision``), ``su``, ``channel``,
  ``payload_bytes`` (what ``wire_bytes()`` / Theorem 4 model),
  ``wire_size`` (exact serialized size including framing), plus
  kind-specific extras (``masked_set_bytes``, ``digest_bytes``,
  ``n_channels``, ``status``, ...);
* ``instant`` — ``name`` plus free-form ``args``;
* ``meta`` — ``name`` plus free-form ``args`` (run/protocol parameters);
* ``ranking`` — ``channel`` and ``classes`` (the per-channel masked-bid
  equivalence classes, best first — exactly the curious auctioneer's view).

The module-level layer mirrors :mod:`repro.obs`: nothing records by
default, every emit helper is a cheap early-out on a module global, and
call sites that would *compute* event payloads guard on
:func:`get_active` so tracing disabled costs one ``is None`` test.
"""

from __future__ import annotations

import collections
import hashlib
import json
from pathlib import Path
from types import TracebackType
from typing import (
    Any,
    ContextManager,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import contextlib

from repro.obs.clock import monotonic

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "DEFAULT_CAPACITY",
    "EVENT_TYPES",
    "MESSAGE_KINDS",
    "VISIBILITIES",
    "TRACE_FILE_PREFIX",
    "TraceRecorder",
    "get_active",
    "enable",
    "disable",
    "recording",
    "suspended",
    "span",
    "message",
    "instant",
    "meta",
    "ranking",
    "round_begin",
    "round_end",
    "adversary_view",
    "correlation_key",
    "load_trace",
    "merge_traces",
    "write_jsonl_records",
    "validate_trace",
    "chrome_trace",
]

#: Current trace schema version; bump on breaking record-layout changes.
TRACE_SCHEMA_VERSION = 1

#: Default ring-buffer capacity (events); oldest events drop beyond this.
DEFAULT_CAPACITY = 1 << 16

#: File-name prefix the CLI and CI glob for (``TRACE_<name>.jsonl``).
TRACE_FILE_PREFIX = "TRACE_"

EVENT_TYPES = ("span", "message", "instant", "meta", "ranking")

MESSAGE_KINDS = (
    "location_submission",
    "bid_submission",
    "charge_request",
    "charge_decision",
)

#: Who can observe an event.  ``auctioneer`` marks the honest-but-curious
#: adversary's view — the privacy auditor consumes exactly ``public`` +
#: ``auctioneer`` events and nothing else.
VISIBILITIES = ("public", "auctioneer", "su", "ttp")

Record = Dict[str, Any]


def correlation_key(announcement: Dict[str, Any]) -> str:
    """The cross-process session id derived from data already on the wire.

    Both ends of a connection hash the WELCOME announcement (the auction
    parameters the server broadcasts anyway) — canonical JSON, SHA-256,
    first 12 hex characters — so server, every SU client and the TTP
    service stamp the *same* ``session`` into their trace events without a
    single extra wire byte.  Together with the per-event ``round`` and the
    span ``path`` (phase), that makes ``(session, round, phase)`` the
    correlation key ``repro trace merge`` joins on.
    """
    canonical = json.dumps(
        announcement, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class _NullScope:
    """Shared no-op context manager returned while recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        """No-op entry."""
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        """No-op exit."""


_NULL_SCOPE = _NullScope()


class _SpanScope:
    """Context manager emitting one ``span`` record when its block closes.

    The record's ``ts`` is the span's *start*; ``dur`` its wall seconds
    (both from the single :mod:`repro.obs.clock`).  Nesting is tracked on
    the recorder's span stack so the record carries its dot-joined ``path``
    and its ``parent`` path.
    """

    __slots__ = ("_recorder", "_name", "_vis", "_args", "_start", "_path", "_parent")

    def __init__(
        self,
        recorder: "TraceRecorder",
        name: str,
        vis: str,
        args: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._vis = vis
        self._args = args
        self._start = 0.0
        self._path = ""
        self._parent: Optional[str] = None

    def __enter__(self) -> "_SpanScope":
        stack = self._recorder._span_stack
        self._parent = ".".join(stack) if stack else None
        stack.append(self._name)
        self._path = ".".join(stack)
        self._start = self._recorder._now()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        dur = self._recorder._now() - self._start
        stack = self._recorder._span_stack
        if not stack or stack[-1] != self._name:
            raise RuntimeError(
                f"span stack corrupted: closing {self._name!r} "
                f"but stack is {stack!r}"
            )
        stack.pop()
        record: Record = {
            "type": "span",
            "name": self._name,
            "path": self._path,
            "parent": self._parent,
            "dur": dur,
            "vis": self._vis,
        }
        if self._args:
            record["args"] = self._args
        self._recorder._emit(record, ts=self._start)


class TraceRecorder:
    """In-memory ring buffer of protocol events.

    Plain object — create as many as you like; the module-level layer
    (:func:`enable` / :func:`recording`) decides which one, if any, the
    instrumented code feeds.  When the buffer is full the *oldest* events
    drop (flight-recorder semantics: the most recent window survives) and
    :attr:`dropped` counts the loss, which exports surface in the header.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self._capacity = capacity
        self._events: Deque[Record] = collections.deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._t0 = monotonic()
        self._round: Optional[int] = None
        self._rounds_started = 0
        self._span_stack: List[str] = []
        self._session: Optional[str] = None
        self._role: Optional[str] = None

    # -- recording ---------------------------------------------------------

    def _now(self) -> float:
        return monotonic() - self._t0

    def _emit(self, record: Record, *, ts: Optional[float] = None) -> None:
        record["seq"] = self._seq
        record["ts"] = self._now() if ts is None else ts
        record["round"] = self._round
        if self._session is not None:
            record["session"] = self._session
        if self._role is not None:
            record["role"] = self._role
        self._append(record)

    def _append(self, record: Record) -> None:
        self._seq += 1
        if len(self._events) == self._capacity:
            self._dropped += 1
        self._events.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        """Append records stamped elsewhere (e.g. other recorders' events in
        :func:`merge_traces` order), renumbering ``seq`` into this stream."""
        for record in records:
            self._append({**record, "seq": self._seq})

    def set_correlation(
        self,
        *,
        session: Optional[str] = None,
        role: Optional[str] = None,
    ) -> None:
        """Default ``session``/``role`` stamps for every subsequent event.

        Optional extra fields only — summaries, the Theorem-4 audit and
        the wire bytes are computed from fields that predate them, so
        stamping changes no audited quantity (the differential tests pin
        this).  ``None`` leaves the respective default unchanged.
        """
        if session is not None:
            self._session = session
        if role is not None:
            self._role = role

    @contextlib.contextmanager
    def corr_scope(
        self,
        *,
        session: Optional[str] = None,
        role: Optional[str] = None,
        round_: Optional[int] = None,
    ) -> Iterator["TraceRecorder"]:
        """Temporarily override correlation stamps for a synchronous block.

        Used where one recorder serves several logical processes in one
        event loop (the TTP service inside the server process, self-hosted
        loadgen): events emitted inside the block carry the overridden
        ``session``/``role``/``round``.  The block must not ``await`` —
        an interleaved coroutine would inherit the override.
        """
        prev = (self._session, self._role, self._round)
        if session is not None:
            self._session = session
        if role is not None:
            self._role = role
        if round_ is not None:
            self._round = round_
        try:
            yield self
        finally:
            self._session, self._role, self._round = prev

    def span(
        self, name: str, *, vis: str = "public", **args: Any
    ) -> _SpanScope:
        """Open a span scope: ``with recorder.span("bid_submission"): ...``."""
        _check_name(name)
        _check_vis(vis)
        return _SpanScope(self, name, vis, args)

    def message(
        self,
        kind: str,
        *,
        su: Optional[int] = None,
        channel: Optional[int] = None,
        payload_bytes: Optional[int] = None,
        wire_size: Optional[int] = None,
        vis: str = "auctioneer",
        **extra: Any,
    ) -> None:
        """Record one wire message with its exact size accounting."""
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        _check_vis(vis)
        record: Record = {
            "type": "message",
            "kind": kind,
            "su": su,
            "channel": channel,
            "payload_bytes": payload_bytes,
            "wire_size": wire_size,
            "vis": vis,
        }
        record.update(extra)
        self._emit(record)

    def instant(self, name: str, *, vis: str = "public", **args: Any) -> None:
        """Record one point-in-time event."""
        _check_name(name)
        _check_vis(vis)
        record: Record = {"type": "instant", "name": name, "vis": vis}
        if args:
            record["args"] = args
        self._emit(record)

    def meta(self, name: str, *, vis: str = "public", **args: Any) -> None:
        """Record run/protocol parameters (``protocol_setup``, ``run_meta``, ...)."""
        _check_name(name)
        _check_vis(vis)
        self._emit({"type": "meta", "name": name, "vis": vis, "args": args})

    def ranking(self, channel: int, classes: Sequence[Sequence[int]]) -> None:
        """Record one channel's masked-bid ranking (the adversary's view)."""
        if channel < 0:
            raise ValueError("channel must be non-negative")
        self._emit(
            {
                "type": "ranking",
                "channel": channel,
                "classes": [list(map(int, cls)) for cls in classes],
                "vis": "auctioneer",
            }
        )

    def round_begin(self) -> int:
        """Start attributing events to the next auction round; returns its index."""
        self._round = self._rounds_started
        self._rounds_started += 1
        self.instant("round_begin")
        return self._round

    def round_end(self, **args: Any) -> None:
        """Close the current round (events return to round ``null``)."""
        self.instant("round_end", **args)
        self._round = None

    # -- views -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer wraparound."""
        return self._dropped

    @property
    def current_round(self) -> Optional[int]:
        return self._round

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Record]:
        """A snapshot list of the buffered events (oldest first)."""
        return list(self._events)

    def header(self) -> Record:
        """The export header record."""
        return {
            "type": "trace_header",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
            "event_count": len(self._events),
            "dropped": self._dropped,
            "capacity": self._capacity,
        }

    def wire_totals(self) -> Dict[str, int]:
        """Payload bytes summed per message kind (missing sizes count 0)."""
        totals: Dict[str, int] = {}
        for record in self._events:
            if record["type"] != "message":
                continue
            size = record.get("payload_bytes") or 0
            kind = record["kind"]
            totals[kind] = totals.get(kind, 0) + size
        return totals

    def summary(self) -> Dict[str, Any]:
        """Aggregate view used by ``repro trace show`` and the bench artifact."""
        by_type: Dict[str, int] = {}
        by_kind: Dict[str, int] = {}
        by_phase: Dict[str, int] = {}
        wire_size_total = 0
        rounds: set = set()
        for record in self._events:
            by_type[record["type"]] = by_type.get(record["type"], 0) + 1
            if record.get("round") is not None:
                rounds.add(record["round"])
            if record["type"] == "message":
                by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
                wire_size_total += record.get("wire_size") or 0
            elif record["type"] == "span":
                by_phase[record["path"]] = by_phase.get(record["path"], 0) + 1
        return {
            "events": len(self._events),
            "dropped": self._dropped,
            "rounds": len(rounds),
            "by_type": by_type,
            "messages_by_kind": by_kind,
            "spans_by_path": by_phase,
            "payload_bytes_by_kind": self.wire_totals(),
            "wire_size_total": wire_size_total,
        }

    # -- exports -----------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        """Header line followed by one compact JSON object per event."""
        yield json.dumps(self.header(), sort_keys=True)
        for record in self._events:
            yield json.dumps(record, sort_keys=True)

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Export the buffer as JSONL; returns the final path.

        ``path`` may be a directory (existing, or spelled with a trailing
        separator), in which case the file lands there as
        ``TRACE_<name>.jsonl`` with name ``trace`` — callers wanting the
        canonical per-command name pass a full path.
        """
        target = Path(path)
        if target.is_dir() or str(path).endswith(("/", "\\")):
            target = target / f"{TRACE_FILE_PREFIX}trace.jsonl"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.jsonl_lines()) + "\n")
        return target

    def write_chrome(self, path: Union[str, Path]) -> Path:
        """Export in Chrome trace-event format (load in Perfetto / chrome://tracing)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(chrome_trace(self.events()), indent=1) + "\n")
        return target


# -- module-level no-op layer (mirrors repro.obs) --------------------------

_active: Optional[TraceRecorder] = None


def get_active() -> Optional[TraceRecorder]:
    """The recorder currently recording, or ``None`` when disabled."""
    return _active


def enable(recorder: Optional[TraceRecorder] = None) -> TraceRecorder:
    """Install (and return) the active recorder; a fresh one by default."""
    global _active
    _active = recorder if recorder is not None else TraceRecorder()
    return _active


def disable() -> Optional[TraceRecorder]:
    """Stop recording; returns the recorder that was active, if any."""
    global _active
    previous = _active
    _active = None
    return previous


@contextlib.contextmanager
def recording(
    recorder: Optional[TraceRecorder] = None,
) -> Iterator[TraceRecorder]:
    """Enable recording for a ``with`` block, restoring the prior state."""
    global _active
    previous = _active
    installed = enable(recorder)
    try:
        yield installed
    finally:
        _active = previous


@contextlib.contextmanager
def suspended() -> Iterator[None]:
    """Record nothing for a ``with`` block, restoring the prior recorder.

    For work that is verification rather than measurement (e.g. an
    in-process reference round), so it never lands in the caller's trace.
    """
    global _active
    previous = _active
    _active = None
    try:
        yield
    finally:
        _active = previous


def span(name: str, *, vis: str = "public", **args: Any) -> ContextManager[object]:
    """A span context manager; the shared no-op object when disabled."""
    recorder = _active
    if recorder is None:
        return _NULL_SCOPE
    return recorder.span(name, vis=vis, **args)


def message(kind: str, **fields: Any) -> None:
    """Record a message on the active recorder; no-op when disabled."""
    recorder = _active
    if recorder is not None:
        recorder.message(kind, **fields)


def instant(name: str, *, vis: str = "public", **args: Any) -> None:
    """Record an instant event; no-op when disabled."""
    recorder = _active
    if recorder is not None:
        recorder.instant(name, vis=vis, **args)


def meta(name: str, *, vis: str = "public", **args: Any) -> None:
    """Record a meta event; no-op when disabled."""
    recorder = _active
    if recorder is not None:
        recorder.meta(name, vis=vis, **args)


def ranking(channel: int, classes: Sequence[Sequence[int]]) -> None:
    """Record a channel ranking; no-op when disabled."""
    recorder = _active
    if recorder is not None:
        recorder.ranking(channel, classes)


def round_begin() -> Optional[int]:
    """Open the next auction round on the active recorder, if any."""
    recorder = _active
    if recorder is None:
        return None
    return recorder.round_begin()


def round_end(**args: Any) -> None:
    """Close the current auction round on the active recorder, if any."""
    recorder = _active
    if recorder is not None:
        recorder.round_end(**args)


# -- consumption helpers ---------------------------------------------------

#: Visibilities the honest-but-curious auctioneer observes.
_ADVERSARY_VIS = ("public", "auctioneer")


def adversary_view(records: Iterable[Record]) -> List[Record]:
    """Only the events the auctioneer can observe (``public`` + ``auctioneer``).

    This is the stream the privacy auditor replays: SU-side and TTP-side
    events (true bids, keys, decrypted charges) never reach it.
    """
    return [r for r in records if r.get("vis") in _ADVERSARY_VIS]


def load_trace(path: Union[str, Path]) -> Tuple[Record, List[Record]]:
    """Read and validate a JSONL trace; returns ``(header, events)``.

    Raises ``ValueError`` when the file is not a valid schema-v1 trace.
    """
    lines = Path(path).read_text().splitlines()
    try:
        records = [json.loads(line) for line in lines if line.strip()]
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSONL: {exc}") from exc
    errors = validate_trace(records)
    if errors:
        raise ValueError(
            f"{path} is not a valid trace: "
            + "; ".join(errors[:5])
            + ("; ..." if len(errors) > 5 else "")
        )
    return records[0], records[1:]


def merge_traces(
    traces: Sequence[Tuple[Record, List[Record]]],
    *,
    roles: Optional[Sequence[Optional[str]]] = None,
) -> Tuple[Record, List[Record]]:
    """Join per-process traces into one causally-ordered timeline.

    ``traces`` holds ``(header, events)`` pairs (the shape
    :func:`load_trace` returns); ``roles`` optionally names each source —
    events that do not already carry a ``role`` are stamped with their
    source's name, and every event records its source index as ``src``.

    Ordering is deterministic and clock-free (per-process ``ts`` values
    come from unrelated monotonic clocks and are kept only as within-source
    timing): events sort by auction ``round`` (``null`` first), then by
    source order, then by each source's own ``seq`` — so within a round
    the server's record of a message and the client's record of sending it
    land adjacently regardless of scheduling.  ``seq`` is
    reassigned to the merged order.
    """
    if not traces:
        raise ValueError("merge_traces needs at least one trace")
    if roles is not None and len(roles) != len(traces):
        raise ValueError("roles must match traces one-to-one")
    merged: List[Record] = []
    for source_index, (_, events) in enumerate(traces):
        role = roles[source_index] if roles is not None else None
        for event in events:
            record = dict(event)
            if role and "role" not in record:
                record["role"] = role
            record["src"] = str(source_index)
            merged.append(record)

    def order(record: Record) -> Tuple[int, int, int]:
        round_ = record.get("round")
        return (
            -1 if round_ is None else int(round_),
            int(record["src"]),
            int(record.get("seq", 0)),
        )

    merged.sort(key=order)
    for seq, record in enumerate(merged):
        record["seq"] = seq
    header: Record = {
        "type": "trace_header",
        "schema_version": TRACE_SCHEMA_VERSION,
        "clock": "perf_counter",
        "event_count": len(merged),
        "dropped": sum(int(h.get("dropped", 0)) for h, _ in traces),
        "capacity": max(int(h.get("capacity", 0)) for h, _ in traces),
        "merged_from": len(traces),
    }
    if roles is not None:
        header["sources"] = [role or f"src{i}" for i, role in enumerate(roles)]
    return header, merged


def write_jsonl_records(
    path: Union[str, Path], header: Record, events: Sequence[Record]
) -> Path:
    """Write an arbitrary ``(header, events)`` pair as a JSONL trace file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(event, sort_keys=True) for event in events)
    target.write_text("\n".join(lines) + "\n")
    return target


def _err(index: int, message_: str) -> str:
    return f"record {index}: {message_}"


def validate_trace(records: Sequence[Record]) -> List[str]:
    """All schema violations in a parsed trace (empty list == valid)."""
    errors: List[str] = []
    if not records:
        return ["trace is empty (expected a trace_header line)"]
    header = records[0]
    if not isinstance(header, dict) or header.get("type") != "trace_header":
        errors.append("first record must be the trace_header")
    else:
        if header.get("schema_version") != TRACE_SCHEMA_VERSION:
            errors.append(
                f"schema_version must be {TRACE_SCHEMA_VERSION}, "
                f"got {header.get('schema_version')!r}"
            )
        for field in ("event_count", "dropped", "capacity"):
            value = header.get(field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                errors.append(f"header field {field!r} must be a non-negative int")
    previous_seq = -1
    for index, record in enumerate(records[1:], start=1):
        if not isinstance(record, dict):
            errors.append(_err(index, "event must be a JSON object"))
            continue
        kind = record.get("type")
        if kind not in EVENT_TYPES:
            errors.append(_err(index, f"unknown event type {kind!r}"))
            continue
        seq = record.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            errors.append(_err(index, "seq must be an integer"))
        elif seq <= previous_seq:
            errors.append(_err(index, f"seq must increase ({seq} after {previous_seq})"))
        else:
            previous_seq = seq
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append(_err(index, "ts must be a non-negative number"))
        round_ = record.get("round")
        if round_ is not None and (
            not isinstance(round_, int) or isinstance(round_, bool) or round_ < 0
        ):
            errors.append(_err(index, "round must be null or a non-negative int"))
        if record.get("vis") not in VISIBILITIES:
            errors.append(_err(index, f"vis must be one of {VISIBILITIES}"))
        for field in ("session", "role", "src"):
            value = record.get(field)
            if value is not None and (not isinstance(value, str) or not value):
                errors.append(
                    _err(index, f"{field} must be a non-empty string when present")
                )
        if kind == "span":
            if not isinstance(record.get("name"), str) or not record.get("name"):
                errors.append(_err(index, "span name must be a non-empty string"))
            if not isinstance(record.get("path"), str) or not record.get("path"):
                errors.append(_err(index, "span path must be a non-empty string"))
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                errors.append(_err(index, "span dur must be a non-negative number"))
            parent = record.get("parent")
            if parent is not None and not isinstance(parent, str):
                errors.append(_err(index, "span parent must be null or a string"))
        elif kind == "message":
            if record.get("kind") not in MESSAGE_KINDS:
                errors.append(
                    _err(index, f"message kind must be one of {MESSAGE_KINDS}")
                )
            for field in ("su", "channel", "payload_bytes", "wire_size"):
                value = record.get(field)
                if value is not None and (
                    not isinstance(value, int) or isinstance(value, bool) or value < 0
                ):
                    errors.append(
                        _err(index, f"message {field} must be null or a non-negative int")
                    )
        elif kind in ("instant", "meta"):
            if not isinstance(record.get("name"), str) or not record.get("name"):
                errors.append(_err(index, f"{kind} name must be a non-empty string"))
            if kind == "meta" and not isinstance(record.get("args"), dict):
                errors.append(_err(index, "meta args must be an object"))
        elif kind == "ranking":
            channel = record.get("channel")
            if not isinstance(channel, int) or isinstance(channel, bool) or channel < 0:
                errors.append(_err(index, "ranking channel must be a non-negative int"))
            classes = record.get("classes")
            if not isinstance(classes, list) or not all(
                isinstance(cls, list)
                and all(isinstance(u, int) and not isinstance(u, bool) for u in cls)
                for cls in classes
            ):
                errors.append(_err(index, "ranking classes must be a list of int lists"))
    return errors


def chrome_trace(records: Sequence[Record]) -> Dict[str, Any]:
    """Convert events to the Chrome trace-event format (Perfetto-loadable).

    Spans become complete (``"ph": "X"``) events; messages become instants
    plus a cumulative ``wire bytes`` counter track; rankings, metas and
    plain instants become instant events.  Timestamps are microseconds.
    """
    trace_events: List[Dict[str, Any]] = []
    wire_running = 0
    for record in records:
        ts_us = float(record.get("ts", 0.0)) * 1e6
        base: Dict[str, Any] = {"pid": 1, "ts": ts_us}
        kind = record.get("type")
        if kind == "span":
            trace_events.append(
                {
                    **base,
                    "tid": 1,
                    "ph": "X",
                    "name": record.get("path", record.get("name", "span")),
                    "dur": float(record.get("dur", 0.0)) * 1e6,
                    "cat": "phase",
                    "args": {
                        "round": record.get("round"),
                        **(record.get("args") or {}),
                    },
                }
            )
        elif kind == "message":
            trace_events.append(
                {
                    **base,
                    "tid": 2,
                    "ph": "i",
                    "s": "t",
                    "name": record.get("kind", "message"),
                    "cat": "message",
                    "args": {
                        "su": record.get("su"),
                        "channel": record.get("channel"),
                        "payload_bytes": record.get("payload_bytes"),
                        "wire_size": record.get("wire_size"),
                        "round": record.get("round"),
                    },
                }
            )
            wire_running += record.get("wire_size") or 0
            trace_events.append(
                {
                    **base,
                    "tid": 2,
                    "ph": "C",
                    "name": "wire bytes",
                    "args": {"bytes": wire_running},
                }
            )
        elif kind == "ranking":
            trace_events.append(
                {
                    **base,
                    "tid": 3,
                    "ph": "i",
                    "s": "t",
                    "name": f"ranking ch{record.get('channel')}",
                    "cat": "adversary",
                    "args": {
                        "classes": record.get("classes"),
                        "round": record.get("round"),
                    },
                }
            )
        else:  # instant / meta
            trace_events.append(
                {
                    **base,
                    "tid": 1,
                    "ph": "i",
                    "s": "t",
                    "name": record.get("name", kind or "event"),
                    "cat": kind or "event",
                    "args": {
                        "round": record.get("round"),
                        **(record.get("args") or {}),
                    },
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _check_name(name: str) -> None:
    if not name:
        raise ValueError("trace event names must be non-empty")


def _check_vis(vis: str) -> None:
    if vis not in VISIBILITIES:
        raise ValueError(f"vis must be one of {VISIBILITIES}, got {vis!r}")
