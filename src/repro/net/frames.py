"""The wire frame envelope of the network runtime.

:mod:`repro.lppa.codec` serializes protocol *messages*; a stream transport
additionally needs to know where one message ends and the next begins, what
kind of message is coming, and which protocol revision produced it.  This
module wraps every message in a fixed six-byte envelope::

    | version: u8 | frame_type: u8 | payload_len: u32 |  payload ...

All integers big-endian.  The payload of :data:`FrameType.LOCATION` /
:data:`FrameType.BIDS` frames is exactly the corresponding codec encoding
(``encode_location`` / ``encode_bids``); control frames (HELLO, WELCOME,
ROUND_BEGIN, ...) carry a compact JSON object.

Malformed envelopes raise :class:`~repro.lppa.codec.CodecError`, the same
error class the message codec uses, so endpoint code has a single
"reject this peer's bytes" signal.  :func:`decode_frame` has a ``strict``
mode — the server's mode — that additionally rejects unknown frame types
and trailing garbage after the framed payload.
"""

from __future__ import annotations

import enum
import json
import struct
from typing import Any, Dict, Tuple

from repro.lppa.codec import CodecError

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "FrameType",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "pack_json",
    "unpack_json",
]

#: Envelope revision; bump on layout changes.  A mismatch is rejected on
#: read so old clients fail fast instead of misparsing.
PROTOCOL_VERSION = 1

#: ``version: u8 | frame_type: u8 | payload_len: u32``.
FRAME_HEADER_BYTES = 6

#: Per-connection backpressure guard: a peer announcing a payload larger
#: than this is rejected before a single payload byte is read.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">BBI")


class FrameType(enum.IntEnum):
    """What a frame carries; the u8 on the wire."""

    HELLO = 1        #: client -> server, JSON ``{"su": id}``
    WELCOME = 2      #: server -> client, JSON auction announcement
    ROUND_BEGIN = 3  #: server -> client, JSON ``{"round": r, "entropy": s}``
    LOCATION = 4     #: client -> server, ``encode_location`` payload
    BID_REQUEST = 5  #: server -> client, JSON ``{"round": r}``
    BIDS = 6         #: client -> server, ``encode_bids`` payload
    RESULT = 7       #: server -> client, JSON round outcome
    ERROR = 8        #: either way, JSON ``{"code": c, "detail": d}``
    BYE = 9          #: server -> client, JSON ``{"rounds": n}``


_FRAME_TYPES = {member.value: member for member in FrameType}


def encode_frame(frame_type: int, payload: bytes = b"") -> bytes:
    """Wrap ``payload`` in the versioned envelope."""
    if not 0 <= int(frame_type) <= 0xFF:
        raise CodecError(f"frame type {frame_type!r} outside u8 range")
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _HEADER.pack(PROTOCOL_VERSION, int(frame_type), len(payload)) + payload


def decode_frame(
    data: bytes,
    *,
    strict: bool = False,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Tuple[int, bytes]:
    """Parse one framed message out of ``data``; returns ``(type, payload)``.

    Always rejected: truncated header or payload, wrong protocol version,
    oversized payload announcements.  ``strict`` (the server's mode)
    additionally rejects unknown frame types and any trailing bytes after
    the framed payload — a stream endpoint reads exact frames, so trailing
    garbage means the peer's framing is broken.
    """
    if len(data) < FRAME_HEADER_BYTES:
        raise CodecError("truncated frame header")
    version, frame_type, length = _HEADER.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise CodecError(
            f"protocol version {version} (this runtime speaks {PROTOCOL_VERSION})"
        )
    if length > max_frame_bytes:
        raise CodecError(
            f"frame announces {length} payload bytes, over the "
            f"{max_frame_bytes}-byte limit"
        )
    end = FRAME_HEADER_BYTES + length
    if len(data) < end:
        raise CodecError("truncated frame payload")
    if strict:
        if len(data) != end:
            raise CodecError(
                f"{len(data) - end} trailing bytes after the framed payload"
            )
        try:
            frame_type = FrameType(frame_type)
        except ValueError:
            raise CodecError(f"unknown frame type {frame_type}") from None
    return frame_type, data[FRAME_HEADER_BYTES:end]


async def read_frame(
    conn, *, strict: bool = False, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Tuple[int, bytes]:
    """Read exactly one frame off a connection; returns ``(type, payload)``.

    Raises :class:`CodecError` on envelope violations (bad version,
    oversized payload) and lets the connection's EOF/reset exceptions
    propagate — a peer vanishing mid-frame is a transport event, not a
    codec one.  The payload length is validated *before* payload bytes are
    read, so a hostile length announcement never allocates the buffer.

    ``strict`` also rejects unknown frame types, from the header alone, and
    returns the type as a :class:`FrameType` member.  A stream read takes
    exactly the announced bytes, so :func:`decode_frame`'s trailing-bytes
    rule cannot apply, and the payload is returned as read, never copied.
    """
    header = await conn.readexactly(FRAME_HEADER_BYTES)
    version, frame_type, length = _HEADER.unpack(header)
    if version != PROTOCOL_VERSION:
        raise CodecError(
            f"protocol version {version} (this runtime speaks {PROTOCOL_VERSION})"
        )
    if length > max_frame_bytes:
        raise CodecError(
            f"frame announces {length} payload bytes, over the "
            f"{max_frame_bytes}-byte limit"
        )
    if strict:
        member = _FRAME_TYPES.get(frame_type)
        if member is None:
            raise CodecError(f"unknown frame type {frame_type}")
        frame_type = member
    payload = await conn.readexactly(length) if length else b""
    return frame_type, payload


async def write_frame(conn, frame_type: int, payload: bytes = b"") -> int:
    """Frame ``payload`` and write it; returns the bytes put on the wire."""
    data = encode_frame(frame_type, payload)
    await conn.write(data)
    return len(data)


def pack_json(obj: Dict[str, Any]) -> bytes:
    """Compact JSON payload for control frames."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def unpack_json(payload: bytes) -> Dict[str, Any]:
    """Parse a control-frame payload; :class:`CodecError` on malformed JSON."""
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed control payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise CodecError("control payload must be a JSON object")
    return obj
