"""Byte-level wire codec for the protocol messages.

:mod:`repro.lppa.messages` carries masked sets as Python objects and knows
their payload sizes; this module provides the actual serialization a
deployment would put on the socket, so the communication-cost numbers rest
on a format that demonstrably round-trips.

Format (all integers big-endian):

* masked set:  ``digest_bytes: u8 | count: u16 | count * digest_bytes``
  (digests in lexicographic order — sets have no order, a canonical one
  makes encoding deterministic);
* location submission:  ``'L' | user_id: u32 | x_family | x_range |
  y_family | y_range``;
* bid submission:  ``'B' | user_id: u32 | n_channels: u16`` then per
  channel ``family | tail | ct_len: u16 | ciphertext``.

Framing overhead (tags, counts, lengths) is deliberately *excluded* from
``wire_bytes()``/Theorem-4 accounting, which model payload only; use
:func:`framing_overhead` when sizing real sockets.

The field bounds (u16 counts and lengths, u32 user ids) are enforced when a
submission is constructed (:mod:`repro.lppa.messages`), so every submission
object encodes; :class:`CodecError` is defined there and re-exported here.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.lppa.messages import (
    U16_MAX,
    BidSubmission,
    CodecError,
    LocationSubmission,
    MaskedBid,
)
from repro.prefix.membership import MaskedSet

__all__ = [
    "CodecError",
    "encode_masked_set",
    "decode_masked_set",
    "encode_location",
    "decode_location",
    "encode_bids",
    "decode_bids",
    "framing_overhead",
]

_LOCATION_TAG = b"L"
_BID_TAG = b"B"


def encode_masked_set(masked: MaskedSet) -> bytes:
    """Serialize one masked set (canonical digest order)."""
    if len(masked) > U16_MAX:
        raise CodecError("masked set too large for the u16 count field")
    parts = [struct.pack(">BH", masked.digest_bytes, len(masked))]
    parts.extend(sorted(masked.digests))
    return b"".join(parts)


def decode_masked_set(data: bytes, offset: int = 0) -> Tuple[MaskedSet, int]:
    """Decode one masked set; returns (set, next offset)."""
    if len(data) < offset + 3:
        raise CodecError("truncated masked-set header")
    digest_bytes, count = struct.unpack_from(">BH", data, offset)
    if digest_bytes < 4:
        # Zero-length digests would let any count pass the length
        # arithmetic for free, and MaskedSet refuses truncation below
        # 4 bytes as unsafe — reject both on the wire.
        raise CodecError(f"digest_bytes {digest_bytes} below the 4-byte minimum")
    offset += 3
    end = offset + digest_bytes * count
    if len(data) < end:
        raise CodecError("truncated masked-set body")
    digests = frozenset(
        [data[i : i + digest_bytes] for i in range(offset, end, digest_bytes)]
    )
    if len(digests) != count:
        raise CodecError("duplicate digests on the wire")
    return MaskedSet(digests, digest_bytes=digest_bytes), end


def encode_location(submission: LocationSubmission) -> bytes:
    """Serialize a location submission."""
    return b"".join(
        [
            _LOCATION_TAG,
            struct.pack(">I", submission.user_id),
            encode_masked_set(submission.x_family),
            encode_masked_set(submission.x_range),
            encode_masked_set(submission.y_family),
            encode_masked_set(submission.y_range),
        ]
    )


def decode_location(data: bytes) -> LocationSubmission:
    """Parse a location submission; raises :class:`CodecError` on malformed bytes."""
    if not data.startswith(_LOCATION_TAG):
        raise CodecError("not a location submission")
    if len(data) < 5:
        raise CodecError("truncated location header")
    (user_id,) = struct.unpack_from(">I", data, 1)
    offset = 5
    sets = []
    for _ in range(4):
        masked, offset = decode_masked_set(data, offset)
        sets.append(masked)
    if offset != len(data):
        raise CodecError("trailing bytes after location submission")
    try:
        return LocationSubmission(
            user_id=user_id,
            x_family=sets[0],
            x_range=sets[1],
            y_family=sets[2],
            y_range=sets[3],
        )
    except CodecError:
        raise
    except ValueError as exc:
        # Wire-valid but semantically impossible (message invariants); a
        # decoder must reject it, not leak a constructor error.
        raise CodecError(f"invalid location submission: {exc}") from exc


def encode_bids(submission: BidSubmission) -> bytes:
    """Serialize a bid submission."""
    parts = [
        _BID_TAG,
        struct.pack(">IH", submission.user_id, submission.n_channels),
    ]
    for masked_bid in submission.channel_bids:
        parts.append(encode_masked_set(masked_bid.family))
        parts.append(encode_masked_set(masked_bid.tail))
        parts.append(struct.pack(">H", len(masked_bid.ciphertext)))
        parts.append(masked_bid.ciphertext)
    return b"".join(parts)


def decode_bids(data: bytes) -> BidSubmission:
    """Parse a bid submission; raises :class:`CodecError` on malformed bytes."""
    if not data.startswith(_BID_TAG):
        raise CodecError("not a bid submission")
    if len(data) < 7:
        raise CodecError("truncated bid header")
    user_id, n_channels = struct.unpack_from(">IH", data, 1)
    offset = 7
    channel_bids = []
    for _ in range(n_channels):
        family, offset = decode_masked_set(data, offset)
        tail, offset = decode_masked_set(data, offset)
        if len(data) < offset + 2:
            raise CodecError("truncated ciphertext length")
        (ct_len,) = struct.unpack_from(">H", data, offset)
        offset += 2
        if len(data) < offset + ct_len:
            raise CodecError("truncated ciphertext")
        ciphertext = data[offset : offset + ct_len]
        offset += ct_len
        try:
            masked_bid = MaskedBid(family=family, tail=tail, ciphertext=ciphertext)
        except CodecError:
            raise
        except ValueError as exc:
            raise CodecError(f"invalid masked bid: {exc}") from exc
        channel_bids.append(masked_bid)
    if offset != len(data):
        raise CodecError("trailing bytes after bid submission")
    try:
        return BidSubmission(user_id=user_id, channel_bids=tuple(channel_bids))
    except CodecError:
        raise
    except ValueError as exc:
        raise CodecError(f"invalid bid submission: {exc}") from exc


def framing_overhead(message) -> int:
    """Bytes the codec adds on top of ``wire_bytes()`` payload accounting.

    Delegates to the messages' own ``framing_bytes()`` accounting so there
    is a single source of truth for framing arithmetic.
    """
    if isinstance(message, (LocationSubmission, BidSubmission, MaskedBid)):
        return message.framing_bytes()
    raise TypeError(f"unsupported message type {type(message)!r}")
