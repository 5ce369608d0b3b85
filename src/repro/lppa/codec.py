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
from typing import List, Tuple

from repro.lppa.messages import (
    U8_MAX,
    U16_MAX,
    BidSubmission,
    CodecError,
    LocationSubmission,
    MaskedBid,
)
from repro.prefix.membership import MaskedSet, split_digests

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

_SET_HEADER = struct.Struct(">BH")
_USER_ID = struct.Struct(">I")
_BID_HEADER = struct.Struct(">IH")
_CT_LEN = struct.Struct(">H")


def encode_masked_set(masked: MaskedSet) -> bytes:
    """Serialize one masked set (canonical digest order)."""
    if len(masked) > U16_MAX or masked.digest_bytes > U8_MAX:
        raise CodecError(
            f"masked set of {len(masked)} digests of {masked.digest_bytes}"
            " bytes exceeds the u16 count or u8 digest-length field"
        )
    parts: List[bytes] = []
    _put_set(parts, masked)
    return b"".join(parts)


def _put_set(parts: List[bytes], masked: MaskedSet) -> None:
    # Unchecked: a submission's sets passed the field-bound checks when it
    # was built, and encode_masked_set checks a bare set first.  A plain
    # set keeps its encoding (MaskedSet.encoded): families and location
    # sets come from the mask cache and are re-sent every round.  A padded
    # tail is drawn afresh every round, so it is never memoised; sorting
    # its own iteration reads its parts in one pass.
    if type(masked) is MaskedSet:
        encoded = masked.encoded
        if encoded is None:
            digests = masked.digests
            encoded = _SET_HEADER.pack(masked.digest_bytes, len(digests)) + b"".join(
                sorted(digests)
            )
            object.__setattr__(masked, "encoded", encoded)
        parts.append(encoded)
    else:
        parts.append(_SET_HEADER.pack(masked.digest_bytes, len(masked)))
        parts.extend(sorted(masked))


def decode_masked_set(data: bytes, offset: int = 0) -> Tuple[MaskedSet, int]:
    """Decode one masked set; returns (set, next offset).

    Every wire check lives here: the header and body lengths are checked
    before anything is unpacked, widths below 4 bytes and duplicate
    digests are rejected, and the body is cut into fixed-width digests in
    one C-level pass — so the set is built with :meth:`MaskedSet.of_width`,
    without a second per-digest length scan.
    """
    if len(data) < offset + 3:
        raise CodecError("truncated masked-set header")
    digest_bytes, count = _SET_HEADER.unpack_from(data, offset)
    if digest_bytes < 4:
        # Zero-length digests would let any count pass the length
        # arithmetic for free, and MaskedSet refuses truncation below
        # 4 bytes as unsafe — reject both on the wire.
        raise CodecError(f"digest_bytes {digest_bytes} below the 4-byte minimum")
    offset += 3
    end = offset + digest_bytes * count
    if len(data) < end:
        raise CodecError("truncated masked-set body")
    digests = frozenset(split_digests(data[offset:end], digest_bytes))
    if len(digests) != count:
        raise CodecError("duplicate digests on the wire")
    return MaskedSet.of_width(digests, digest_bytes), end


def encode_location(submission: LocationSubmission) -> bytes:
    """Serialize a location submission."""
    parts = [_LOCATION_TAG, _USER_ID.pack(submission.user_id)]
    _put_set(parts, submission.x_family)
    _put_set(parts, submission.x_range)
    _put_set(parts, submission.y_family)
    _put_set(parts, submission.y_range)
    return b"".join(parts)


def decode_location(data: bytes) -> LocationSubmission:
    """Parse a location submission; raises :class:`CodecError` on malformed bytes."""
    if not data.startswith(_LOCATION_TAG):
        raise CodecError("not a location submission")
    if len(data) < 5:
        raise CodecError("truncated location header")
    (user_id,) = _USER_ID.unpack_from(data, 1)
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
    parts = [_BID_TAG, _BID_HEADER.pack(submission.user_id, submission.n_channels)]
    for masked_bid in submission.channel_bids:
        _put_set(parts, masked_bid.family)
        _put_set(parts, masked_bid.tail)
        parts.append(_CT_LEN.pack(len(masked_bid.ciphertext)))
        parts.append(masked_bid.ciphertext)
    return b"".join(parts)


def decode_bids(data: bytes) -> BidSubmission:
    """Parse a bid submission; raises :class:`CodecError` on malformed bytes."""
    if not data.startswith(_BID_TAG):
        raise CodecError("not a bid submission")
    if len(data) < 7:
        raise CodecError("truncated bid header")
    user_id, n_channels = _BID_HEADER.unpack_from(data, 1)
    offset = 7
    channel_bids = []
    for _ in range(n_channels):
        family, offset = decode_masked_set(data, offset)
        tail, offset = decode_masked_set(data, offset)
        if len(data) < offset + 2:
            raise CodecError("truncated ciphertext length")
        (ct_len,) = _CT_LEN.unpack_from(data, offset)
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
