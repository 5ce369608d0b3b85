"""The slicing codec the struct-unpacked one replaced, kept as a test oracle.

:mod:`repro.lppa.codec` cuts a masked set's body into digests with one
``iter_unpack`` pass and builds the set without a second per-digest length
scan, and it encodes each set from one precompiled header.  These are the
straightforward versions: ``struct.pack``/``struct.unpack_from`` per field,
a list comprehension of slices per set, and sets built by the checking
``MaskedSet(...)`` constructor.  The differential tests hold the protocol
codec to them — equal messages on valid bytes, :class:`CodecError` on
exactly the same malformed ones, and byte-identical encodings.
"""

import struct
from typing import List, Tuple

from repro.lppa.messages import (
    U16_MAX,
    BidSubmission,
    CodecError,
    LocationSubmission,
    MaskedBid,
)
from repro.prefix.membership import MaskedSet


def encode_masked_set(masked: MaskedSet) -> bytes:
    """``digest_bytes: u8 | count: u16 | digests in sorted order``."""
    if len(masked) > U16_MAX:
        raise CodecError("masked set too large for the u16 count field")
    parts = [struct.pack(">BH", masked.digest_bytes, len(masked))]
    parts.extend(sorted(masked.digests))
    return b"".join(parts)


def decode_masked_set(data: bytes, offset: int = 0) -> Tuple[MaskedSet, int]:
    """One masked set and the next offset, each digest sliced on its own."""
    if len(data) < offset + 3:
        raise CodecError("truncated masked-set header")
    digest_bytes, count = struct.unpack_from(">BH", data, offset)
    if digest_bytes < 4:
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
    """``'L' | user_id: u32 | x_family | x_range | y_family | y_range``."""
    return b"".join(
        [
            b"L",
            struct.pack(">I", submission.user_id),
            encode_masked_set(submission.x_family),
            encode_masked_set(submission.x_range),
            encode_masked_set(submission.y_family),
            encode_masked_set(submission.y_range),
        ]
    )


def decode_location(data: bytes) -> LocationSubmission:
    """Inverse of :func:`encode_location`."""
    if not data.startswith(b"L"):
        raise CodecError("not a location submission")
    if len(data) < 5:
        raise CodecError("truncated location header")
    (user_id,) = struct.unpack_from(">I", data, 1)
    offset = 5
    sets: List[MaskedSet] = []
    for _ in range(4):
        masked, offset = decode_masked_set(data, offset)
        sets.append(masked)
    if offset != len(data):
        raise CodecError("trailing bytes after location submission")
    try:
        return LocationSubmission(user_id, *sets)
    except CodecError:
        raise
    except ValueError as exc:
        raise CodecError(f"invalid location submission: {exc}") from exc


def encode_bids(submission: BidSubmission) -> bytes:
    """``'B' | user_id: u32 | n_channels: u16`` then each channel."""
    parts = [b"B", struct.pack(">IH", submission.user_id, submission.n_channels)]
    for masked_bid in submission.channel_bids:
        parts.append(encode_masked_set(masked_bid.family))
        parts.append(encode_masked_set(masked_bid.tail))
        parts.append(struct.pack(">H", len(masked_bid.ciphertext)))
        parts.append(masked_bid.ciphertext)
    return b"".join(parts)


def decode_bids(data: bytes) -> BidSubmission:
    """Inverse of :func:`encode_bids`."""
    if not data.startswith(b"B"):
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
            channel_bids.append(MaskedBid(family, tail, ciphertext))
        except CodecError:
            raise
        except ValueError as exc:
            raise CodecError(f"invalid masked bid: {exc}") from exc
    if offset != len(data):
        raise CodecError("trailing bytes after bid submission")
    try:
        return BidSubmission(user_id=user_id, channel_bids=tuple(channel_bids))
    except CodecError:
        raise
    except ValueError as exc:
        raise CodecError(f"invalid bid submission: {exc}") from exc
