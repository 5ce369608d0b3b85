"""Wire messages of the LPPA protocol, with byte-accurate size accounting.

Theorem 4 of the paper quantifies the bid-submission overhead as
``h * k * N * (3w - 1) * (w + 1)`` bits; to compare that prediction against
reality the message classes below know their own serialized sizes.  Digests
travel as fixed-length byte strings; ciphertexts as (nonce || ct) blobs.

The auctioneer sees *only* these structures — never a
:class:`~repro.crypto.keys.KeyRing`, never a plaintext bid or coordinate.

Two size accountings coexist deliberately:

* ``wire_bytes()`` — *payload only* (digests, ciphertexts, user ids):
  what Theorem 4 models;
* ``wire_size()`` — the **exact serialized size** the codec in
  :mod:`repro.lppa.codec` produces, framing (tags, counts, length
  prefixes) included.  The flight recorder records this per message, and
  ``tests/lppa/test_messages.py`` pins each ``wire_size()`` to
  ``len(encode_*(message))`` so the accounting cannot drift from the
  encoder.

The constructors enforce the codec's field bounds (u32 user id, u8 digest
length, u16 set counts, channel count and ciphertext length), raising
:class:`CodecError`: a message that exists can always be encoded, so the
round core can take its framed size from ``wire_size()`` without encoding.
The unchecked makers are :meth:`MaskedBid.of_parts` and
:meth:`BidSubmission.of_parts`, for the bidder's batch, and
:meth:`LocationSubmission.of_parts`, for the location batch:
:func:`check_bid_shape` and :func:`check_location_shape` check once, for
a whole batch, the bounds that imply every one of its messages' checks.
Decoding always goes through the checked constructors, because wire data
is untrusted.

Every message is a slotted frozen dataclass, and fixes its payload size
(and a bid submission its masked-set size) once, where it is made: the
checked constructors, and through them the decoder and
``dataclasses.replace``, add the sizes up in ``__post_init__``; the
batch's makers take the sizes the batch already knows.  The stored sizes
(``payload_bytes``, ``masked_set_bytes``) take no part in equality,
hashing or ``repr``, and ``wire_bytes()``, ``material_bytes()`` and
``wire_size()`` read them without walking a set or a bid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

from repro.prefix.membership import MaskedSet

__all__ = ["CodecError", "LocationSubmission", "MaskedBid", "BidSubmission"]

#: Bytes used to carry a user/pseudonym identifier on the wire.
USER_ID_BYTES = 4

#: Codec framing per masked set: ``digest_bytes: u8 | count: u16``.
SET_HEADER_BYTES = 3

#: One-byte message tag (``'L'`` / ``'B'``).
TAG_BYTES = 1

#: ``n_channels: u16`` in a bid submission.
CHANNEL_COUNT_BYTES = 2

#: ``ct_len: u16`` length prefix per ciphertext.
CIPHERTEXT_LEN_BYTES = 2

#: Framing of one channel within a bid submission: the family and tail
#: set headers plus the ciphertext length prefix.
MASKED_BID_FRAMING_BYTES = 2 * SET_HEADER_BYTES + CIPHERTEXT_LEN_BYTES

#: Largest value of the codec's u8, u16 and u32 fields.
U8_MAX = 0xFF
U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF


class CodecError(ValueError):
    """Malformed wire data, or a message the wire format cannot carry."""


def check_user_id(user_id: int) -> None:
    """Reject a user id outside the codec's ``u32`` field."""
    if not 0 <= user_id <= U32_MAX:
        raise CodecError(f"user id {user_id} outside the u32 field")


def check_dense(subs: Sequence[Any]) -> None:
    """Reject submissions unless slot ``i`` holds user ``i``.

    The auctioneer addresses an SU by its slot (conflict-graph row,
    allocation, charging), so every auctioneer step takes dense ids;
    pseudonymised ids are mapped before this point.
    """
    for idx, sub in enumerate(subs):
        if sub.user_id != idx:
            raise ValueError(
                f"submissions must be dense: slot {idx} holds user {sub.user_id}"
            )


def check_u16(what: str, value: int) -> None:
    """Reject a count or length above the codec's ``u16`` fields."""
    if value > U16_MAX:
        raise CodecError(f"{what} {value} exceeds the u16 field")


def check_bid_shape(
    user_ids: Sequence[int],
    n_channels: int,
    family_size: int,
    tail_size: int,
    digest_bytes: int,
    ciphertext_bytes: int,
) -> None:
    """Reject a bid shape the codec cannot carry, once for a whole batch.

    A :class:`MaskedBid` whose family holds at most ``family_size``
    digests, whose tail holds at most ``tail_size``, whose digests are
    ``digest_bytes`` wide and whose ciphertext is ``ciphertext_bytes``
    long passes every check of :meth:`MaskedBid.__post_init__` when these
    bounds pass, and a :class:`BidSubmission` of ``n_channels`` such bids
    under one of ``user_ids`` passes every check of
    :meth:`BidSubmission.__post_init__`, so a batch that builds only such
    messages may make them with the ``of_parts`` makers.
    """
    if user_ids:
        check_user_id(min(user_ids))
        check_user_id(max(user_ids))
    if not n_channels:
        raise ValueError("a bid submission must cover at least one channel")
    check_u16("channel count", n_channels)
    check_u16("bid family size", family_size)
    check_u16("bid tail size", tail_size)
    if digest_bytes > U8_MAX:
        raise CodecError(f"digest length {digest_bytes} exceeds the u8 field")
    if ciphertext_bytes < 5:
        raise ValueError("ciphertext must contain a 4-byte nonce and payload")
    check_u16("ciphertext length", ciphertext_bytes)


def check_location_shape(user_ids: Sequence[int], set_size: int, digest_bytes: int) -> None:
    """Reject a location shape the codec cannot carry, once for a whole batch.

    A :class:`LocationSubmission` under one of ``user_ids`` whose four
    sets each hold at most ``set_size`` digests of ``digest_bytes`` bytes
    passes every check of :meth:`LocationSubmission.__post_init__` when
    these bounds pass, so a batch that builds only such messages may make
    them with :meth:`LocationSubmission.of_parts`.
    """
    if user_ids:
        check_user_id(min(user_ids))
        check_user_id(max(user_ids))
    check_u16("location set size", set_size)
    if digest_bytes > U8_MAX:
        raise CodecError(f"digest length {digest_bytes} exceeds the u8 field")


def _check_set(what: str, masked: MaskedSet) -> None:
    if len(masked) > U16_MAX or masked.digest_bytes > U8_MAX:
        raise CodecError(
            f"{what}: {len(masked)} digests of {masked.digest_bytes} bytes"
            " exceed the u16 count or u8 digest-length field"
        )


@dataclass(frozen=True, slots=True)
class LocationSubmission:
    """Step iii of the private location submission protocol.

    Carries, for one bidder, the masked prefix family of each coordinate and
    the masked cover of its interference range on each axis:
    ``H_g0(G(loc_x))``, ``H_g0(Q([loc_x - d, loc_x + d]))`` and likewise for
    ``y`` (``d`` being the interference half-width).
    """

    user_id: int
    x_family: MaskedSet
    x_range: MaskedSet
    y_family: MaskedSet
    y_range: MaskedSet
    payload_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_user_id(self.user_id)
        payload = USER_ID_BYTES
        for what, masked in (
            ("x_family", self.x_family),
            ("x_range", self.x_range),
            ("y_family", self.y_family),
            ("y_range", self.y_range),
        ):
            _check_set(what, masked)
            payload += masked.wire_bytes()
        object.__setattr__(self, "payload_bytes", payload)

    @classmethod
    def of_parts(
        cls,
        user_id: int,
        x_family: MaskedSet,
        x_range: MaskedSet,
        y_family: MaskedSet,
        y_range: MaskedSet,
        payload_bytes: int,
    ) -> "LocationSubmission":
        """A location submission built without :meth:`__post_init__`'s checks.

        The validate-once path of the location batch, like
        :meth:`MaskedBid.of_parts`: the caller must have passed
        :func:`check_location_shape` for bounds that hold for these parts,
        and ``payload_bytes`` must be the user id's bytes plus the four
        sets' wire bytes.  Its one caller is the location batch behind
        :func:`~repro.lppa.location.submit_location` and
        :func:`~repro.lppa.location.submit_locations`.
        """
        submission = object.__new__(cls)
        _set_location_user(submission, user_id)
        _set_x_family(submission, x_family)
        _set_x_range(submission, x_range)
        _set_y_family(submission, y_family)
        _set_y_range(submission, y_range)
        _set_location_payload(submission, payload_bytes)
        return submission

    def wire_bytes(self) -> int:
        """Total serialized size in bytes."""
        return self.payload_bytes

    def framing_bytes(self) -> int:
        """Codec framing on top of the payload: the tag and four set headers."""
        return TAG_BYTES + 4 * SET_HEADER_BYTES

    def wire_size(self) -> int:
        """Exact codec output size: payload plus framing."""
        return self.wire_bytes() + self.framing_bytes()

    def trace_fields(self) -> Dict[str, int]:
        """The per-message fields the flight recorder logs (scheme seam)."""
        return {
            "su": self.user_id,
            "payload_bytes": self.payload_bytes,
            "wire_size": self.wire_size(),
            "digest_bytes": self.x_family.digest_bytes,
        }


@dataclass(frozen=True, slots=True)
class MaskedBid:
    """One channel's worth of a bid submission.

    ``family`` is ``H_gb_r(G(e))`` for the (expanded, possibly disguised)
    bid value ``e``; ``tail`` is ``H_gb_r(Q([e, e_max]))`` — intersecting
    another bid's family with this tail answers "is that bid >= e?".
    ``ciphertext`` is (nonce || CTR-encryption) of the *true* expanded value
    under the TTP key ``gc`` — unaltered even when the masked sets disguise
    a zero, which is exactly how the TTP later unmasks invalid winners.
    """

    family: MaskedSet
    tail: MaskedSet
    ciphertext: bytes
    payload_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ciphertext) < 5:
            raise ValueError("ciphertext must contain a 4-byte nonce and payload")
        check_u16("ciphertext length", len(self.ciphertext))
        _check_set("family", self.family)
        _check_set("tail", self.tail)
        object.__setattr__(
            self,
            "payload_bytes",
            self.family.wire_bytes() + self.tail.wire_bytes() + len(self.ciphertext),
        )

    @classmethod
    def of_parts(
        cls, family: MaskedSet, tail: MaskedSet, ciphertext: bytes, payload_bytes: int
    ) -> "MaskedBid":
        """A masked bid built without :meth:`__post_init__`'s checks.

        The validate-once path of the bidder's batch: the caller must have
        passed :func:`check_bid_shape` for bounds that hold for these
        parts (family and tail sizes, digest width, ciphertext length),
        and ``payload_bytes`` must be the parts' sizes added up.  Its one
        caller is :func:`~repro.lppa.bids_advanced.submit_population_bids`;
        the codec's decoder and everything else use ``MaskedBid(...)``.
        """
        bid = object.__new__(cls)
        _set_family(bid, family)
        _set_tail(bid, tail)
        _set_ciphertext(bid, ciphertext)
        _set_bid_payload(bid, payload_bytes)
        return bid

    def wire_bytes(self) -> int:
        """Serialized size in bytes (masked sets + ciphertext)."""
        return self.payload_bytes

    def framing_bytes(self) -> int:
        """Codec framing within a bid submission: two set headers and the
        ciphertext length prefix."""
        return MASKED_BID_FRAMING_BYTES

    def wire_size(self) -> int:
        """Exact on-wire size within a bid submission: payload plus framing."""
        return self.wire_bytes() + self.framing_bytes()


@dataclass(frozen=True, slots=True)
class BidSubmission:
    """A bidder's full bid vector, masked, one :class:`MaskedBid` per channel."""

    user_id: int
    channel_bids: Tuple[MaskedBid, ...]
    payload_bytes: int = field(init=False, repr=False, compare=False)
    masked_set_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.channel_bids:
            raise ValueError("a bid submission must cover at least one channel")
        check_user_id(self.user_id)
        check_u16("channel count", len(self.channel_bids))
        payload = ciphertexts = 0
        for mb in self.channel_bids:
            payload += mb.payload_bytes
            ciphertexts += len(mb.ciphertext)
        object.__setattr__(self, "payload_bytes", USER_ID_BYTES + payload)
        object.__setattr__(self, "masked_set_bytes", payload - ciphertexts)

    @classmethod
    def of_parts(
        cls,
        user_id: int,
        channel_bids: Tuple[MaskedBid, ...],
        payload_bytes: int,
        masked_set_bytes: int,
    ) -> "BidSubmission":
        """A bid submission built without :meth:`__post_init__`'s checks.

        The batch's maker, like :meth:`MaskedBid.of_parts`: the caller
        must have passed :func:`check_bid_shape` for this user id and
        channel count, and the two sizes must be the ones
        :meth:`__post_init__` would add up.
        """
        submission = object.__new__(cls)
        _set_user_id(submission, user_id)
        _set_channel_bids(submission, channel_bids)
        _set_submission_payload(submission, payload_bytes)
        _set_masked_set_bytes(submission, masked_set_bytes)
        return submission

    @property
    def n_channels(self) -> int:
        return len(self.channel_bids)

    def wire_bytes(self) -> int:
        """Total serialized size in bytes across all channels."""
        return self.payload_bytes

    def framing_bytes(self) -> int:
        """Codec framing on top of the payload: the tag, the channel count
        and every channel's :meth:`MaskedBid.framing_bytes`."""
        return (
            TAG_BYTES
            + CHANNEL_COUNT_BYTES
            + len(self.channel_bids) * MASKED_BID_FRAMING_BYTES
        )

    def wire_size(self) -> int:
        """Exact codec output size: payload plus framing."""
        return self.wire_bytes() + self.framing_bytes()

    def material_bytes(self) -> int:
        """Size of the prefix material alone (what Theorem 4 models)."""
        return self.masked_set_bytes

    def trace_fields(self) -> Dict[str, int]:
        """The per-message fields the flight recorder logs (scheme seam)."""
        return {
            "su": self.user_id,
            "payload_bytes": self.payload_bytes,
            "wire_size": self.wire_size(),
            "masked_set_bytes": self.masked_set_bytes,
            "n_channels": self.n_channels,
            "digest_bytes": self.channel_bids[0].family.digest_bytes,
        }


# The unchecked makers write each slot through its member descriptor, as
# MaskedSet.of_width does: about half the cost of object.__setattr__.
(
    _set_location_user,
    _set_x_family,
    _set_x_range,
    _set_y_family,
    _set_y_range,
    _set_location_payload,
) = (
    vars(LocationSubmission)[name].__set__
    for name in ("user_id", "x_family", "x_range", "y_family", "y_range", "payload_bytes")
)
_set_family, _set_tail, _set_ciphertext, _set_bid_payload = (
    vars(MaskedBid)[name].__set__
    for name in ("family", "tail", "ciphertext", "payload_bytes")
)
_set_user_id, _set_channel_bids, _set_submission_payload, _set_masked_set_bytes = (
    vars(BidSubmission)[name].__set__
    for name in ("user_id", "channel_bids", "payload_bytes", "masked_set_bytes")
)
