"""Order-preserving-encrypted bid submission (the Bloom scheme's bid side).

The Bloom scheme replaces the prefix-masked bid sets with a per-channel
order-preserving encryption of the *expanded* bid: the auctioneer ranks the
OPE ciphertexts directly (no pairwise membership tests), while the TTP still
receives the usual ``gc`` ciphertext and checks consistency by re-deriving
the winner's OPE value.

The numeric pipeline is *shared with PPBS*: :func:`submit_bids_ope` runs
:func:`repro.lppa.bids_advanced.disguise_and_expand` on the same rng before
any scheme-specific randomness, so on identical entropy both schemes seal
identical expanded values — and, OPE being strictly monotone, produce
identical rankings, allocations and charges.  The differential suite pins
that equivalence.

Per channel ``r`` the OPE key is ``derive_key(gb_r, "bloom/ope")`` over the
domain ``[0, emax]``; the encoder table is deterministic in the key, so the
ciphertext byte width (``OrderPreservingEncoder.ciphertext_bytes``) is a
public per-channel constant — the Bloom analogue of Theorem 4's masked-set
size, which the trace auditor checks per submission.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.crypto.keys import KeyRing, derive_key
from repro.crypto.ope import OrderPreservingEncoder
from repro.lppa.bids_advanced import (
    BidScale,
    SubmissionDisclosure,
    disguise_and_expand,
)
from repro.lppa.bids_basic import seal_bid_values
from repro.lppa.messages import U8_MAX, CodecError, check_u16, check_user_id
from repro.lppa.policies import ZeroDisguisePolicy

__all__ = [
    "OPE_BID_TAG",
    "OpeBid",
    "OpeBidSubmission",
    "decode_bids_ope",
    "encode_bids_ope",
    "ope_encoder_for",
    "reset_ope_cache",
    "submit_bids_ope",
]

#: Leading payload byte of OPE bid submissions (PPBS uses ``b"B"``).
OPE_BID_TAG = b"O"

#: Derivation label of a channel's OPE key under its ``gb_r``.
OPE_KEY_LABEL = "bloom/ope"

# Per-channel framing: OPE value length byte + ciphertext length u16.
OPE_BID_FRAMING = 1 + 2
# Submission framing: tag + channel count u16 (the user id is payload).
SUBMISSION_FRAMING_BASE = 1 + 2


@lru_cache(maxsize=None)
def _encoder(key: bytes, domain: int) -> OrderPreservingEncoder:
    return OrderPreservingEncoder(key, domain, gap_bits=16)


def ope_encoder_for(channel_key: bytes, scale: BidScale) -> OrderPreservingEncoder:
    """The (cached) OPE encoder of one channel over the expanded domain."""
    return _encoder(derive_key(channel_key, OPE_KEY_LABEL), scale.emax + 1)


def reset_ope_cache() -> None:
    """Drop cached encoders (compare-harness fairness between schemes)."""
    _encoder.cache_clear()


@dataclass(frozen=True, slots=True)
class OpeBid:
    """One channel's sealed bid: OPE value for ranking + TTP ciphertext."""

    ope_value: int
    ope_bytes: int
    ciphertext: bytes

    def __post_init__(self) -> None:
        if self.ope_bytes < 1:
            raise ValueError("ope_bytes must be >= 1")
        if not 0 <= self.ope_value < 256**self.ope_bytes:
            raise ValueError("ope_value does not fit in ope_bytes")
        if len(self.ciphertext) < 5:
            raise ValueError("ciphertext must be at least 5 bytes")
        if self.ope_bytes > U8_MAX:
            raise CodecError("ope_bytes exceeds the u8 length field")
        check_u16("ciphertext length", len(self.ciphertext))

    def wire_bytes(self) -> int:
        """Protocol payload: the OPE value body plus the TTP ciphertext."""
        return self.ope_bytes + len(self.ciphertext)

    def wire_size(self) -> int:
        """Payload plus per-bid framing, mirroring the encoded length."""
        return self.wire_bytes() + OPE_BID_FRAMING


@dataclass(frozen=True, slots=True)
class OpeBidSubmission:
    """One SU's sealed bid vector (one :class:`OpeBid` per channel).

    Like a PPBS :class:`~repro.lppa.messages.BidSubmission`, it adds its
    payload and OPE-value sizes up once, when it is made; they take no
    part in equality, hashing or ``repr``.
    """

    user_id: int
    channel_bids: Tuple[OpeBid, ...]
    payload_bytes: int = field(init=False, repr=False, compare=False)
    ope_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.channel_bids:
            raise ValueError("a bid submission must cover at least one channel")
        check_user_id(self.user_id)
        check_u16("channel count", len(self.channel_bids))
        object.__setattr__(
            self, "payload_bytes", 4 + sum(bid.wire_bytes() for bid in self.channel_bids)
        )
        object.__setattr__(
            self, "ope_bytes", sum(bid.ope_bytes for bid in self.channel_bids)
        )

    @property
    def n_channels(self) -> int:
        return len(self.channel_bids)

    def wire_bytes(self) -> int:
        """Protocol payload: user id plus every channel's sealed bid."""
        return self.payload_bytes

    def framing_bytes(self) -> int:
        """Codec framing on top of the payload: the tag, the channel count
        and every channel's length fields."""
        return SUBMISSION_FRAMING_BASE + OPE_BID_FRAMING * len(self.channel_bids)

    def wire_size(self) -> int:
        """Payload plus framing, mirroring the encoded byte length."""
        return self.wire_bytes() + self.framing_bytes()

    def material_bytes(self) -> int:
        """Total OPE value bytes — the Bloom analogue of masked-set bytes."""
        return self.ope_bytes

    def trace_fields(self) -> Dict[str, int]:
        """The byte-accounting fields the flight recorder stores per message."""
        return {
            "su": self.user_id,
            "payload_bytes": self.wire_bytes(),
            "wire_size": self.wire_size(),
            "ope_bytes": self.material_bytes(),
            "n_channels": len(self.channel_bids),
        }


def submit_bids_ope(
    user_id: int,
    bids: "List[int]",
    keyring: KeyRing,
    scale: BidScale,
    rng: random.Random,
    *,
    policy: Optional[ZeroDisguisePolicy] = None,
) -> Tuple[OpeBidSubmission, SubmissionDisclosure]:
    """Bidder side of the Bloom scheme's bid submission.

    Same contract as :func:`repro.lppa.bids_advanced.submit_bids_advanced`:
    one bid per channel key, rd/cr agreement, and the shared
    :func:`disguise_and_expand` consumes the rng first.
    """
    if len(bids) != keyring.n_channels:
        raise ValueError(
            f"{len(bids)} bids but key ring has {keyring.n_channels} channel keys"
        )
    if keyring.rd != scale.rd or keyring.cr != scale.cr:
        raise ValueError("key ring and bid scale disagree on rd/cr")

    disclosures = disguise_and_expand(bids, scale, rng, policy=policy)
    # OPE consumes no randomness: the nonces are the only draws after the
    # disclosures, one per channel, and all channels seal in one call.
    nonces = [rng.getrandbits(32) for _ in disclosures]
    ciphertexts = seal_bid_values(
        keyring.gc, [disclosure.true_expanded for disclosure in disclosures], nonces
    )
    channel_bids: List[OpeBid] = []
    for channel, (disclosure, ciphertext) in enumerate(zip(disclosures, ciphertexts)):
        encoder = ope_encoder_for(keyring.channel_key(channel), scale)
        channel_bids.append(
            OpeBid(
                ope_value=encoder.encrypt(disclosure.masked_expanded),
                ope_bytes=encoder.ciphertext_bytes,
                ciphertext=ciphertext,
            )
        )
    return (
        OpeBidSubmission(user_id=user_id, channel_bids=tuple(channel_bids)),
        SubmissionDisclosure(user_id=user_id, channels=tuple(disclosures)),
    )


def encode_bids_ope(submission: OpeBidSubmission) -> bytes:
    """Serialize: tag | user u32 | n_channels u16 | per channel
    (ope_len u8 | OPE value | ct_len u16 | ct)."""
    parts = [
        OPE_BID_TAG,
        struct.pack(">IH", submission.user_id, len(submission.channel_bids)),
    ]
    for bid in submission.channel_bids:
        parts.append(struct.pack(">B", bid.ope_bytes))
        parts.append(bid.ope_value.to_bytes(bid.ope_bytes, "big"))
        parts.append(struct.pack(">H", len(bid.ciphertext)))
        parts.append(bid.ciphertext)
    return b"".join(parts)


def decode_bids_ope(data: bytes) -> OpeBidSubmission:
    """Strict inverse of :func:`encode_bids_ope`."""
    if len(data) < 1 or data[:1] != OPE_BID_TAG:
        raise CodecError("not an OPE bid payload")
    try:
        if len(data) < 7:
            raise CodecError("truncated OPE bid header")
        user_id, n_channels = struct.unpack(">IH", data[1:7])
        if n_channels < 1:
            raise CodecError("a bid submission must cover at least one channel")
        offset = 7
        channel_bids: List[OpeBid] = []
        for _ in range(n_channels):
            if len(data) < offset + 1:
                raise CodecError("truncated OPE value header")
            ope_bytes = data[offset]
            offset += 1
            if ope_bytes < 1:
                raise CodecError("ope_bytes must be >= 1")
            body = data[offset : offset + ope_bytes]
            if len(body) != ope_bytes:
                raise CodecError("truncated OPE value")
            offset += ope_bytes
            if len(data) < offset + 2:
                raise CodecError("truncated ciphertext header")
            (ct_len,) = struct.unpack(">H", data[offset : offset + 2])
            offset += 2
            ciphertext = data[offset : offset + ct_len]
            if len(ciphertext) != ct_len:
                raise CodecError("truncated ciphertext")
            offset += ct_len
            channel_bids.append(
                OpeBid(
                    ope_value=int.from_bytes(body, "big"),
                    ope_bytes=ope_bytes,
                    ciphertext=ciphertext,
                )
            )
        if offset != len(data):
            raise CodecError("trailing bytes after OPE bid payload")
        return OpeBidSubmission(
            user_id=user_id, channel_bids=tuple(channel_bids)
        )
    except CodecError:
        raise
    except (struct.error, ValueError) as exc:
        raise CodecError(str(exc)) from exc
