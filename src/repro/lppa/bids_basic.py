"""Basic Private Bid Submission protocol (section IV.B).

The first, deliberately imperfect scheme: one shared HMAC key ``gb`` masks
every bid's prefix family ``G(b)`` and tail cover ``Q([b, bmax])``.  The
auctioneer finds the maximum bid of a channel by checking equation (3):
``b_mx`` is maximal iff its family intersects every submitted tail range.

Section IV.C.1 then demonstrates three leaks — cross-channel comparability,
the frequency signature of zero bids, and range-prefix cardinality — that
motivate the advanced scheme in :mod:`repro.lppa.bids_advanced`.  The basic
scheme is kept as a runnable protocol both for the paper's Fig. 3 worked
example and so the leak analyses can be demonstrated in tests.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Sequence

from repro import obs
from repro.crypto.keys import KeyRing
from repro.crypto.speck import Speck64128, ctr_encrypt_batch
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.prefix.membership import MaskShelf, mask_specs
from repro.prefix.prefixes import bit_width_for

__all__ = [
    "SEALED_BID_BYTES",
    "submit_bids_basic",
    "seal_bid_values",
    "encrypt_bid_value",
    "decrypt_bid_values",
    "decrypt_bid_value",
]

_BID_DOMAIN = b"lppa/bid"
_PLAINTEXT_BYTES = 4

#: Length of one sealed bid: the 4-byte nonce and the CTR ciphertext.
SEALED_BID_BYTES = 4 + _PLAINTEXT_BYTES


@lru_cache(maxsize=64)
def _cipher_for(gc: bytes) -> Speck64128:
    # The 27-round Speck key schedule dominates a single 8-byte CTR
    # encryption; a round encrypts thousands of values under one gc, so
    # keep the expanded schedule around.  After construction Speck64128
    # only memoises pure lane constants, so the shared instance is safe.
    return Speck64128(gc)


def seal_bid_values(
    gc: bytes, values: Sequence[int], nonces: Sequence[int]
) -> List[bytes]:
    """(nonce || CTR ciphertext) of each value under the TTP key ``gc``.

    ``nonces`` are the 32-bit nonces the bidder drew for the values, in
    order; every value is sealed by one keystream call.  Each blob is
    :data:`SEALED_BID_BYTES` long and equals what :func:`encrypt_bid_value`
    gives for the same value and nonce draw.
    """
    if values:
        obs.count("crypto.speck.encrypt", len(values))
    for value in values:
        if value < 0 or value >= 1 << (8 * _PLAINTEXT_BYTES):
            raise ValueError(f"bid value {value} outside the 32-bit wire format")
    prefixes = [nonce.to_bytes(4, "big") for nonce in nonces]
    sealed = ctr_encrypt_batch(
        _cipher_for(gc),
        prefixes,
        [value.to_bytes(_PLAINTEXT_BYTES, "big") for value in values],
    )
    return [nonce + ct for nonce, ct in zip(prefixes, sealed)]


def encrypt_bid_value(gc: bytes, value: int, rng: random.Random) -> bytes:
    """(nonce || CTR ciphertext) of a bid value under the TTP key ``gc``."""
    return seal_bid_values(gc, [value], [rng.getrandbits(32)])[0]


def decrypt_bid_values(gc: bytes, blobs: Sequence[bytes]) -> List[int]:
    """Inverse of :func:`seal_bid_values` (TTP side), one keystream call."""
    if blobs:
        obs.count("crypto.speck.decrypt", len(blobs))
    for blob in blobs:
        if len(blob) != SEALED_BID_BYTES:
            raise ValueError("malformed bid ciphertext")
    opened = ctr_encrypt_batch(
        _cipher_for(gc), [blob[:4] for blob in blobs], [blob[4:] for blob in blobs]
    )
    return [int.from_bytes(plain, "big") for plain in opened]


def decrypt_bid_value(gc: bytes, blob: bytes) -> int:
    """Inverse of :func:`encrypt_bid_value` (TTP side)."""
    return decrypt_bid_values(gc, [blob])[0]


def submit_bids_basic(
    user_id: int,
    bids: Sequence[int],
    keyring: KeyRing,
    bmax: int,
    rng: random.Random,
) -> BidSubmission:
    """Bidder side of the basic scheme: mask each bid under the shared ``gb``.

    No zero disguise, no offset, no expansion, no padding — the masked set
    cardinalities and frequencies leak exactly as section IV.C.1 describes.
    """
    if bmax < 1:
        raise ValueError("bmax must be >= 1")
    width = bit_width_for(bmax)
    for bid in bids:
        if not 0 <= bid <= bmax:
            raise ValueError(f"bid {bid} outside [0, {bmax}]")
    # One backend batch masks every channel's family and tail; ciphertext
    # nonces are then drawn per channel in the original order (masking
    # consumes no randomness, so the RNG stream is unchanged) and every
    # channel is sealed in one keystream call.
    families, tails = mask_specs(
        [
            (MaskShelf.family(keyring.gb, width, domain=_BID_DOMAIN), bids),
            (
                MaskShelf.cover(keyring.gb, width, domain=_BID_DOMAIN),
                [(bid, bmax) for bid in bids],
            ),
        ]
    )
    nonces = [rng.getrandbits(32) for _ in bids]
    ciphertexts = seal_bid_values(keyring.gc, bids, nonces)
    channel_bids = [
        MaskedBid(family=family, tail=tail, ciphertext=ct)
        for family, tail, ct in zip(families, tails, ciphertexts)
    ]
    return BidSubmission(user_id=user_id, channel_bids=tuple(channel_bids))
