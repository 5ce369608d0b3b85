"""Advanced Private Bid Submission protocol (section IV.C.2).

Fixes the three leaks of the basic scheme:

1. **Cross-channel comparison** — each channel ``r`` gets its own HMAC key
   ``gb_r``, so masked bids on different channels are incomparable.
2. **Zero-frequency filtering and per-user availability** — a zero bid is
   (a) spread uniformly over the secret offset range ``[0, rd]`` so its
   masked value stops being the single most frequent ciphertext, and
   (b) with user-chosen probability *disguised* as a positive pretend value
   ``t`` (the masked sets are computed for ``t``; the TTP ciphertext keeps
   the truth).
3. **Range-prefix cardinality** — every tail cover is padded with random
   filler digests to the worst-case ``2w - 2`` elements, so set sizes stop
   ordering the bids.

Additionally every value is *expanded*: multiplied by the secret ``cr`` and
placed uniformly inside ``[cr*v, cr*(v+1) - 1]``.  Expansion is order-
preserving across distinct values but randomises the exact masked value, so
the plaintext-ciphertext pairs the auctioneer inevitably learns at charging
time do not let it dereference equal bids elsewhere in the table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.crypto.keys import KeyRing
from repro.lppa.bids_basic import seal_bid_values
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.lppa.policies import KeepZeroPolicy, ZeroDisguisePolicy
from repro.prefix.membership import (
    DEFAULT_DIGEST_BYTES,
    MaskedSet,
    MaskSpec,
    mask_spec_digests,
    pad_masked_set,
)
from repro.prefix.prefixes import bit_width_for
from repro.prefix.ranges import max_cover_size

__all__ = [
    "BidScale",
    "ChannelDisclosure",
    "SubmissionDisclosure",
    "disguise_and_expand",
    "submit_bids_advanced",
]

_BID_DOMAIN = b"lppa/bid/adv"


@dataclass(frozen=True)
class BidScale:
    """The public shape of the expanded bid domain.

    ``bmax`` bounds original bids; ``rd``/``cr`` come from the key ring.
    The expanded domain is ``[0, emax]`` with
    ``emax = cr * (bmax + rd + 1) - 1`` (the largest possible expansion of
    the largest possible offset bid), and ``width`` is its bit length —
    the ``w`` of Theorem 4 and of the ``2w - 2`` padding rule.
    """

    bmax: int
    rd: int
    cr: int

    def __post_init__(self) -> None:
        if self.bmax < 1:
            raise ValueError("bmax must be >= 1")
        if self.rd < 1:
            raise ValueError("the advanced scheme needs rd >= 1")
        if self.cr < 1:
            raise ValueError("cr must be >= 1")

    @property
    def emax(self) -> int:
        return self.cr * (self.bmax + self.rd + 1) - 1

    @property
    def width(self) -> int:
        return bit_width_for(self.emax)

    @property
    def pad_to(self) -> int:
        return max_cover_size(self.width)

    def offset_value(self, bid: int) -> int:
        """Step (i) for positive bids: add the secret offset."""
        if not 0 <= bid <= self.bmax:
            raise ValueError(f"bid {bid} outside [0, {self.bmax}]")
        return bid + self.rd

    def expand(self, value: int, rng: random.Random) -> int:
        """Step (ii): multiply by ``cr``, land uniformly in the value's slot."""
        if not 0 <= value <= self.bmax + self.rd:
            raise ValueError(f"offset value {value} outside [0, {self.bmax + self.rd}]")
        return self.cr * value + rng.randrange(self.cr)

    def contract(self, expanded: int) -> int:
        """TTP side: ``floor(e / cr)`` recovers the offset value."""
        if not 0 <= expanded <= self.emax:
            raise ValueError(f"expanded value {expanded} outside [0, {self.emax}]")
        return expanded // self.cr

    def is_zero_marker(self, offset_value: int) -> bool:
        """True when an offset value encodes an original zero (``<= rd``)."""
        return 0 <= offset_value <= self.rd


@dataclass(frozen=True)
class ChannelDisclosure:
    """SU-side record of what really happened on one channel.

    Used by tests and by the experiment harness's ground truth; never sent
    to the auctioneer.
    """

    true_bid: int
    pretend_value: int  # the offset value the masked sets encode
    true_expanded: int  # plaintext inside the gc ciphertext
    masked_expanded: int  # expanded value the masked sets encode
    disguised: bool


@dataclass(frozen=True)
class SubmissionDisclosure:
    """All per-channel disclosures of one submission."""

    user_id: int
    channels: Tuple[ChannelDisclosure, ...]


def disguise_and_expand(
    bids: Sequence[int],
    scale: BidScale,
    rng: random.Random,
    *,
    policy: Optional[ZeroDisguisePolicy] = None,
) -> List[ChannelDisclosure]:
    """Steps (i)-(ii): offset, zero disguise, and ``cr`` expansion.

    This is the complete *numeric* content of the advanced scheme — the
    full crypto path in :func:`submit_bids_advanced` and the fast simulator
    in :mod:`repro.lppa.fastsim` both run exactly this code, so the two are
    behaviourally identical by construction.
    """
    if policy is None:
        policy = KeepZeroPolicy()
    user_bmax = max(bids) if bids else 0
    disclosures: List[ChannelDisclosure] = []
    for bid in bids:
        if not 0 <= bid <= scale.bmax:
            raise ValueError(f"bid {bid} outside [0, {scale.bmax}]")
        if bid > 0:
            pretend = scale.offset_value(bid)  # b + rd
            true_offset = pretend
            disguised = False
        else:
            t = policy.sample(rng, user_bmax)
            if t > 0:
                # Disguise: masked sets pretend the bid is t.
                pretend = scale.offset_value(t)
                disguised = True
                true_offset = rng.randint(0, scale.rd)
            else:
                # Stay zero: spread uniformly over [0, rd].
                pretend = rng.randint(0, scale.rd)
                disguised = False
                true_offset = pretend
        masked_expanded = scale.expand(pretend, rng)
        true_expanded = (
            masked_expanded if not disguised else scale.expand(true_offset, rng)
        )
        disclosures.append(
            ChannelDisclosure(
                true_bid=bid,
                pretend_value=pretend,
                true_expanded=true_expanded,
                masked_expanded=masked_expanded,
                disguised=disguised,
            )
        )
    return disclosures


def submit_bids_advanced(
    user_id: int,
    bids: Sequence[int],
    keyring: KeyRing,
    scale: BidScale,
    rng: random.Random,
    *,
    policy: Optional[ZeroDisguisePolicy] = None,
) -> Tuple[BidSubmission, SubmissionDisclosure]:
    """Bidder side of the advanced scheme.

    Returns the wire submission plus the SU-private disclosure record.
    ``bids`` must have one entry per channel and the key ring must carry one
    channel key per entry.
    """
    if len(bids) != keyring.n_channels:
        raise ValueError(
            f"{len(bids)} bids but key ring has {keyring.n_channels} channel keys"
        )
    if keyring.rd != scale.rd or keyring.cr != scale.cr:
        raise ValueError("key ring and bid scale disagree on rd/cr")

    disclosures = disguise_and_expand(bids, scale, rng, policy=policy)
    width = scale.width
    emax = scale.emax

    # Masking consumes no randomness, so all channels' families and tail
    # covers go through one backend batch up front.  The loop below then
    # draws pad fillers and ciphertext nonces in exactly the order the
    # digest-at-a-time implementation did, and every channel's ciphertext
    # is sealed in one keystream call after it.
    specs: List[MaskSpec] = []
    for channel, disclosure in enumerate(disclosures):
        key = keyring.channel_key(channel)
        value = disclosure.masked_expanded
        specs.append(MaskSpec.family(key, value, width, domain=_BID_DOMAIN))
        specs.append(MaskSpec.cover(key, value, emax, width, domain=_BID_DOMAIN))
    digests = mask_spec_digests(specs)

    families = [
        MaskedSet(frozenset(family), digest_bytes=DEFAULT_DIGEST_BYTES)
        for family in digests[0::2]
    ]
    obs.count("prefix.masked_sets", len(families))
    obs.count("prefix.masked_digests", sum(map(len, families)))
    tails = []
    nonces = []
    for tail in digests[1::2]:
        tails.append(
            pad_masked_set(
                set(tail),
                ceiling=scale.pad_to,
                digest_bytes=DEFAULT_DIGEST_BYTES,
                rng=rng,
            )
        )
        nonces.append(rng.getrandbits(32))
    ciphertexts = seal_bid_values(
        keyring.gc, [disclosure.true_expanded for disclosure in disclosures], nonces
    )
    channel_bids = tuple(
        MaskedBid(family=family, tail=tail, ciphertext=ciphertext)
        for family, tail, ciphertext in zip(families, tails, ciphertexts)
    )

    return (
        BidSubmission(user_id=user_id, channel_bids=channel_bids),
        SubmissionDisclosure(user_id=user_id, channels=tuple(disclosures)),
    )
