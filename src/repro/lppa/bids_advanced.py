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

from repro.crypto.keys import KeyRing
from repro.lppa.bids_basic import SEALED_BID_BYTES, seal_bid_values
from repro.lppa.messages import (
    USER_ID_BYTES,
    BidSubmission,
    MaskedBid,
    check_bid_shape,
)
from repro.lppa.policies import KeepZeroPolicy, ZeroDisguisePolicy
from repro.prefix.membership import (
    COVER,
    DEFAULT_DIGEST_BYTES,
    FAMILY,
    MaskedSet,
    MaskSpec,
    mask_specs,
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
    "submit_population_bids",
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SubmissionDisclosure:
    """All per-channel disclosures of one submission."""

    user_id: int
    channels: Tuple[ChannelDisclosure, ...]


# ChannelDisclosure(...) without its generated __init__: the disguise core
# makes one per channel, and writing each slot through its member
# descriptor, as the messages' unchecked makers do, costs about half of
# object.__setattr__.  The record has no checks to skip.
_set_true_bid, _set_pretend, _set_true_expanded, _set_masked_expanded, _set_disguised = (
    vars(ChannelDisclosure)[name].__set__
    for name in ("true_bid", "pretend_value", "true_expanded", "masked_expanded", "disguised")
)


def _channel_disclosure(
    true_bid: int, pretend: int, true_expanded: int, masked_expanded: int, disguised: bool
) -> ChannelDisclosure:
    disclosure = object.__new__(ChannelDisclosure)
    _set_true_bid(disclosure, true_bid)
    _set_pretend(disclosure, pretend)
    _set_true_expanded(disclosure, true_expanded)
    _set_masked_expanded(disclosure, masked_expanded)
    _set_disguised(disclosure, disguised)
    return disclosure


def disguise_and_expand(
    bids: Sequence[int],
    scale: BidScale,
    rng: random.Random,
    *,
    policy: Optional[ZeroDisguisePolicy] = None,
) -> List[ChannelDisclosure]:
    """Steps (i)-(ii): offset, zero disguise, and ``cr`` expansion.

    This is the complete *numeric* content of the advanced scheme — the
    full crypto path in :func:`submit_population_bids` and the fast simulator
    in :mod:`repro.lppa.fastsim` both run exactly this code, so the two are
    behaviourally identical by construction.

    The uniform draws over ``[0, rd]`` and ``[0, cr)`` are the ones
    ``rng.randint(0, rd)`` and ``rng.randrange(cr)`` make (CPython 3.11+):
    ``getrandbits(n.bit_length())`` until the value is below ``n``.  They
    are inlined, with the scale read once, because this loop is most of
    the bidder's Python work; :meth:`BidScale.offset_value` and
    :meth:`BidScale.expand` stay the per-value reference.  Every value a
    bid or a policy supplies is range-checked here; the draws land in
    range by construction, so the offset values need no second check.
    """
    if policy is None:
        policy = KeepZeroPolicy()
    bmax, rd, cr = scale.bmax, scale.rd, scale.cr
    zero_band = rd + 1
    zero_bits = zero_band.bit_length()
    slot_bits = cr.bit_length()
    getrandbits = rng.getrandbits
    sample = policy.sample
    user_bmax = max(bids) if bids else 0
    disclosures: List[ChannelDisclosure] = []
    for bid in bids:
        if not 0 <= bid <= bmax:
            raise ValueError(f"bid {bid} outside [0, {bmax}]")
        disguised = False
        if bid > 0:
            pretend = bid + rd
        else:
            t = sample(rng, user_bmax)
            if t > 0:
                # Disguise: masked sets pretend the bid is t.
                if t > bmax:
                    raise ValueError(f"bid {t} outside [0, {bmax}]")
                pretend = t + rd
                disguised = True
                true_offset = getrandbits(zero_bits)
                while true_offset >= zero_band:
                    true_offset = getrandbits(zero_bits)
            else:
                # Stay zero: spread uniformly over [0, rd].
                pretend = getrandbits(zero_bits)
                while pretend >= zero_band:
                    pretend = getrandbits(zero_bits)
        slot = getrandbits(slot_bits)
        while slot >= cr:
            slot = getrandbits(slot_bits)
        masked_expanded = true_expanded = cr * pretend + slot
        if disguised:
            slot = getrandbits(slot_bits)
            while slot >= cr:
                slot = getrandbits(slot_bits)
            true_expanded = cr * true_offset + slot
        disclosures.append(
            _channel_disclosure(bid, pretend, true_expanded, masked_expanded, disguised)
        )
    return disclosures


def submit_population_bids(
    bids: Sequence[Sequence[int]],
    keyring: KeyRing,
    scale: BidScale,
    rngs: Sequence[random.Random],
    *,
    policies: Optional[Sequence[Optional[ZeroDisguisePolicy]]] = None,
    user_ids: Optional[Sequence[int]] = None,
) -> Tuple[List[BidSubmission], List[SubmissionDisclosure]]:
    """Bidder side of the advanced scheme for many SUs at once.

    ``bids[i]`` (one entry per channel) is submitted with ``rngs[i]`` and
    ``policies[i]`` as user ``user_ids[i]`` (default: the dense index).
    Returns the wire submissions plus the SU-private disclosure records,
    exactly what one :func:`submit_bids_advanced` call per SU returns, and
    each SU's RNG ends in the same state.

    Each SU draws its disguise/expand values, then per channel its tail's
    fillers and its ciphertext nonce, from its own RNG in that order.
    Masking consumes no randomness, so the families and tail covers of the
    whole population go through one :func:`mask_specs` batch between the
    two, and every ciphertext is sealed by one keystream call.  A tail is
    a :class:`~repro.prefix.membership.PaddedSet`: the (typically cached)
    cover's own digest set plus one blob of fillers.  Every bid of the
    batch has one shape (a ``w + 1``-digest family, a ``2w - 2``-digest
    tail, an 8-byte sealed value), so the codec bounds are checked once,
    by :func:`~repro.lppa.messages.check_bid_shape`, and the bids and
    submissions are made unchecked (the ``of_parts`` makers), with the
    sizes the batch knows: each family's digests, ``pad_to`` digests per
    tail and ``SEALED_BID_BYTES`` per ciphertext.  Each SU
    needs its own RNG object: a shared one would be drawn in a different
    order than one SU at a time, so it raises ValueError.
    """
    if policies is None:
        policies = [None] * len(bids)
    if user_ids is None:
        user_ids = range(len(bids))
    if not len(rngs) == len(policies) == len(user_ids) == len(bids):
        raise ValueError(
            f"{len(bids)} bid vectors need as many RNGs, policies and user ids"
        )
    n_channels = keyring.n_channels
    for row in bids:
        if len(row) != n_channels:
            raise ValueError(
                f"{len(row)} bids but key ring has {n_channels} channel keys"
            )
    if keyring.rd != scale.rd or keyring.cr != scale.cr:
        raise ValueError("key ring and bid scale disagree on rd/cr")
    if len({id(rng) for rng in rngs}) != len(rngs):
        raise ValueError("each SU needs its own RNG object")

    width = scale.width
    emax = scale.emax
    pad_to = scale.pad_to
    keys = [keyring.channel_key(channel) for channel in range(n_channels)]
    disclosures = [
        disguise_and_expand(row, scale, rng, policy=policy)
        for row, rng, policy in zip(bids, rngs, policies)
    ]
    # MaskSpec tuples built in place: the fields its family/cover makers
    # would set, without their frames.
    spec = tuple.__new__
    domain, size = _BID_DOMAIN, DEFAULT_DIGEST_BYTES
    specs: List[MaskSpec] = []
    add = specs.append
    for channels in disclosures:
        for key, disclosure in zip(keys, channels):
            value = disclosure.masked_expanded
            add(spec(MaskSpec, (key, domain, size, FAMILY, (value,), width)))
            add(spec(MaskSpec, (key, domain, size, COVER, (value, emax), width)))
    masked = mask_specs(specs)
    families = masked[0::2]
    covers = iter(masked[1::2])
    # Free the specs and the batch list before padding, where the
    # phase's memory peaks.
    del specs, add, masked
    tails: List[MaskedSet] = []
    nonces: List[int] = []
    for rng in rngs:
        getrandbits = rng.getrandbits
        for _ in range(n_channels):
            tails.append(
                pad_masked_set(
                    next(covers), ceiling=pad_to, digest_bytes=DEFAULT_DIGEST_BYTES, rng=rng
                )
            )
            nonces.append(getrandbits(32))
    ciphertexts = seal_bid_values(
        keyring.gc,
        [disclosure.true_expanded for channels in disclosures for disclosure in channels],
        nonces,
    )
    # Validate once: a family holds at most width + 1 digests, a tail
    # exactly pad_to (its cover has at most 2w - 2), every digest is
    # DEFAULT_DIGEST_BYTES wide and every sealed bid SEALED_BID_BYTES long,
    # so these bounds imply every check MaskedBid(...) and
    # BidSubmission(...) would make.
    check_bid_shape(
        user_ids, n_channels, width + 1, pad_to, DEFAULT_DIGEST_BYTES, SEALED_BID_BYTES
    )
    family_bytes = [len(family.digests) * size for family in families]
    tail_bytes = pad_to * size
    rest = tail_bytes + SEALED_BID_BYTES
    channel_bids = list(
        map(
            MaskedBid.of_parts,
            families,
            tails,
            ciphertexts,
            [family + rest for family in family_bytes],
        )
    )
    tails_bytes = n_channels * tail_bytes
    sealed_bytes = USER_ID_BYTES + n_channels * SEALED_BID_BYTES
    submissions = []
    records = []
    for slot, (user_id, channels) in enumerate(zip(user_ids, disclosures)):
        start = slot * n_channels
        end = start + n_channels
        masked_set_bytes = sum(family_bytes[start:end]) + tails_bytes
        submissions.append(
            BidSubmission.of_parts(
                user_id,
                tuple(channel_bids[start:end]),
                masked_set_bytes + sealed_bytes,
                masked_set_bytes,
            )
        )
        records.append(SubmissionDisclosure(user_id, tuple(channels)))
    return submissions, records


def submit_bids_advanced(
    user_id: int,
    bids: Sequence[int],
    keyring: KeyRing,
    scale: BidScale,
    rng: random.Random,
    *,
    policy: Optional[ZeroDisguisePolicy] = None,
) -> Tuple[BidSubmission, SubmissionDisclosure]:
    """Bidder side of the advanced scheme: one SU's case of
    :func:`submit_population_bids`.

    Returns the wire submission plus the SU-private disclosure record.
    ``bids`` must have one entry per channel and the key ring must carry one
    channel key per entry.
    """
    submissions, disclosures = submit_population_bids(
        [bids], keyring, scale, [rng], policies=[policy], user_ids=[user_id]
    )
    return submissions[0], disclosures[0]
