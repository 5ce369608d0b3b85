"""The Trusted Third Party (sections IV, V.B, V.C.2).

The TTP's three jobs:

1. **Key distribution** — generate ``g0``, ``gb_1..gb_k``, ``gc``, ``rd``
   and ``cr`` and share them with the bidders (:meth:`TrustedThirdParty.setup`).
2. **Winner charging** — decrypt a winning bid's ``gc`` ciphertext, undo the
   ``cr`` expansion, and either return the charge or report an *invalid
   winner* when the plaintext lands in the zero band ``[0, rd]`` (a
   disguised or genuine zero won the channel).
3. **Cheating detection** — for valid winners, recompute the masked prefix
   family from the decrypted value and compare with what the bidder
   submitted; a mismatch means the bidder sealed one price to the
   auctioneer and another to the TTP.

Charging is *batched* (section V.C.2): the auctioneer queues the whole
winner list (possibly from several auctions) and the periodically-online
TTP processes it in one go.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import trace
from repro.crypto.cache import note_key_epoch
from repro.crypto.keys import KeyRing, generate_keyring
from repro.lppa.bids_advanced import BidScale
from repro.lppa.bids_basic import decrypt_bid_value, decrypt_bid_values
from repro.lppa.bids_ope import OpeBid, ope_encoder_for
from repro.prefix.membership import MaskedSet, MaskSpec, mask_specs

__all__ = ["ChargeStatus", "ChargeDecision", "TrustedThirdParty"]

_BID_DOMAIN = b"lppa/bid/adv"

#: A charge request carries the channel id (u16) plus the winner's framed
#: masked bid; the decision going back is status (u8) + charge (u32).
CHANNEL_ID_BYTES = 2
CHARGE_DECISION_BYTES = 5


class ChargeStatus(enum.Enum):
    """Outcome of one charge verification."""

    VALID = "valid"
    INVALID_ZERO = "invalid-zero"
    CHEATING = "cheating"


@dataclass(frozen=True)
class ChargeDecision:
    """The TTP's verdict for one winning bid."""

    status: ChargeStatus
    charge: int  # original bid price; 0 unless VALID

    def __post_init__(self) -> None:
        if self.status is ChargeStatus.VALID and self.charge <= 0:
            raise ValueError("a VALID decision must carry a positive charge")
        if self.status is not ChargeStatus.VALID and self.charge != 0:
            raise ValueError("non-VALID decisions carry no charge")


class TrustedThirdParty:
    """Holds the key ring; performs charging and verification."""

    def __init__(self, keyring: KeyRing, scale: BidScale) -> None:
        if keyring.rd != scale.rd or keyring.cr != scale.cr:
            raise ValueError("key ring and bid scale disagree on rd/cr")
        self._keyring = keyring
        self._scale = scale
        # Key (re)distribution starts a new epoch: masked-digest caches of
        # retired keys are dropped eagerly (same-ring re-setup, as seeded
        # experiments do every round, keeps the cache warm; a partial
        # rotation — membership churn replacing only gc — keeps every
        # entry still masked under a live key).
        note_key_epoch(keyring.fingerprint(), keyring.live_keys())

    @classmethod
    def setup(
        cls,
        seed: bytes,
        n_channels: int,
        *,
        bmax: int,
        rd: int = 4,
        cr: int = 8,
    ) -> Tuple["TrustedThirdParty", KeyRing, BidScale]:
        """Generate keys and protocol parameters for one auction system.

        Returns (ttp, keyring, scale); the key ring goes to the bidders,
        the scale is public, the TTP keeps both.
        """
        keyring = generate_keyring(seed, n_channels, rd=rd, cr=cr)
        scale = BidScale(bmax=bmax, rd=rd, cr=cr)
        return cls(keyring, scale), keyring, scale

    @property
    def scale(self) -> BidScale:
        return self._scale

    def process_charge(self, channel: int, masked_bid: Any) -> ChargeDecision:
        """Decrypt, de-expand, classify and (for valid bids) verify one winner.

        ``masked_bid`` is either a PPBS :class:`~repro.lppa.messages.MaskedBid`
        or a Bloom-scheme :class:`~repro.lppa.bids_ope.OpeBid`; both carry the
        ``gc`` ciphertext and the wire-size accounting this method records.
        """
        expanded = decrypt_bid_value(self._keyring.gc, masked_bid.ciphertext)
        return self._charge_all([(channel, masked_bid)], [expanded])[0]

    def process_batch(
        self, requests: Sequence[Tuple[int, Any]]
    ) -> List[ChargeDecision]:
        """Batched charging: one TTP online period serves many winners.

        Every winner's ciphertext is decrypted in one keystream call and
        every PPBS family to verify is re-derived in one
        :func:`~repro.prefix.membership.mask_specs` batch; each winner is
        then charged, in order, exactly as :meth:`process_charge` would.
        """
        obs.count("ttp.batches")
        with obs.timer("ttp.batch"):
            expanded = decrypt_bid_values(
                self._keyring.gc, [masked_bid.ciphertext for _, masked_bid in requests]
            )
            return self._charge_all(requests, expanded)

    def _charge_all(
        self, requests: Sequence[Tuple[int, Any]], expanded: Sequence[int]
    ) -> List[ChargeDecision]:
        families = self._expected_families(requests, expanded)
        return [
            self._charge(channel, masked_bid, value, family)
            for (channel, masked_bid), value, family in zip(requests, expanded, families)
        ]

    def _expected_families(
        self, requests: Sequence[Tuple[int, Any]], expanded: Sequence[int]
    ) -> List[Optional[MaskedSet]]:
        """The masked family each PPBS winner must have submitted, else None.

        Only non-zero, in-range values get one (the others are decided
        without it), all from one :func:`mask_specs` batch whose cache and
        ``prefix.*`` counters equal one :func:`mask_value` call per winner.
        """
        width = self._scale.width
        wanted = [
            index
            for index, ((_, masked_bid), value) in enumerate(zip(requests, expanded))
            if self._unverified_decision(value) is None
            and not isinstance(masked_bid, OpeBid)
        ]
        families: List[Optional[MaskedSet]] = [None] * len(requests)
        masked = mask_specs(
            [
                MaskSpec.family(
                    self._keyring.channel_key(requests[index][0]),
                    expanded[index],
                    width,
                    domain=_BID_DOMAIN,
                )
                for index in wanted
            ]
        )
        for index, family in zip(wanted, masked):
            families[index] = family
        return families

    def _unverified_decision(self, expanded: int) -> Optional[ChargeDecision]:
        """The verdict ``expanded`` gets without checking the bid, if any:
        a value beyond the scale cheats, one in the zero band is an
        invalid winner, and None means the bid must be verified."""
        if expanded > self._scale.emax:
            return ChargeDecision(status=ChargeStatus.CHEATING, charge=0)
        if self._scale.is_zero_marker(self._scale.contract(expanded)):
            return ChargeDecision(status=ChargeStatus.INVALID_ZERO, charge=0)
        return None

    def _charge(
        self,
        channel: int,
        masked_bid: Any,
        expanded: int,
        expected_family: Optional[MaskedSet],
    ) -> ChargeDecision:
        obs.count("ttp.charges")
        tr = trace.get_active()
        if tr is not None:
            # The auctioneer originates (and therefore observes) the request;
            # bidder identity is deliberately absent — the TTP charges a
            # ciphertext, not a user.
            tr.message(
                "charge_request",
                channel=channel,
                payload_bytes=CHANNEL_ID_BYTES + masked_bid.wire_bytes(),
                wire_size=CHANNEL_ID_BYTES + masked_bid.wire_size(),
            )
        decision = self._decide(channel, masked_bid, expanded, expected_family)
        if tr is not None:
            tr.message(
                "charge_decision",
                channel=channel,
                payload_bytes=CHARGE_DECISION_BYTES,
                wire_size=CHARGE_DECISION_BYTES,
                status=decision.status.value,
                charge=decision.charge,
            )
        return decision

    def _decide(
        self,
        channel: int,
        masked_bid: Any,
        expanded: int,
        expected_family: Optional[MaskedSet],
    ) -> ChargeDecision:
        unverified = self._unverified_decision(expanded)
        if unverified is not None:
            return unverified
        # Verify the bidder ranked the same value it sealed for us.  PPBS:
        # compare with the recomputed masked family; Bloom: re-encrypt under
        # the channel's OPE key.  A mismatch means one price went to the
        # auctioneer and another to the TTP.
        if isinstance(masked_bid, OpeBid):
            encoder = ope_encoder_for(self._keyring.channel_key(channel), self._scale)
            honest = encoder.encrypt(expanded) == masked_bid.ope_value
        else:
            assert expected_family is not None
            honest = expected_family.digests == masked_bid.family.digests
        if not honest:
            return ChargeDecision(status=ChargeStatus.CHEATING, charge=0)
        return ChargeDecision(
            status=ChargeStatus.VALID,
            charge=self._scale.contract(expanded) - self._scale.rd,
        )
