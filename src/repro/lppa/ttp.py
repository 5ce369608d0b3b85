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
from typing import Any, List, Sequence, Tuple

from repro import obs
from repro.obs import trace
from repro.crypto.cache import note_key_epoch
from repro.crypto.keys import KeyRing, generate_keyring
from repro.lppa.bids_advanced import BidScale
from repro.lppa.bids_basic import decrypt_bid_value, decrypt_bid_values
from repro.lppa.bids_ope import OpeBid, ope_encoder_for
from repro.prefix.membership import mask_value

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
        return self._charge(
            channel, masked_bid, decrypt_bid_value(self._keyring.gc, masked_bid.ciphertext)
        )

    def process_batch(
        self, requests: Sequence[Tuple[int, Any]]
    ) -> List[ChargeDecision]:
        """Batched charging: one TTP online period serves many winners.

        Every winner's ciphertext is decrypted in one keystream call; each
        is then charged exactly as :meth:`process_charge` would.
        """
        obs.count("ttp.batches")
        with obs.timer("ttp.batch"):
            expanded = decrypt_bid_values(
                self._keyring.gc, [masked_bid.ciphertext for _, masked_bid in requests]
            )
            return [
                self._charge(channel, masked_bid, value)
                for (channel, masked_bid), value in zip(requests, expanded)
            ]

    def _charge(self, channel: int, masked_bid: Any, expanded: int) -> ChargeDecision:
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
        decision = self._decide(channel, masked_bid, expanded)
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

    def _decide(self, channel: int, masked_bid: Any, expanded: int) -> ChargeDecision:
        if expanded > self._scale.emax:
            return ChargeDecision(status=ChargeStatus.CHEATING, charge=0)
        offset_value = self._scale.contract(expanded)
        if self._scale.is_zero_marker(offset_value):
            return ChargeDecision(status=ChargeStatus.INVALID_ZERO, charge=0)
        # Verify the bidder ranked the same value it sealed for us.  PPBS:
        # recompute the masked family; Bloom: re-encrypt under the
        # channel's OPE key.  A mismatch means one price went to the
        # auctioneer and another to the TTP.
        key = self._keyring.channel_key(channel)
        if isinstance(masked_bid, OpeBid):
            encoder = ope_encoder_for(key, self._scale)
            honest = encoder.encrypt(expanded) == masked_bid.ope_value
        else:
            expected_family = mask_value(
                key, expanded, self._scale.width, domain=_BID_DOMAIN
            )
            honest = expected_family.digests == masked_bid.family.digests
        if not honest:
            return ChargeDecision(status=ChargeStatus.CHEATING, charge=0)
        return ChargeDecision(
            status=ChargeStatus.VALID, charge=offset_value - self._scale.rd
        )
