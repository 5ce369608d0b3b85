"""The ``PrivacyScheme`` seam: what varies between privacy protocols.

The round core fixes *when* things happen (phase pipeline) and the value
backends fix *what the values are* inside one protocol; a
:class:`PrivacyScheme` bundles everything that distinguishes one complete
privacy protocol from another, end to end:

* the **wire message types** and their payload codecs (each scheme's
  payloads carry a distinct leading tag byte, so a strict decoder for one
  scheme rejects another scheme's bytes as malformed);
* the **bidder-side submission encoders** (how a cell and a bid vector
  become privacy-preserving material);
* the **value backend** driving the in-process round core, including the
  conflict-membership test the auctioneer runs over location submissions;
* the **auditor hooks** the trace auditors use to re-derive framing and
  the scheme's exact bid-material size model (Theorem 4 for PPBS, the OPE
  ciphertext-width model for the Bloom scheme).

Schemes are registered by name (:mod:`repro.lppa.schemes.registry`) and
selected via ``--scheme`` / ``$REPRO_SCHEME`` through the session wrapper,
fastsim, the net server/client and the CLI.  The default scheme is always
``ppbs`` — the paper's protocol — and selecting it is bit-identical to the
pre-seam code path.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.geo.grid import Cell, GridSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.keys import KeyRing
    from repro.lppa.bids_advanced import BidScale, SubmissionDisclosure
    from repro.lppa.policies import ZeroDisguisePolicy
    from repro.lppa.round.backends import ValueBackend

__all__ = ["PrivacyScheme"]


class PrivacyScheme(ABC):
    """One complete location-privacy auction protocol, pluggable by name."""

    #: Registry name (also the ``--scheme`` / ``$REPRO_SCHEME`` spelling).
    name: str = "abstract"

    #: Leading payload tag of this scheme's location submissions.
    location_tag: bytes = b""

    #: Leading payload tag of this scheme's bid submissions.
    bid_tag: bytes = b""

    # -- the round core plug point ------------------------------------------

    @property
    @abstractmethod
    def backend(self) -> "ValueBackend":
        """The value backend the in-process round core runs with."""

    # -- bidder side ---------------------------------------------------------

    @abstractmethod
    def make_location(
        self,
        user_id: int,
        cell: Cell,
        keyring: "KeyRing",
        grid: GridSpec,
        two_lambda: int,
    ) -> Any:
        """Mask one SU's location into this scheme's wire message."""

    @abstractmethod
    def make_bids(
        self,
        user_id: int,
        bids: Any,
        keyring: "KeyRing",
        scale: "BidScale",
        rng: random.Random,
        *,
        policy: Optional["ZeroDisguisePolicy"] = None,
    ) -> Tuple[Any, "SubmissionDisclosure"]:
        """Seal one SU's bid vector; returns (wire message, disclosure)."""

    # -- payload codecs (scheme-tagged, strict) ------------------------------

    @abstractmethod
    def encode_location(self, submission: Any) -> bytes:
        """Serialize a location submission (payload of a LOCATION frame)."""

    @abstractmethod
    def decode_location(self, data: bytes) -> Any:
        """Strict inverse of :meth:`encode_location`; raises
        :class:`repro.lppa.codec.CodecError` on malformed bytes."""

    @abstractmethod
    def encode_bids(self, submission: Any) -> bytes:
        """Serialize a bid submission (payload of a BIDS frame)."""

    @abstractmethod
    def decode_bids(self, data: bytes) -> Any:
        """Strict inverse of :meth:`encode_bids`."""

    # -- announcement --------------------------------------------------------

    def announcement_fields(self) -> Dict[str, Any]:
        """Extra keys the auction announcement (WELCOME) carries.

        The default scheme contributes nothing, which keeps the default
        announcement — and the trace correlation key derived from it —
        byte-identical to the pre-seam protocol.
        """
        return {"scheme": self.name} if self.name != "ppbs" else {}

    # -- auditor hooks -------------------------------------------------------

    @abstractmethod
    def expected_framing(self, kind: str, record: Dict[str, Any]) -> Optional[int]:
        """Framing bytes (wire size minus payload) of one recorded message.

        ``kind`` is the trace message kind (``location_submission``,
        ``bid_submission``, ``charge_request``, ``charge_decision``);
        ``record`` the trace event.  ``None`` means the scheme makes no
        framing claim for this kind (the auditor then skips the check).
        """

    @abstractmethod
    def audit_bid_round(
        self,
        round_idx: int,
        bid_msgs: Any,
        setup_args: Dict[str, Any],
    ) -> Tuple[Optional[Dict[str, Any]], Tuple[str, ...]]:
        """Check one round's recorded bid submissions against the scheme's
        exact size model (Theorem 4 for PPBS; the fixed OPE ciphertext
        width for the Bloom scheme).

        Returns ``(fields, errors)`` where ``fields`` carries the
        per-round audit numbers (``n_users``, ``n_channels``, ``width``,
        ``digest_bytes``, ``predicted_bits``, ``measured_masked_bits``)
        or ``None`` when the round cannot be audited, and ``errors`` the
        divergence strings.  The trace auditor
        (:func:`repro.analysis.trace_audit.audit_comm_cost`) supplies the
        byte totals and wraps the fields into its report rows.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PrivacyScheme {self.name}>"
