"""The ``PrivacyScheme`` seam: what varies between privacy protocols.

The round core fixes *when* things happen (phase pipeline) and one crypto
value backend (:class:`~repro.lppa.round.backends.CryptoBackend`) runs the
paper's round for every scheme: locations become a conflict graph, bids
become a per-channel ranking, Algorithm 3 allocates and the TTP charges
the winners.  A :class:`PrivacyScheme` supplies the material inside each
phase, end to end:

* the **wire message types** and their payload codecs (each scheme's
  payloads carry a distinct leading tag byte, so a strict decoder for one
  scheme rejects another scheme's bytes as malformed);
* the **bidder-side submission encoders** (how a cell and a bid vector
  become privacy-preserving material), one SU at a time and as the
  population batches an in-process round submits;
* the **round hooks** the backend and the keyless
  :mod:`repro.lppa.auctioneer` steps call: the conflict-membership
  test over location submissions, the per-channel rankings the auctioneer
  allocates over, the ranking view the trace records and any extra
  ``protocol_setup`` fields;
* the **auditor hooks** the trace auditors use to re-derive framing and
  the scheme's exact bid-material size model (Theorem 4 for PPBS, the OPE
  ciphertext-width model for the Bloom scheme).

Every scheme's submission types share one size contract: ``user_id``,
``channel_bids`` (bids only), ``wire_bytes()`` (payload),
``framing_bytes()``, ``wire_size()`` (their sum, the encoded length),
``material_bytes()`` (bids only: the ranked material the size model
covers) and ``trace_fields()``.  A submission adds its sizes up once, when
it is made, so reading them walks no bid.

Schemes are registered by name (:mod:`repro.lppa.schemes.registry`) and
selected via ``--scheme`` / ``$REPRO_SCHEME`` through the session wrapper,
fastsim, the net server/client and the CLI.  The default scheme is always
``ppbs`` — the paper's protocol — and selecting it is bit-identical to the
pre-seam code path.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.auction.conflict import ConflictGraph
from repro.auction.table import Ranking
from repro.geo.grid import Cell, GridSpec
from repro.lppa.round.backends import CryptoBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.keys import KeyRing
    from repro.lppa.bids_advanced import BidScale, SubmissionDisclosure
    from repro.lppa.policies import ZeroDisguisePolicy
    from repro.obs.trace import TraceRecorder

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

    @cached_property
    def backend(self) -> CryptoBackend:
        """The crypto value backend bound to this scheme (one per scheme)."""
        return CryptoBackend(self)

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

    @abstractmethod
    def submit_locations(
        self, cells: Sequence[Cell], g0: bytes, grid: GridSpec, two_lambda: int
    ) -> List[Any]:
        """The population's location submissions, cell ``i`` as user ``i``."""

    def submit_bids(
        self,
        bids: Sequence[Any],
        keyring: "KeyRing",
        scale: "BidScale",
        rngs: Sequence[random.Random],
        *,
        policies: Sequence[Optional["ZeroDisguisePolicy"]],
    ) -> Tuple[List[Any], List["SubmissionDisclosure"]]:
        """The population's bid submissions and disclosures, SU ``i`` as
        user ``i`` with ``rngs[i]`` and ``policies[i]``.

        The default seals one SU at a time through :meth:`make_bids`.
        """
        subs: List[Any] = []
        disclosures: List["SubmissionDisclosure"] = []
        for idx, row in enumerate(bids):
            sub, disclosure = self.make_bids(
                idx, row, keyring, scale, rngs[idx], policy=policies[idx]
            )
            subs.append(sub)
            disclosures.append(disclosure)
        return subs, disclosures

    # -- auctioneer side ------------------------------------------------------

    @abstractmethod
    def build_conflict_graph(self, location_subs: Sequence[Any]) -> ConflictGraph:
        """The conflict graph over dense location submissions."""

    @abstractmethod
    def rankings(self, bid_subs: Sequence[Any]) -> List[Ranking]:
        """Each channel's ranking over dense bid submissions: the order the
        auctioneer sees, and the :class:`~repro.auction.table.RankedTable`
        Algorithm 3 runs on."""

    def trace_ranking(
        self,
        tr: "TraceRecorder",
        channel: int,
        classes: List[List[int]],
        bid_subs: Sequence[Any],
    ) -> None:
        """Record what the auctioneer learns from one channel's ranking."""
        tr.ranking(channel, classes)

    def protocol_setup_fields(
        self, keyring: "KeyRing", scale: "BidScale", two_lambda: int
    ) -> Dict[str, Any]:
        """Extra ``protocol_setup`` trace fields (the TTP-side parameters a
        scheme's auditor needs); none by default."""
        return {}

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
