"""The Bloom scheme: Bloom-filter locations + OPE-ranked bids.

A second complete privacy protocol behind the :class:`PrivacyScheme` seam,
after the Bloom-filter location-privacy line of work (Grissa et al.; see
PAPERS.md):

* **Location phase** — each SU submits a keyed token for its own cell plus
  a Bloom filter over its interference box
  (:mod:`repro.lppa.location_bloom`); the auctioneer's conflict test is one
  filter-membership query per ordered pair instead of PPBS's two
  set-intersections.
* **Bid phase** — each channel bid is the pair (order-preserving encryption
  of the expanded bid, TTP ciphertext) (:mod:`repro.lppa.bids_ope`); the
  auctioneer ranks OPE values directly, no pairwise ``>=`` protocol.
* **Charging** — the TTP decrypts the usual ``gc`` ciphertext and verifies
  consistency by re-encrypting under the channel's OPE key
  (:meth:`repro.lppa.ttp.TrustedThirdParty._decide`).

The round itself is the shared crypto backend and the keyless
:mod:`repro.lppa.auctioneer` steps; this module supplies only the
scheme hooks (submissions, conflict test, OPE rankings, the ``ope_column``
trace view and the size-model fields of ``protocol_setup``).

Because both schemes run the shared
:func:`~repro.lppa.bids_advanced.disguise_and_expand` numeric pipeline on
the same per-bidder rng (before any scheme-specific draws) and OPE is
strictly monotone, the Bloom scheme reproduces PPBS's rankings,
allocations, charges and conflict graph on identical entropy — only the
wire format, crypto-op mix and adversary view differ.  That is exactly
what ``repro compare`` measures.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.auction.conflict import ConflictGraph
from repro.auction.table import Ranking, rank_values
from repro.geo.grid import Cell, GridSpec
from repro.lppa.bids_advanced import BidScale, SubmissionDisclosure
from repro.lppa.bids_ope import (
    OPE_BID_FRAMING,
    OPE_BID_TAG,
    OpeBidSubmission,
    SUBMISSION_FRAMING_BASE,
    decode_bids_ope,
    encode_bids_ope,
    ope_encoder_for,
    submit_bids_ope,
)
from repro.lppa.location_bloom import (
    BLOOM_LOCATION_TAG,
    BloomLocationSubmission,
    LOCATION_FRAMING,
    bloom_params,
    build_bloom_conflict_graph,
    decode_location_bloom,
    encode_location_bloom,
    submit_location_bloom,
    submit_locations_bloom,
)
from repro.lppa.policies import ZeroDisguisePolicy
from repro.lppa.schemes.base import PrivacyScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceRecorder

__all__ = ["BloomScheme"]


class BloomScheme(PrivacyScheme):
    """Bloom-filter locations + OPE bids, end to end."""

    name = "bloom"
    location_tag = BLOOM_LOCATION_TAG
    bid_tag = OPE_BID_TAG

    # -- bidder side ---------------------------------------------------------

    def make_location(
        self,
        user_id: int,
        cell: Cell,
        keyring: Any,
        grid: GridSpec,
        two_lambda: int,
    ) -> BloomLocationSubmission:
        return submit_location_bloom(user_id, cell, keyring.g0, grid, two_lambda)

    def make_bids(
        self,
        user_id: int,
        bids: Any,
        keyring: Any,
        scale: BidScale,
        rng: random.Random,
        *,
        policy: Optional[ZeroDisguisePolicy] = None,
    ) -> Tuple[OpeBidSubmission, SubmissionDisclosure]:
        return submit_bids_ope(user_id, bids, keyring, scale, rng, policy=policy)

    def submit_locations(
        self, cells: Sequence[Cell], g0: bytes, grid: GridSpec, two_lambda: int
    ) -> List[BloomLocationSubmission]:
        return submit_locations_bloom(cells, g0, grid, two_lambda)

    # -- auctioneer side -----------------------------------------------------

    def build_conflict_graph(
        self, location_subs: Sequence[BloomLocationSubmission]
    ) -> ConflictGraph:
        return build_bloom_conflict_graph(location_subs)

    def rankings(self, bid_subs: Sequence[OpeBidSubmission]) -> List[Ranking]:
        # OPE values rank exactly like the masked sets (OPE is strictly
        # monotone over the shared expanded values), so their rankings plus
        # the same greedy allocator reproduce the PPBS allocation.
        return [
            rank_values(
                {bidder: sub.channel_bids[ch].ope_value for bidder, sub in enumerate(bid_subs)}
            )
            for ch in range(bid_subs[0].n_channels)
        ]

    def trace_ranking(
        self,
        tr: "TraceRecorder",
        channel: int,
        classes: List[List[int]],
        bid_subs: Sequence[OpeBidSubmission],
    ) -> None:
        tr.ranking(channel, classes)
        # The curious auctioneer sees the raw OPE column, not just its
        # order — record it for the adversary-replay attacks.
        tr.instant(
            "ope_column",
            vis="auctioneer",
            channel=channel,
            values=[sub.channel_bids[channel].ope_value for sub in bid_subs],
        )

    def protocol_setup_fields(
        self, keyring: Any, scale: BidScale, two_lambda: int
    ) -> Dict[str, Any]:
        _, n_bits, n_hashes = bloom_params(two_lambda)
        # Per-channel OPE ciphertext widths are deterministic in the keys —
        # the Bloom analogue of Theorem 4's size model; the trace auditor
        # checks every recorded submission against them.
        return {
            "filter_bits": n_bits,
            "filter_hashes": n_hashes,
            "ope_bytes": [
                ope_encoder_for(keyring.channel_key(r), scale).ciphertext_bytes
                for r in range(keyring.n_channels)
            ],
        }

    # -- payload codecs ------------------------------------------------------

    def encode_location(self, submission: BloomLocationSubmission) -> bytes:
        return encode_location_bloom(submission)

    def decode_location(self, data: bytes) -> BloomLocationSubmission:
        return decode_location_bloom(data)

    def encode_bids(self, submission: OpeBidSubmission) -> bytes:
        return encode_bids_ope(submission)

    def decode_bids(self, data: bytes) -> OpeBidSubmission:
        return decode_bids_ope(data)

    # -- auditor hooks -------------------------------------------------------

    def expected_framing(self, kind: str, record: Dict[str, Any]) -> Optional[int]:
        if kind == "location_submission":
            return LOCATION_FRAMING
        if kind == "bid_submission":
            return SUBMISSION_FRAMING_BASE + OPE_BID_FRAMING * int(
                record.get("n_channels") or 0
            )
        if kind == "charge_request":
            return OPE_BID_FRAMING
        return 0

    def audit_bid_round(
        self,
        round_idx: int,
        bid_msgs: Any,
        setup_args: Dict[str, Any],
    ) -> Tuple[Optional[Dict[str, Any]], Tuple[str, ...]]:
        errors: List[str] = []
        width = int(setup_args["width"])
        n_channels = int(setup_args["n_channels"])
        ope_bytes = setup_args.get("ope_bytes")
        if not ope_bytes or len(ope_bytes) != n_channels:
            errors.append(
                f"round {round_idx}: bloom protocol_setup lacks the "
                "per-channel ope_bytes widths — cannot form the size model"
            )
            return None, tuple(errors)
        # The OPE ciphertext width is fixed per channel by the key, so each
        # submission's OPE material is exactly the per-channel sum.
        per_user = 8 * sum(int(b) for b in ope_bytes)
        predicted = float(per_user * len(bid_msgs))
        measured_bits = sum(int(m.get("ope_bytes") or 0) for m in bid_msgs) * 8
        for msg in bid_msgs:
            got = int(msg.get("ope_bytes") or 0) * 8
            if got != per_user:
                errors.append(
                    f"round {round_idx}: su={msg.get('su')} OPE material "
                    f"{got} bits != per-user model {per_user} bits"
                )
        if measured_bits != predicted:
            errors.append(
                f"round {round_idx}: measured OPE bits {measured_bits} != "
                f"size model {predicted} "
                f"(N={len(bid_msgs)}, k={n_channels}, "
                f"ope_bytes={list(ope_bytes)})"
            )
        fields = {
            "n_users": len(bid_msgs),
            "n_channels": n_channels,
            "width": width,
            "digest_bytes": 0,
            "predicted_bits": predicted,
            "measured_masked_bits": measured_bits,
        }
        return fields, tuple(errors)
