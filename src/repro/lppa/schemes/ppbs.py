"""PPBS — the paper's protocol, packaged as a :class:`PrivacyScheme`.

This is a *pure re-seam*: every method delegates to the exact functions
the pre-scheme code path called (`submit_location`, `submit_bids_advanced`,
their population batches, the strict codec in :mod:`repro.lppa.codec`, the
masked conflict index and :func:`~repro.lppa.psd.masked_rankings`), so
selecting ``ppbs`` — the default — is bit-identical to the historical
pipeline.  The differential suite in ``tests/schemes`` pins that claim
against goldens captured from the pre-refactor tree.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.comm_cost import predicted_bid_bits
from repro.auction.conflict import ConflictGraph
from repro.auction.table import Ranking
from repro.geo.grid import Cell, GridSpec
from repro.lppa import codec
from repro.lppa.bids_advanced import (
    BidScale,
    SubmissionDisclosure,
    submit_bids_advanced,
    submit_population_bids,
)
from repro.lppa.location import (
    build_private_conflict_graph,
    submit_location,
    submit_locations,
)
from repro.lppa.messages import BidSubmission, LocationSubmission
from repro.lppa.policies import ZeroDisguisePolicy
from repro.lppa.psd import masked_rankings
from repro.lppa.schemes.base import PrivacyScheme

__all__ = ["PpbsScheme"]

# Framing (wire size minus payload) per message kind — the same arithmetic
# repro.lppa.messages/codec encode: tag + four set headers for a location;
# tag + channel count, plus two set headers + a ciphertext length per
# channel, for bids; two set headers + ciphertext length for the masked
# bid inside a charge request; none for the fixed-size charge decision.
_LOCATION_FRAMING = 1 + 4 * 3
_BID_FRAMING_BASE = 1 + 2
_BID_FRAMING_PER_CHANNEL = 2 * 3 + 2
_CHARGE_REQUEST_FRAMING = 2 * 3 + 2
_CHARGE_DECISION_FRAMING = 0


class PpbsScheme(PrivacyScheme):
    """Prefix-membership masking end to end (sections IV-V of the paper)."""

    name = "ppbs"
    location_tag = b"L"
    bid_tag = b"B"

    # -- bidder side ---------------------------------------------------------

    def make_location(
        self,
        user_id: int,
        cell: Cell,
        keyring: Any,
        grid: GridSpec,
        two_lambda: int,
    ) -> LocationSubmission:
        return submit_location(user_id, cell, keyring.g0, grid, two_lambda)

    def make_bids(
        self,
        user_id: int,
        bids: Any,
        keyring: Any,
        scale: BidScale,
        rng: random.Random,
        *,
        policy: Optional[ZeroDisguisePolicy] = None,
    ) -> Tuple[BidSubmission, SubmissionDisclosure]:
        return submit_bids_advanced(
            user_id, bids, keyring, scale, rng, policy=policy
        )

    def submit_locations(
        self, cells: Sequence[Cell], g0: bytes, grid: GridSpec, two_lambda: int
    ) -> List[LocationSubmission]:
        # All SUs share g0, so the whole population's location masking is
        # one batch (digest-identical to the per-user submit_location loop).
        return submit_locations(cells, g0, grid, two_lambda)

    def submit_bids(
        self,
        bids: Sequence[Any],
        keyring: Any,
        scale: BidScale,
        rngs: Sequence[random.Random],
        *,
        policies: Sequence[Optional[ZeroDisguisePolicy]],
    ) -> Tuple[List[BidSubmission], List[SubmissionDisclosure]]:
        # One population batch: one mask_specs call and one keystream call
        # for every SU, each SU's draws still from its own RNG in order.
        return submit_population_bids(bids, keyring, scale, rngs, policies=policies)

    # -- auctioneer side -----------------------------------------------------

    def build_conflict_graph(
        self, location_subs: Sequence[LocationSubmission]
    ) -> ConflictGraph:
        return build_private_conflict_graph(location_subs)

    def rankings(self, bid_subs: Sequence[BidSubmission]) -> List[Ranking]:
        return masked_rankings(bid_subs)

    # -- payload codecs ------------------------------------------------------

    def encode_location(self, submission: LocationSubmission) -> bytes:
        return codec.encode_location(submission)

    def decode_location(self, data: bytes) -> LocationSubmission:
        return codec.decode_location(data)

    def encode_bids(self, submission: BidSubmission) -> bytes:
        return codec.encode_bids(submission)

    def decode_bids(self, data: bytes) -> BidSubmission:
        return codec.decode_bids(data)

    # -- auditor hooks -------------------------------------------------------

    def expected_framing(self, kind: str, record: Dict[str, Any]) -> Optional[int]:
        if kind == "location_submission":
            return _LOCATION_FRAMING
        if kind == "bid_submission":
            return _BID_FRAMING_BASE + _BID_FRAMING_PER_CHANNEL * int(
                record.get("n_channels") or 0
            )
        if kind == "charge_request":
            return _CHARGE_REQUEST_FRAMING
        return _CHARGE_DECISION_FRAMING

    def audit_bid_round(
        self,
        round_idx: int,
        bid_msgs: Any,
        setup_args: Dict[str, Any],
    ) -> Tuple[Optional[Dict[str, Any]], Tuple[str, ...]]:
        errors: List[str] = []
        width = int(setup_args["width"])
        n_channels = int(setup_args["n_channels"])
        digest_values = {int(m.get("digest_bytes") or 0) for m in bid_msgs}
        if len(digest_values) != 1:
            errors.append(
                f"round {round_idx}: inconsistent digest_bytes across bid "
                f"submissions: {sorted(digest_values)}"
            )
            return None, tuple(errors)
        digest_bytes = digest_values.pop()
        measured_bits = sum(int(m.get("masked_set_bytes") or 0) for m in bid_msgs) * 8
        predicted = predicted_bid_bits(len(bid_msgs), n_channels, width, digest_bytes)

        # Per-message exactness first: every submission is deterministically
        # padded to (3w - 1) digests per channel, so each must match alone.
        per_user = predicted / len(bid_msgs)
        for msg in bid_msgs:
            got = int(msg.get("masked_set_bytes") or 0) * 8
            if got != per_user:
                errors.append(
                    f"round {round_idx}: su={msg.get('su')} masked material "
                    f"{got} bits != Theorem 4 per-user {per_user} bits"
                )
        if measured_bits != predicted:
            errors.append(
                f"round {round_idx}: measured masked bits {measured_bits} != "
                f"Theorem 4 prediction {predicted} "
                f"(N={len(bid_msgs)}, k={n_channels}, w={width}, "
                f"digest_bytes={digest_bytes})"
            )
        fields = {
            "n_users": len(bid_msgs),
            "n_channels": n_channels,
            "width": width,
            "digest_bytes": digest_bytes,
            "predicted_bits": predicted,
            "measured_masked_bits": measured_bits,
        }
        return fields, tuple(errors)
