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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.auction.allocation import greedy_allocate
from repro.auction.outcome import AuctionOutcome, WinRecord
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
from repro.lppa.round.backends import TraceMeta, ValueBackend
from repro.lppa.round.results import LppaResult
from repro.lppa.round.state import RoundState
from repro.lppa.round.tables import IntegerMaskedTable
from repro.lppa.schemes.base import PrivacyScheme
from repro.lppa.ttp import ChargeStatus, TrustedThirdParty

__all__ = ["BloomBackend", "BloomScheme", "BLOOM_BACKEND"]


class BloomBackend(ValueBackend):
    """The Bloom protocol's value backend."""

    name = "bloom"

    def setup(self, state: RoundState) -> None:
        if state.scale is None:
            state.ttp, state.keyring, state.scale = TrustedThirdParty.setup(
                state.seed,
                state.n_channels,
                bmax=state.bmax,
                rd=state.rd,
                cr=state.cr,
            )

    def setup_trace(self, state: RoundState) -> Sequence[TraceMeta]:
        scale = state.scale
        keyring = state.keyring
        assert scale is not None and keyring is not None
        assert state.grid is not None
        _, n_bits, n_hashes = bloom_params(state.two_lambda)
        # Per-channel OPE ciphertext widths are deterministic in the keys —
        # the Bloom analogue of Theorem 4's size model; the trace auditor
        # checks every recorded submission against them.
        ope_bytes = [
            ope_encoder_for(keyring.channel_key(r), scale).ciphertext_bytes
            for r in range(state.n_channels)
        ]
        return (
            (
                "protocol_setup",
                "ttp",
                {
                    "scheme": self.name,
                    "n_users": state.n_users,
                    "n_channels": state.n_channels,
                    "bmax": state.bmax,
                    "rd": state.rd,
                    "cr": state.cr,
                    "width": scale.width,
                    "emax": scale.emax,
                    "two_lambda": state.two_lambda,
                    "filter_bits": n_bits,
                    "filter_hashes": n_hashes,
                    "ope_bytes": ope_bytes,
                },
            ),
            (
                "auction_announcement",
                "public",
                {
                    "scheme": self.name,
                    "n_users": state.n_users,
                    "n_channels": state.n_channels,
                    "bmax": state.bmax,
                    "two_lambda": state.two_lambda,
                    "grid_rows": state.grid.rows,
                    "grid_cols": state.grid.cols,
                },
            ),
        )

    def make_locations(self, state: RoundState) -> None:
        assert state.users is not None and state.keyring is not None
        assert state.grid is not None
        state.location_subs = submit_locations_bloom(
            [user.cell for user in state.users],
            state.keyring.g0,
            state.grid,
            state.two_lambda,
        )

    def ingest_locations(self, state: RoundState) -> None:
        assert state.location_subs is not None
        with obs.timer("lppa.conflict_graph"):
            state.conflict = build_bloom_conflict_graph(state.location_subs)
        tr = state.tr
        if tr is not None:
            tr.instant(
                "conflict_graph",
                vis="auctioneer",
                n_users=state.conflict.n_users,
                n_edges=state.conflict.n_edges,
            )
        state.location_bytes = sum(s.wire_bytes() for s in state.location_subs)

    def make_bids(self, state: RoundState) -> None:
        assert state.users is not None and state.user_rngs is not None
        assert state.keyring is not None and state.scale is not None
        assert state.policies is not None
        subs = []
        for idx, user in enumerate(state.users):
            submission, disclosure = submit_bids_ope(
                idx,
                user.bids,
                state.keyring,
                state.scale,
                state.user_rngs[idx],
                policy=state.policies[idx],
            )
            subs.append(submission)
            state.disclosures.append(disclosure)
        state.bid_subs = subs

    def ingest_bids(self, state: RoundState) -> None:
        assert state.bid_subs is not None
        for sub in state.bid_subs:
            if len(sub.channel_bids) != state.n_channels:
                raise ValueError(
                    f"submission covers {len(sub.channel_bids)} channels, "
                    f"expected {state.n_channels}"
                )
        state.bid_bytes = sum(s.wire_bytes() for s in state.bid_subs)

    def allocate(self, state: RoundState) -> None:
        assert state.bid_subs is not None and state.conflict is not None
        assert state.alloc_rng is not None
        # OPE values rank exactly like the masked table (OPE is strictly
        # monotone over the shared expanded values), so the integer table
        # plus the same greedy allocator reproduces the PPBS allocation.
        table = IntegerMaskedTable(
            [[bid.ope_value for bid in sub.channel_bids] for sub in state.bid_subs]
        )
        state.table = table
        state.rankings = table.rankings()
        tr = state.tr
        if tr is not None:
            for channel, classes in enumerate(state.rankings):
                tr.ranking(channel, classes)
                # The curious auctioneer sees the raw OPE column, not just
                # its order — record it for the adversary-replay attacks.
                tr.instant(
                    "ope_column",
                    vis="auctioneer",
                    channel=channel,
                    values=[
                        sub.channel_bids[channel].ope_value
                        for sub in state.bid_subs
                    ],
                )
        state.assignments = greedy_allocate(
            table, state.conflict, state.alloc_rng
        )
        if tr is not None:
            for a in state.assignments:
                tr.instant(
                    "assignment",
                    vis="auctioneer",
                    bidder=a.bidder,
                    channel=a.channel,
                )

    def charge_request(self, state: RoundState) -> Optional[List[Any]]:
        assert state.assignments is not None and state.bid_subs is not None
        return [
            (a.channel, state.bid_subs[a.bidder].channel_bids[a.channel])
            for a in state.assignments
        ]

    def finish_charges(
        self, state: RoundState, decisions: Optional[Sequence[Any]]
    ) -> None:
        assert state.assignments is not None and decisions is not None
        assert state.bid_subs is not None
        if len(decisions) != len(state.assignments):
            raise ValueError(
                f"{len(decisions)} decisions for {len(state.assignments)} "
                "assignments"
            )
        wins = []
        for assignment, decision in zip(state.assignments, decisions):
            if decision.status is ChargeStatus.CHEATING:
                raise RuntimeError(
                    f"TTP flagged bidder {assignment.bidder} on channel "
                    f"{assignment.channel} as cheating"
                )
            wins.append(
                WinRecord(
                    bidder=assignment.bidder,
                    channel=assignment.channel,
                    charge=decision.charge,
                    valid=decision.status is ChargeStatus.VALID,
                )
            )
        state.outcome = AuctionOutcome(
            n_users=len(state.bid_subs), wins=tuple(wins)
        )

    def finalize(self, state: RoundState) -> None:
        assert state.location_subs is not None and state.bid_subs is not None
        assert state.outcome is not None
        # Exact encoded sizes from wire_size().
        framed = sum(s.wire_size() for s in state.location_subs) + sum(
            s.wire_size() for s in state.bid_subs
        )
        state.framed_bytes = framed
        obs.count("lppa.framed_bytes", framed)
        obs.count("lppa.rounds")
        assert state.location_bytes is not None and state.bid_bytes is not None
        assert state.conflict is not None and state.rankings is not None
        state.result = LppaResult(
            outcome=state.outcome,
            conflict_graph=state.conflict,
            rankings=state.rankings,
            disclosures=state.disclosure_tuple(),
            location_bytes=state.location_bytes,
            bid_bytes=state.bid_bytes,
            masked_set_bytes=sum(
                s.ope_material_bytes() for s in state.bid_subs
            ),
            framed_bytes=framed,
        )
        state.round_end_args = {
            "winners": len(state.outcome.wins),
            "framed_bytes": framed,
            "payload_bytes": state.location_bytes + state.bid_bytes,
        }


#: Shared stateless singleton, like CRYPTO_BACKEND / PLAIN_BACKEND.
BLOOM_BACKEND = BloomBackend()


class BloomScheme(PrivacyScheme):
    """Bloom-filter locations + OPE bids, end to end."""

    name = "bloom"
    location_tag = BLOOM_LOCATION_TAG
    bid_tag = OPE_BID_TAG

    @property
    def backend(self) -> ValueBackend:
        return BLOOM_BACKEND

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
