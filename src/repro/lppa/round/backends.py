"""Value backends: what the numbers in a round *are*.

The round core (:mod:`repro.lppa.round.core`) fixes the phase pipeline;
a :class:`ValueBackend` decides how each phase manipulates values:

* :class:`CryptoBackend` — the actual protocol objects of one privacy
  scheme (:class:`~repro.lppa.schemes.base.PrivacyScheme`): its location
  and bid submissions, the conflict graph, rankings and allocation of the
  keyless :mod:`repro.lppa.auctioneer` steps, TTP decryption for charging,
  and exact wire/framed byte accounting.  One instance per scheme
  (``scheme.backend``) runs every scheme's round.  Produces
  :class:`~repro.lppa.round.results.LppaResult`.
* :class:`PlainBackend` — the order-isomorphic integer pipeline: the same
  :func:`~repro.lppa.bids_advanced.disguise_and_expand` values without the
  masking plumbing, allocated by the same
  :func:`~repro.lppa.auctioneer.allocate`, plus the simulator-only
  extensions (second pricing, allocation-time revalidation).  Produces
  :class:`~repro.lppa.round.results.FastLppaResult`.

Backends hold no per-round data — it all lives on the
:class:`~repro.lppa.round.state.RoundState` — so each scheme's crypto
backend and the module-level :data:`PLAIN_BACKEND` singleton are shared by
every wrapper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.auction.conflict import build_conflict_graph
from repro.auction.outcome import AuctionOutcome
from repro.auction.pricing import charge_wins
from repro.auction.table import rank_values
from repro.lppa import auctioneer
from repro.lppa.bids_advanced import (
    BidScale,
    SubmissionDisclosure,
    disguise_and_expand,
)
from repro.lppa.round.results import FastLppaResult, LppaResult
from repro.lppa.round.state import RoundState
from repro.lppa.ttp import TrustedThirdParty

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lppa.schemes.base import PrivacyScheme

__all__ = [
    "PLAIN_BACKEND",
    "CryptoBackend",
    "PlainBackend",
    "ValueBackend",
]

#: (event name, visibility, fields) triples emitted as trace ``meta`` records.
TraceMeta = Tuple[str, str, Dict[str, Any]]


class ValueBackend(ABC):
    """One phase pipeline, two value representations (crypto vs plain)."""

    #: Human-readable backend identifier (appears in docs and tests).
    name: str = "abstract"

    @abstractmethod
    def setup(self, state: RoundState) -> None:
        """Fill in the round's setup material (TTP keys / bid scale)."""

    @abstractmethod
    def setup_trace(self, state: RoundState) -> Sequence[TraceMeta]:
        """The trace ``meta`` records announcing this round."""

    @abstractmethod
    def make_locations(self, state: RoundState) -> None:
        """In-process bidder side of the location phase (driver-invoked)."""

    @abstractmethod
    def ingest_locations(self, state: RoundState) -> None:
        """Auctioneer side: turn location material into a conflict graph."""

    @abstractmethod
    def make_bids(self, state: RoundState) -> None:
        """In-process bidder side of the bid phase (driver-invoked)."""

    @abstractmethod
    def ingest_bids(self, state: RoundState) -> None:
        """Auctioneer side: accept the round's bid material."""

    @abstractmethod
    def allocate(self, state: RoundState) -> None:
        """PSD allocation: rankings plus Algorithm 3 over their table."""

    @abstractmethod
    def charge_request(self, state: RoundState) -> Optional[List[Any]]:
        """Winner material for the TTP, or ``None`` when charging is local."""

    @abstractmethod
    def finish_charges(
        self, state: RoundState, decisions: Optional[Sequence[Any]]
    ) -> None:
        """Fold charge decisions into the round outcome."""

    @abstractmethod
    def finalize(self, state: RoundState) -> None:
        """Assemble ``state.result`` and the round-end trace arguments."""


class CryptoBackend(ValueBackend):
    """The full protocol over one scheme's masked material: submissions,
    conflict graph, rankings, TTP charging."""

    name = "crypto"

    def __init__(self, scheme: "PrivacyScheme") -> None:
        self.scheme = scheme

    def setup(self, state: RoundState) -> None:
        # The net server performs TTP setup once at construction and
        # prefills the state; per-round setup happens for in-process runs.
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
        assert scale is not None and state.grid is not None
        announced = self.scheme.announcement_fields()
        return (
            # rd/cr/width are hidden from the auctioneer (only bidders and
            # the TTP hold them); the announcement is what everyone sees.
            (
                "protocol_setup",
                "ttp",
                {
                    **announced,
                    "n_users": state.n_users,
                    "n_channels": state.n_channels,
                    "bmax": state.bmax,
                    "rd": state.rd,
                    "cr": state.cr,
                    "width": scale.width,
                    "emax": scale.emax,
                    "two_lambda": state.two_lambda,
                    **self.scheme.protocol_setup_fields(
                        state.keyring, scale, state.two_lambda
                    ),
                },
            ),
            (
                "auction_announcement",
                "public",
                {
                    **announced,
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
        state.location_subs = self.scheme.submit_locations(
            [user.cell for user in state.users],
            state.keyring.g0,
            state.grid,
            state.two_lambda,
        )

    def ingest_locations(self, state: RoundState) -> None:
        assert state.location_subs is not None
        # The conflict-graph timer isolates the auctioneer-side graph build
        # from the bidder-side masking that shares this phase.
        with obs.timer("lppa.conflict_graph"):
            state.conflict = auctioneer.conflict_graph(
                self.scheme, state.location_subs
            )
        state.location_bytes = sum(s.wire_bytes() for s in state.location_subs)

    def make_bids(self, state: RoundState) -> None:
        assert state.users is not None and state.user_rngs is not None
        assert state.keyring is not None and state.scale is not None
        assert state.policies is not None
        state.bid_subs, disclosures = self.scheme.submit_bids(
            [user.bids for user in state.users],
            state.keyring,
            state.scale,
            state.user_rngs,
            policies=state.policies,
        )
        state.disclosures.extend(disclosures)

    def ingest_bids(self, state: RoundState) -> None:
        assert state.bid_subs is not None
        auctioneer.check_bid_submissions(state.bid_subs, state.n_channels)
        state.bid_bytes = sum(s.wire_bytes() for s in state.bid_subs)

    def allocate(self, state: RoundState) -> None:
        assert state.bid_subs is not None and state.conflict is not None
        assert state.alloc_rng is not None
        # The scheme ranks the submissions here, so the ranking time falls
        # in the PSD allocation phase.
        state.rankings = auctioneer.channel_rankings(self.scheme, state.bid_subs)
        state.assignments = auctioneer.allocate(
            state.rankings, len(state.bid_subs), state.conflict, state.alloc_rng
        )

    def charge_request(self, state: RoundState) -> Optional[List[Any]]:
        assert state.assignments is not None and state.bid_subs is not None
        return auctioneer.charge_material(state.assignments, state.bid_subs)

    def finish_charges(
        self, state: RoundState, decisions: Optional[Sequence[Any]]
    ) -> None:
        assert state.assignments is not None and decisions is not None
        assert state.bid_subs is not None
        state.outcome = auctioneer.assemble_outcome(
            state.assignments, decisions, n_users=len(state.bid_subs)
        )

    def finalize(self, state: RoundState) -> None:
        assert state.location_subs is not None and state.bid_subs is not None
        assert state.outcome is not None
        assert state.location_bytes is not None and state.bid_bytes is not None
        # Exact serialized sizes without encoding: the payloads summed at
        # ingest plus each message's fixed framing (wire_size() = payload +
        # framing is pinned to len(encode_*()) by the test suite, and the
        # message constructors enforce the codec's field bounds).  Every
        # size is the one the submission stored when it was made.
        framed = (
            state.location_bytes
            + state.bid_bytes
            + sum(s.framing_bytes() for s in state.location_subs)
            + sum(s.framing_bytes() for s in state.bid_subs)
        )
        state.framed_bytes = framed
        obs.count("lppa.framed_bytes", framed)
        obs.count("lppa.rounds")
        assert state.conflict is not None and state.rankings is not None
        state.result = LppaResult(
            outcome=state.outcome,
            conflict_graph=state.conflict,
            rankings=state.rankings,
            disclosures=state.disclosure_tuple(),
            location_bytes=state.location_bytes,
            bid_bytes=state.bid_bytes,
            masked_set_bytes=sum(s.material_bytes() for s in state.bid_subs),
            framed_bytes=framed,
        )
        state.round_end_args = {
            "winners": len(state.outcome.wins),
            "framed_bytes": framed,
            "payload_bytes": state.location_bytes + state.bid_bytes,
        }


class PlainBackend(ValueBackend):
    """The integer pipeline: same values, no masking plumbing."""

    name = "plain"

    def setup(self, state: RoundState) -> None:
        if state.scale is None:
            state.scale = BidScale(bmax=state.bmax, rd=state.rd, cr=state.cr)

    def setup_trace(self, state: RoundState) -> Sequence[TraceMeta]:
        return (
            (
                "auction_announcement",
                "public",
                {
                    "n_users": state.n_users,
                    "n_channels": state.n_channels,
                    "bmax": state.bmax,
                    "two_lambda": state.two_lambda,
                    "fastsim": True,
                },
            ),
        )

    def make_locations(self, state: RoundState) -> None:
        """Nothing to synthesize: the plain path reads cells directly."""

    def ingest_locations(self, state: RoundState) -> None:
        if state.conflict is None:
            assert state.users is not None
            with obs.timer("lppa.conflict_graph"):
                state.conflict = build_conflict_graph(
                    [u.cell for u in state.users], state.two_lambda
                )

    def make_bids(self, state: RoundState) -> None:
        assert state.users is not None and state.user_rngs is not None
        assert state.scale is not None and state.policies is not None
        state.disclosures = [
            SubmissionDisclosure(
                user_id=idx,
                channels=tuple(
                    disguise_and_expand(
                        user.bids,
                        state.scale,
                        state.user_rngs[idx],
                        policy=state.policies[idx],
                    )
                ),
            )
            for idx, user in enumerate(state.users)
        ]

    def ingest_bids(self, state: RoundState) -> None:
        """The rankings are made in :meth:`allocate`, so their cost lands
        in the ``psd_allocation`` phase, like the masked rankings'."""

    def allocate(self, state: RoundState) -> None:
        assert state.conflict is not None and state.alloc_rng is not None
        disclosures = state.disclosures
        state.rankings = [
            rank_values(
                {bidder: d.channels[ch].masked_expanded for bidder, d in enumerate(disclosures)}
            )
            for ch in range(state.n_channels)
        ]
        tr = state.tr
        if tr is not None:
            for channel, classes in enumerate(state.rankings):
                tr.ranking(channel, classes)

        def ttp_accepts(bidder: int, channel: int) -> bool:
            if state.true_bid(bidder, channel) > 0:
                return True
            state.ttp_rejections += 1
            return False

        # §V.B extension: with ``revalidate`` the TTP's invalid-winner
        # notifications feed back into the allocation loop, which retries
        # the channel.
        state.assignments = auctioneer.allocate(
            state.rankings,
            len(disclosures),
            state.conflict,
            state.alloc_rng,
            ttp_accepts if state.revalidate else None,
        )

    def charge_request(self, state: RoundState) -> Optional[List[Any]]:
        return None  # charging needs no TTP exchange at integer level

    def finish_charges(
        self, state: RoundState, decisions: Optional[Sequence[Any]]
    ) -> None:
        # Charging follows the TTP's rules: a winner whose *true* offset
        # value lies in the zero band [0, rd] is invalid, pays nothing and
        # does not count as satisfied.
        assert state.assignments is not None and state.rankings is not None
        assert state.conflict is not None
        wins = charge_wins(
            state.assignments,
            state.true_bid,
            pricing=state.pricing,
            rankings=state.rankings,
            conflict=state.conflict,
        )
        obs.count("lppa.winners", len(wins))
        assert state.users is not None
        state.outcome = AuctionOutcome(n_users=len(state.users), wins=wins)

    def finalize(self, state: RoundState) -> None:
        obs.count("lppa.fast_rounds")
        assert state.outcome is not None and state.conflict is not None
        assert state.rankings is not None
        state.result = FastLppaResult(
            outcome=state.outcome,
            conflict_graph=state.conflict,
            rankings=state.rankings,
            disclosures=state.disclosure_tuple(),
            ttp_rejections=state.ttp_rejections,
        )
        state.round_end_args = {"winners": len(state.outcome.wins)}


#: Shared stateless singleton — every fastsim round runs through it.
PLAIN_BACKEND = PlainBackend()
