"""The (curious-but-honest) auctioneer endpoint.

Everything this class touches is masked: location submissions become a
conflict graph through the privacy scheme's membership test, bid
submissions become the scheme's per-channel rankings (PPBS:
:func:`~repro.lppa.psd.masked_rankings`; Bloom: the OPE values), Algorithm 3
allocates channels over the :class:`~repro.auction.table.RankedTable` they
make, and winners' sealed bids go to the TTP for charging.
The class never imports :class:`~repro.crypto.keys.KeyRing` — it simply has
no key material.

The honest-but-curious part: :meth:`channel_rankings` exposes the bid order
the auctioneer can always reconstruct from the masked sets.  That view is
what :mod:`repro.attacks.against_lppa` consumes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.auction.allocation import Assignment, greedy_allocate
from repro.obs import trace
from repro.auction.conflict import ConflictGraph
from repro.auction.outcome import AuctionOutcome, WinRecord
from repro.auction.table import RankedTable, Ranking
from repro.lppa.ttp import ChargeStatus, TrustedThirdParty

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lppa.schemes.base import PrivacyScheme

__all__ = ["Auctioneer"]


class Auctioneer:
    """Runs one LPPA auction round over one privacy scheme's masked
    submissions."""

    def __init__(self, n_channels: int, scheme: "PrivacyScheme") -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        self._n_channels = n_channels
        self._scheme = scheme
        self._conflict: Optional[ConflictGraph] = None
        self._bids: Sequence[Any] = ()
        self._rankings: Optional[List[Ranking]] = None
        self._assignments: Optional[List[Assignment]] = None
        self._charge_material: List[Tuple[int, Any]] = []

    @property
    def n_channels(self) -> int:
        return self._n_channels

    @property
    def conflict_graph(self) -> ConflictGraph:
        if self._conflict is None:
            raise RuntimeError("location submissions not received yet")
        return self._conflict

    @property
    def assignments(self) -> List[Assignment]:
        if self._assignments is None:
            raise RuntimeError("allocation has not been run yet")
        return list(self._assignments)

    def receive_locations(self, submissions: Sequence[Any]) -> ConflictGraph:
        """Location phase: masked membership tests -> conflict graph."""
        self._conflict = self._scheme.build_conflict_graph(submissions)
        tr = trace.get_active()
        if tr is not None:
            tr.instant(
                "conflict_graph",
                vis="auctioneer",
                n_users=self._conflict.n_users,
                n_edges=self._conflict.n_edges,
            )
        return self._conflict

    def receive_bids(self, submissions: Sequence[Any]) -> None:
        """Bid phase: check and stash the submissions.

        They must be dense (slot ``i`` holds user ``i``): allocation and
        charging address a bidder by its slot, so a win must be the win of
        the SU that sent the slot's bids.  Each must cover the announced
        channels.
        """
        if not submissions:
            raise ValueError("need at least one bid submission")
        for idx, sub in enumerate(submissions):
            if sub.user_id != idx:
                raise ValueError(
                    f"submissions must be dense: slot {idx} holds user {sub.user_id}"
                )
            if sub.n_channels != self._n_channels:
                raise ValueError(
                    f"submission covers {sub.n_channels} channels, expected "
                    f"{self._n_channels}"
                )
        self._bids = submissions
        self._rankings = None

    def channel_rankings(self) -> List[Ranking]:
        """The curious view: per-channel bid order (equivalence classes)."""
        rankings = self._ranked()
        tr = trace.get_active()
        if tr is not None:
            for channel, classes in enumerate(rankings):
                self._scheme.trace_ranking(tr, channel, classes, self._bids)
        return rankings

    def _ranked(self) -> List[Ranking]:
        # The scheme ranks the round's submissions once, on first use, so
        # the ranking time falls in the PSD allocation phase.
        if not self._bids:
            raise RuntimeError("bid submissions not received yet")
        if self._rankings is None:
            self._rankings = self._scheme.rankings(self._bids)
        return self._rankings

    def run_allocation(self, rng: random.Random) -> List[Assignment]:
        """PSD allocation: Algorithm 3 over the scheme's rankings."""
        if not self._bids:
            raise RuntimeError("bid submissions not received yet")
        if self._conflict is None:
            raise RuntimeError("location submissions not received yet")
        if self._conflict.n_users != len(self._bids):
            # greedy_allocate reads a missing node as "no conflicts", so a
            # graph over fewer SUs would let neighbours share a channel.
            raise ValueError(
                f"conflict graph covers {self._conflict.n_users} SUs, bid "
                f"table {len(self._bids)}"
            )
        table = RankedTable(self._ranked(), len(self._bids))
        assignments = greedy_allocate(table, self._conflict, rng)
        self._assignments = assignments
        self._charge_material = [
            (a.channel, self._bids[a.bidder].channel_bids[a.channel])
            for a in assignments
        ]
        tr = trace.get_active()
        if tr is not None:
            for a in assignments:
                tr.instant(
                    "assignment", vis="auctioneer", bidder=a.bidder, channel=a.channel
                )
        return list(assignments)

    def charge_material(self) -> List[Tuple[int, Any]]:
        """The winners' sealed bids queued for the TTP, in assignment order.

        This is the request half of the charging exchange; callers that
        reach the TTP over a transport (the network runtime's
        :class:`~repro.net.ttp_service.TtpService`) send exactly this and
        feed the decisions back through :meth:`assemble_outcome`.
        """
        if self._assignments is None:
            raise RuntimeError("allocation has not been run yet")
        return list(self._charge_material)

    def assemble_outcome(self, decisions, n_users: int) -> AuctionOutcome:
        """Combine TTP decisions (aligned with :meth:`charge_material`) into
        the round outcome.

        Invalid winners (disguised zeros) keep their allocation slot — their
        neighbours were already blocked during allocation — but pay nothing
        and do not count as satisfied, matching the paper's performance
        accounting.  A CHEATING verdict raises: the honest-bidder assumption
        of the model was violated.
        """
        if self._assignments is None:
            raise RuntimeError("allocation has not been run yet")
        if len(decisions) != len(self._assignments):
            raise ValueError(
                f"{len(decisions)} decisions for {len(self._assignments)} "
                "assignments"
            )
        wins = []
        for assignment, decision in zip(self._assignments, decisions):
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
        return AuctionOutcome(n_users=n_users, wins=tuple(wins))

    def charge_winners(self, ttp: TrustedThirdParty, n_users: int) -> AuctionOutcome:
        """PSD charging: one batched TTP round, then assemble the outcome."""
        decisions = ttp.process_batch(self.charge_material())
        return self.assemble_outcome(decisions, n_users)
