"""The (curious-but-honest) auctioneer: keyless steps over masked submissions.

Everything these functions touch is masked: location submissions become a
conflict graph through the privacy scheme's membership test, bid
submissions become the scheme's per-channel rankings (PPBS:
:func:`~repro.lppa.psd.masked_rankings`; Bloom: the OPE values), Algorithm 3
allocates channels over the :class:`~repro.auction.table.RankedTable` they
make, and winners' sealed bids go to the TTP for charging.  The module
imports neither :class:`~repro.crypto.keys.KeyRing` nor
:class:`~repro.lppa.ttp.TrustedThirdParty` and no function takes a key:
the auctioneer simply has no key material.  The
round's state lives on the :class:`~repro.lppa.round.state.RoundState`
the value backends write, so each step is a function of its inputs.

The honest-but-curious part: :func:`channel_rankings` exposes the bid order
the auctioneer can always reconstruct from the masked sets.  That view is
what :mod:`repro.attacks.against_lppa` consumes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.auction.allocation import Assignment, greedy_allocate
from repro.obs import trace
from repro.auction.conflict import ConflictGraph
from repro.auction.outcome import AuctionOutcome, WinRecord
from repro.auction.table import RankedTable, Ranking
from repro.lppa.ttp import ChargeStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lppa.schemes.base import PrivacyScheme

__all__ = [
    "allocate",
    "assemble_outcome",
    "channel_rankings",
    "charge_material",
    "check_bid_submissions",
    "conflict_graph",
]


def conflict_graph(
    scheme: "PrivacyScheme", location_subs: Sequence[Any]
) -> ConflictGraph:
    """Location phase: masked membership tests -> conflict graph."""
    graph = scheme.build_conflict_graph(location_subs)
    tr = trace.get_active()
    if tr is not None:
        tr.instant(
            "conflict_graph",
            vis="auctioneer",
            n_users=graph.n_users,
            n_edges=graph.n_edges,
        )
    return graph


def check_bid_submissions(subs: Sequence[Any], n_channels: int) -> None:
    """Bid phase: refuse submissions allocation cannot address.

    They must be dense (slot ``i`` holds user ``i``): allocation and
    charging address a bidder by its slot, so a win must be the win of
    the SU that sent the slot's bids.  Each must cover the announced
    channels.
    """
    if not subs:
        raise ValueError("need at least one bid submission")
    for idx, sub in enumerate(subs):
        if sub.user_id != idx:
            raise ValueError(
                f"submissions must be dense: slot {idx} holds user {sub.user_id}"
            )
        if sub.n_channels != n_channels:
            raise ValueError(
                f"submission covers {sub.n_channels} channels, expected "
                f"{n_channels}"
            )


def channel_rankings(
    scheme: "PrivacyScheme", bid_subs: Sequence[Any]
) -> List[Ranking]:
    """The curious view: per-channel bid order (equivalence classes)."""
    rankings = scheme.rankings(bid_subs)
    tr = trace.get_active()
    if tr is not None:
        for channel, classes in enumerate(rankings):
            scheme.trace_ranking(tr, channel, classes, bid_subs)
    return rankings


def allocate(
    rankings: Sequence[Ranking],
    n_bidders: int,
    conflict: ConflictGraph,
    rng: random.Random,
    is_valid: Optional[Callable[[int, int], bool]] = None,
) -> List[Assignment]:
    """PSD allocation: Algorithm 3 over the rankings' table.

    ``is_valid`` is :func:`~repro.auction.allocation.greedy_allocate`'s
    allocation-time TTP oracle (``None``: the paper's batch mode).
    """
    if conflict.n_users != n_bidders:
        # greedy_allocate reads a missing node as "no conflicts", so a
        # graph over fewer SUs would let neighbours share a channel.
        raise ValueError(
            f"conflict graph covers {conflict.n_users} SUs, bid "
            f"table {n_bidders}"
        )
    table = RankedTable(rankings, n_bidders)
    assignments = greedy_allocate(table, conflict, rng, is_valid)
    tr = trace.get_active()
    if tr is not None:
        for a in assignments:
            tr.instant(
                "assignment", vis="auctioneer", bidder=a.bidder, channel=a.channel
            )
    return assignments


def charge_material(
    assignments: Sequence[Assignment], bid_subs: Sequence[Any]
) -> List[Tuple[int, Any]]:
    """The winners' sealed bids queued for the TTP, in assignment order.

    This is the request half of the charging exchange; callers that
    reach the TTP over a transport (the network runtime's
    :class:`~repro.net.ttp_service.TtpService`) send exactly this and
    feed the decisions back through :func:`assemble_outcome`.
    """
    return [
        (a.channel, bid_subs[a.bidder].channel_bids[a.channel])
        for a in assignments
    ]


def assemble_outcome(
    assignments: Sequence[Assignment], decisions: Sequence[Any], n_users: int
) -> AuctionOutcome:
    """Combine TTP decisions (aligned with :func:`charge_material`) into
    the round outcome.

    Invalid winners (disguised zeros) keep their allocation slot — their
    neighbours were already blocked during allocation — but pay nothing
    and do not count as satisfied, matching the paper's performance
    accounting.  A CHEATING verdict raises: the honest-bidder assumption
    of the model was violated.
    """
    if len(decisions) != len(assignments):
        raise ValueError(
            f"{len(decisions)} decisions for {len(assignments)} assignments"
        )
    wins = []
    for assignment, decision in zip(assignments, decisions):
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
