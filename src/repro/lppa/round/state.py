"""Mutable per-round state threaded through the core's phase steps.

A :class:`RoundState` is created by a wrapper (``run_lppa_auction``,
``run_fast_lppa``, :class:`~repro.net.server.AuctioneerServer`), filled in
step by step as :data:`~repro.lppa.round.core.PHASE_STEPS` executes, and
read back out at the end as ``state.result``.  Which fields a given round
uses depends on the value backend:

* crypto rounds, whatever their privacy scheme, populate the wire-object
  fields (``location_subs``, ``bid_subs``: the scheme's submission types),
  the TTP material (``ttp``/``keyring``/``scale``), the byte counters and
  what the keyless :mod:`repro.lppa.auctioneer` steps return (``conflict``,
  ``rankings``, ``assignments``, ``outcome``);
* plain rounds populate ``disclosures`` and ``rankings`` and leave every
  wire field ``None`` — the core treats ``None`` byte counters
  as "this round has no wire".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.auction.allocation import Assignment
from repro.auction.bidders import SecondaryUser
from repro.auction.conflict import ConflictGraph
from repro.auction.outcome import AuctionOutcome
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale, SubmissionDisclosure
from repro.lppa.policies import ZeroDisguisePolicy
from repro.lppa.ttp import TrustedThirdParty
from repro.obs.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lppa.round.backends import ValueBackend
    from repro.lppa.round.drivers import RoundDriver

__all__ = ["RoundState"]


@dataclass
class RoundState:
    """One LPPA round in flight.

    The constructor arguments up to ``tr`` are the round's *inputs*; every
    field below the ``flow state`` marker is written by the phase steps.
    """

    backend: "ValueBackend"
    driver: "RoundDriver"
    n_users: int
    n_channels: int
    two_lambda: int
    bmax: int
    rd: int = 4
    cr: int = 8
    seed: bytes = b"lppa-session"
    grid: Optional[GridSpec] = None
    users: Optional[Sequence[SecondaryUser]] = None
    user_rngs: Optional[Sequence[random.Random]] = None
    alloc_rng: Optional[random.Random] = None
    policies: Optional[Sequence[Optional[ZeroDisguisePolicy]]] = None
    pricing: str = "first"
    revalidate: bool = False
    tr: Optional[TraceRecorder] = None

    # -- crypto setup material (prefilled by the net server, which performs
    # the TTP setup once at construction rather than once per round) -------
    ttp: Optional[TrustedThirdParty] = None
    keyring: Optional[Any] = None
    scale: Optional[BidScale] = None

    # -- flow state, written by the phase steps -----------------------------
    #: Scheme-specific submission objects (PPBS LocationSubmission /
    #: BidSubmission, Bloom BloomLocationSubmission / OpeBidSubmission, ...)
    #: under one size contract (repro.lppa.schemes.base).
    location_subs: Optional[List[Any]] = None
    bid_subs: Optional[List[Any]] = None
    disclosures: List[SubmissionDisclosure] = field(default_factory=list)
    conflict: Optional[ConflictGraph] = None
    rankings: Optional[List[List[List[int]]]] = None
    assignments: Optional[List[Assignment]] = None
    outcome: Optional[AuctionOutcome] = None
    ttp_rejections: int = 0
    relocate: bool = False
    location_bytes: Optional[int] = None
    bid_bytes: Optional[int] = None
    framed_bytes: Optional[int] = None
    round_end_args: Dict[str, Any] = field(default_factory=dict)
    result: Any = None

    def submission_count(self) -> int:
        """How many bidders this round actually runs over."""
        if self.bid_subs is not None:
            return len(self.bid_subs)
        if self.disclosures:
            return len(self.disclosures)
        return self.n_users

    def true_bid(self, bidder: int, channel: int) -> int:
        """The hidden integer bid behind one disclosure entry (plain path)."""
        return self.disclosures[bidder].channels[channel].true_bid

    def disclosure_tuple(self) -> Tuple[SubmissionDisclosure, ...]:
        """The round's disclosures as the immutable tuple results carry."""
        return tuple(self.disclosures)
