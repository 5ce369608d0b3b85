"""Round result records, shared by every execution path.

:class:`LppaResult` is what a value-faithful (crypto) round produces —
in-process via :func:`repro.lppa.session.run_lppa_auction` or over a
transport via :class:`repro.net.server.AuctioneerServer`.
:class:`FastLppaResult` is the integer simulator's equivalent, minus the
wire sizes the simulator never materializes.  They live here, below the
wrappers, so the round core can assemble them without importing the
wrappers built on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.auction.conflict import ConflictGraph
from repro.auction.outcome import AuctionOutcome
from repro.lppa.bids_advanced import SubmissionDisclosure

__all__ = ["FastLppaResult", "LppaResult"]


@dataclass(frozen=True)
class LppaResult:
    """Everything one protocol round produced."""

    outcome: AuctionOutcome
    conflict_graph: ConflictGraph
    rankings: List[List[List[int]]]
    disclosures: Tuple[SubmissionDisclosure, ...]
    location_bytes: int
    bid_bytes: int
    masked_set_bytes: int
    framed_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Payload bytes (what Theorem 4's accounting models)."""
        return self.location_bytes + self.bid_bytes


@dataclass(frozen=True)
class FastLppaResult:
    """Same shape as :class:`LppaResult`, minus wire sizes.

    ``ttp_rejections`` counts invalid-winner notifications consumed during
    allocation; it is zero unless the round ran with ``revalidate=True``.
    """

    outcome: AuctionOutcome
    conflict_graph: ConflictGraph
    rankings: List[List[List[int]]]
    disclosures: Tuple[SubmissionDisclosure, ...]
    ttp_rejections: int = 0
