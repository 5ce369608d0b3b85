"""Multi-round auction campaigns.

One LPPA round is :func:`repro.lppa.fastsim.run_fast_lppa` /
:func:`repro.lppa.session.run_lppa_auction`; real deployments run *series*
of rounds over a slowly-changing population.  :class:`Campaign` owns the
cross-round machinery the paper discusses in §V.C:

* per-round **re-bidding** (fresh sensing noise, same cells/urgencies);
* per-round **pseudonym pools** (on by default; §V.C.3) — the round results
  carry wire pseudonyms so attacker-facing views are unlinkable;
* accumulated **TTP charge batches** (§V.C.2) with deposit timestamps, so
  the batching model in :mod:`repro.lppa.batching` can price the schedule;
* a result time series for performance/privacy trend analysis.

The campaign runs on the fast simulator (the crypto path is round-for-round
equivalent; see DESIGN.md) — one campaign is typically dozens of rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.auction.bidders import SecondaryUser, rebid_users
from repro.auction.conflict import ConflictGraph, build_conflict_graph
from repro.auction.outcome import AuctionOutcome
from repro.geo.database import GeoLocationDatabase
from repro.lppa.fastsim import FastLppaResult, run_fast_lppa
from repro.lppa.idpool import IdPool
from repro.lppa.policies import ZeroDisguisePolicy
from repro.utils.rng import fresh_rng

__all__ = ["RoundRecord", "Campaign"]


@dataclass(frozen=True)
class RoundRecord:
    """Everything one campaign round produced.

    ``outcome`` and ``rankings`` are indexed by *true* user ids;
    ``pseudonyms`` maps them to the wire identities the auctioneer saw
    (``None`` when mixing is disabled — the linkable regime).
    """

    round_index: int
    deposit_time: float
    outcome: AuctionOutcome
    rankings: List[List[List[int]]]
    pseudonyms: Optional[IdPool]
    ttp_rejections: int


class Campaign:
    """A sequence of LPPA rounds over one bidder population."""

    def __init__(
        self,
        database: GeoLocationDatabase,
        users: Sequence[SecondaryUser],
        *,
        two_lambda: int,
        bmax: int,
        policy: Optional[ZeroDisguisePolicy] = None,
        mix_ids: bool = True,
        round_interval: float = 30.0,
        rd: int = 4,
        cr: int = 8,
        revalidate: bool = False,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not users:
            raise ValueError("need at least one user")
        if round_interval <= 0:
            raise ValueError("round_interval must be positive")
        self._database = database
        self._users = list(users)
        self._two_lambda = two_lambda
        self._bmax = bmax
        self._policy = policy
        self._mix_ids = mix_ids
        self._round_interval = round_interval
        self._rd = rd
        self._cr = cr
        self._revalidate = revalidate
        self._rng = rng if rng is not None else fresh_rng()
        # Locations never change within a campaign: one conflict graph.
        self._conflict: ConflictGraph = build_conflict_graph(
            [u.cell for u in self._users], two_lambda
        )
        self._records: List[RoundRecord] = []

    @property
    def n_users(self) -> int:
        return len(self._users)

    @property
    def records(self) -> List[RoundRecord]:
        return list(self._records)

    @property
    def conflict_graph(self) -> ConflictGraph:
        return self._conflict

    def run_round(self) -> RoundRecord:
        """Execute one round: (re)bid, allocate, charge, record."""
        index = len(self._records)
        if index > 0:
            self._users = rebid_users(self._users, self._database, self._rng)
        result: FastLppaResult = run_fast_lppa(
            self._users,
            two_lambda=self._two_lambda,
            bmax=self._bmax,
            rd=self._rd,
            cr=self._cr,
            policy=self._policy,
            entropy=self._rng.getrandbits(64),
            conflict=self._conflict,
            revalidate=self._revalidate,
        )
        record = RoundRecord(
            round_index=index,
            deposit_time=index * self._round_interval,
            outcome=result.outcome,
            rankings=result.rankings,
            pseudonyms=(
                IdPool.fresh(self.n_users, self._rng) if self._mix_ids else None
            ),
            ttp_rejections=result.ttp_rejections,
        )
        self._records.append(record)
        return record

    def run(self, n_rounds: int) -> List[RoundRecord]:
        """Execute ``n_rounds`` rounds and return their records."""
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        return [self.run_round() for _ in range(n_rounds)]

    # --- Aggregates ---------------------------------------------------------------

    def revenue_series(self) -> List[int]:
        """Sum of winning bids, one value per completed round."""
        return [r.outcome.sum_of_winning_bids() for r in self._records]

    def satisfaction_series(self) -> List[float]:
        """User satisfaction, one value per completed round."""
        return [r.outcome.user_satisfaction() for r in self._records]

    def charge_deposits(self) -> Tuple[List[float], List[int]]:
        """(deposit times, batch sizes) for the TTP batching model."""
        times = [r.deposit_time for r in self._records]
        sizes = [len(r.outcome.wins) for r in self._records]
        return times, sizes

    def linkable_rankings(self) -> List[List[List[List[int]]]]:
        """The attacker's cross-round view under *stable* identities.

        Raises when pseudonym mixing is on — that is the point of mixing:
        there is no linkable view to return.
        """
        if self._mix_ids:
            raise RuntimeError(
                "identities are mixed per round; cross-round linking is impossible"
            )
        return [r.rankings for r in self._records]

    def public_outcomes(self) -> List[AuctionOutcome]:
        """The published winner lists (indexed by true ids; under mixing the
        attacker would only see pseudonyms, so linking these requires the
        mixing to be off or broken)."""
        return [r.outcome for r in self._records]
