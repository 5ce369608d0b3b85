"""Secondary users and truthful bid generation.

The paper's experiment generates each SU's bid on channel ``j`` as

    b_j^i = q_j * beta_i + eta,       |eta| <= 20% * q_j * beta_i

where ``q_j`` is the channel quality at the SU's cell (from the geo-location
database), ``beta_i`` the user's *transmission emergency* (urgency) value,
and ``eta`` sensing noise.  Bids on unavailable channels are zero, and bids
are non-negative integers (the prefix machinery works on integers).

Note the consequence the paper itself points out: an *available* channel of
very low quality can legitimately produce a zero bid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.geo.database import GeoLocationDatabase
from repro.geo.grid import Cell

__all__ = [
    "SecondaryUser",
    "generate_users",
    "generate_users_from_sensing",
    "rebid_users",
    "DEFAULT_BETA_RANGE",
    "BID_NOISE_FRACTION",
]

#: Default uniform range of the transmission-emergency value beta_i.
DEFAULT_BETA_RANGE = (20.0, 100.0)
#: The paper's |eta| <= 20% bound.
BID_NOISE_FRACTION = 0.2


@dataclass(frozen=True)
class SecondaryUser:
    """One bidder: identity, (secret) location, urgency, true bid vector."""

    user_id: int
    cell: Cell
    beta: float
    bids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if any(b < 0 for b in self.bids):
            raise ValueError("bids must be non-negative")

    @property
    def n_channels(self) -> int:
        return len(self.bids)

    def available_set(self) -> Set[int]:
        """``AS(i)`` as inferable from the bids: channels bid positively.

        The paper's attacker equates "bid > 0" with "available"; channels
        that are available but of such low quality that the truthful bid
        rounds to zero are invisible to it.
        """
        return {ch for ch, b in enumerate(self.bids) if b > 0}

    def max_bid(self) -> int:
        """The user's largest bid, the paper's per-user ``b(max)``."""
        return max(self.bids) if self.bids else 0


def _truthful_bid(quality: float, beta: float, rng: random.Random) -> int:
    value = quality * beta
    noise = rng.uniform(-BID_NOISE_FRACTION, BID_NOISE_FRACTION) * value
    return max(0, round(value + noise))


def _truthful_bids(
    database: GeoLocationDatabase, cell: Cell, beta: float, rng: random.Random
) -> Tuple[int, ...]:
    """One SU's truthful bid vector; one noise draw per available channel,
    in channel order."""
    qualities = database.coverage.quality_vector(cell)
    available = database.available_channels(cell)
    return tuple(
        _truthful_bid(float(qualities[ch]), beta, rng) if ch in available else 0
        for ch in range(database.n_channels)
    )


def generate_users_from_sensing(
    database: GeoLocationDatabase,
    n_users: int,
    rng: random.Random,
    detector,
    *,
    beta_range: Tuple[float, float] = DEFAULT_BETA_RANGE,
    cells: Sequence[Cell] = (),
) -> List[SecondaryUser]:
    """SUs whose channel knowledge comes from spectrum sensing, not the DB.

    The paper's initial phase offers both paths; this one derives each bid
    from an :class:`~repro.geo.sensing.EnergyDetector` sweep, so the bid
    noise is the *physical* sensing error rather than the abstract
    ``|eta| <= 20%`` perturbation.  Mis-detections show up as bids on
    channels the database would call unavailable — which is realistic, and
    exactly the measurement discrepancy the paper cites as the reason BPM
    returns multiple cells.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    lo, hi = beta_range
    if not 0 < lo <= hi:
        raise ValueError("beta_range must satisfy 0 < lo <= hi")
    grid = database.coverage.grid
    if cells:
        if len(cells) != n_users:
            raise ValueError("cells, when given, must have one entry per user")
        placements = list(cells)
    else:
        placements = grid.random_cells(rng, n_users)

    users = []
    for uid, cell in enumerate(placements):
        grid.require(cell)
        beta = rng.uniform(lo, hi)
        reports = detector.sense_all(database, cell, rng)
        bids = tuple(
            max(0, round(report.quality_estimate * beta)) if report.available else 0
            for report in reports
        )
        users.append(SecondaryUser(user_id=uid, cell=cell, beta=beta, bids=bids))
    return users


def rebid_users(
    users: Sequence[SecondaryUser],
    database: GeoLocationDatabase,
    rng: random.Random,
) -> List[SecondaryUser]:
    """Fresh truthful bids for an existing population (a new auction round).

    Between rounds each SU re-evaluates its channels — same cell, same
    urgency ``beta``, fresh sensing noise ``eta``.  This is the bid dynamic
    the multi-round linkage attack (section V.C.3) exploits: the *noise*
    varies per round, the underlying availability does not.
    """
    return [
        SecondaryUser(
            user_id=user.user_id,
            cell=user.cell,
            beta=user.beta,
            bids=_truthful_bids(database, user.cell, user.beta, rng),
        )
        for user in users
    ]


def generate_users(
    database: GeoLocationDatabase,
    n_users: int,
    rng: random.Random,
    *,
    beta_range: Tuple[float, float] = DEFAULT_BETA_RANGE,
    cells: Sequence[Cell] = (),
) -> List[SecondaryUser]:
    """Create ``n_users`` SUs with truthful noisy bids.

    Users are placed uniformly at random over the grid unless explicit
    ``cells`` are given (length must then equal ``n_users``).
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    lo, hi = beta_range
    if not 0 < lo <= hi:
        raise ValueError("beta_range must satisfy 0 < lo <= hi")
    grid = database.coverage.grid
    if cells:
        if len(cells) != n_users:
            raise ValueError("cells, when given, must have one entry per user")
        placements = list(cells)
    else:
        placements = grid.random_cells(rng, n_users)

    users = []
    for uid, cell in enumerate(placements):
        grid.require(cell)
        beta = rng.uniform(lo, hi)
        bids = _truthful_bids(database, cell, beta, rng)
        users.append(SecondaryUser(user_id=uid, cell=cell, beta=beta, bids=bids))
    return users
