"""Label-addressed entropy: the seeding contract every LPPA path shares.

One auction round has exactly two kinds of randomness consumers:

* each bidder's disguise/expansion draws — stream ``("bidder", str(i))``;
* the auctioneer's channel/tie choices — stream ``("alloc",)``.

All three round executions (the full-crypto session, the integer fast
simulator and the networked runtime) derive their streams from the same
round ``entropy`` label through the functions below, and all of them hand
user ``i``'s stream to :func:`repro.lppa.bids_advanced.disguise_and_expand`
*first*.  The same ``entropy`` therefore makes every path commit to
identical masked values, which is what the differential-equivalence tests
(fastsim vs session, networked round vs session) pin down.  It is the only
way a round is seeded: each SU disguises and expands its bids from its own
stream, as in the paper, and a round given no label draws one from
:func:`repro.utils.rng.fresh_rng`.  A label is an ``int >= 0``, a ``str``
or ``bytes``; a negative int cannot be encoded, so callers that take a
signed seed build a string label from it.

This module is deliberately leaf-level: it imports only
:mod:`repro.utils.rng`, so the round core, the wrappers and the network
client can all depend on it without cycles.  (It originally lived in
:mod:`repro.lppa.fastsim`; that deprecated re-export has been removed.)
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.utils.rng import Seed, spawn_rng

__all__ = ["alloc_rng", "bidder_rng", "derive_round_rngs"]


def bidder_rng(entropy: Seed, su_id: int) -> random.Random:
    """Bidder ``su_id``'s private masking stream for this round.

    This is the stream a networked SU derives locally when the ROUND_BEGIN
    frame announces the round's entropy label; it depends only on
    ``(entropy, su_id)``, never on the population size or on how other
    randomness consumers interleave.
    """
    return spawn_rng(entropy, "bidder", str(su_id))


def alloc_rng(entropy: Seed) -> random.Random:
    """The allocation's channel-order and tie-break stream for this round."""
    return spawn_rng(entropy, "alloc")


def derive_round_rngs(
    entropy: Seed, n_users: int
) -> Tuple[List[random.Random], random.Random]:
    """Per-user bidder RNGs plus the allocation RNG for one auction round.

    This derivation is the *shared* seeding contract of the fast simulator,
    the full-crypto session and the network runtime: user ``i``'s
    disguise/expansion draws come from the stream labelled
    ``("bidder", str(i))`` and the allocation's channel/tie choices from
    ``("alloc",)``.  Because every path calls
    :func:`repro.lppa.bids_advanced.disguise_and_expand` *first* on the
    per-user stream, the same ``entropy`` makes them commit to identical
    masked values — the differential-equivalence tests assert the
    consequences (identical rankings, allocations and charges).
    """
    return [bidder_rng(entropy, i) for i in range(n_users)], alloc_rng(entropy)
