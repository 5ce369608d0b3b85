"""Private Spectrum Distribution — the masked rankings (section V.A).

After PPBS the auctioneer holds, for every (bidder, channel), a masked
prefix family and tail cover.  :func:`masked_rankings` turns that pile into
each channel's ranking, which is all
:class:`~repro.auction.table.RankedTable` needs to run the greedy
Algorithm 3 of :mod:`repro.auction.allocation` unchanged.

"Find the maximum of a column" rests on recovering each channel's total
*order* of bidders from the membership relation
``G(b_i) ∩ Q([b_j, emax]) != ∅  <=>  b_i >= b_j`` — an operation the
curious auctioneer can always perform, which is precisely why the paper's
attacker model (section VI.C) grants the adversary the ordered bid table.
The same rankings are therefore the attack surface for
:mod:`repro.attacks.against_lppa`.

The whole relation of a column comes from one masked index
(:func:`~repro.prefix.membership.reaches`: the tails indexed, each
distinct family probed once): ``b_i >= b_j`` for exactly the bidders
``j`` that ``i``'s family reaches, so sorting the distinct reaches orders
the column.  The index holds only digests some family holds, and the
non-total guard walks the classes with a byte-array down-set, so time
and memory grow with the number of bidders times the number of distinct
bid values, not with its square.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

from repro.auction.table import Ranking
from repro.lppa.messages import BidSubmission, MaskedBid
from repro.prefix.membership import reaches

__all__ = ["masked_rankings"]


def masked_rankings(submissions: Sequence[BidSubmission]) -> List[Ranking]:
    """Every channel's total order of *all* bidders, best first.

    ``submissions`` must be dense (slot ``i`` holds user ``i``) and of one
    width, as :func:`~repro.lppa.auctioneer.check_bid_submissions`
    checks.  Each ranking is a list of equivalence classes: bidders within
    a class submitted equal masked values (mutually >=), listed by index.
    Raises ``AssertionError`` when a column's masked relation is not a
    total preorder.
    """
    n_users = len(submissions)
    return [
        _column_ranking([sub.channel_bids[ch] for sub in submissions], n_users)
        for ch in range(submissions[0].n_channels if submissions else 0)
    ]


def _column_ranking(column: Sequence[MaskedBid], n_users: int) -> Ranking:
    """One column's ranking from its masked index.

    Bit ``j`` of the reach of ``i``'s family (tails indexed) is
    ``b_i >= b_j``; bidders with one family digest set share one reach,
    computed once.  In a total preorder the reaches are nested down-sets,
    so a better class has the numerically larger reach: sorting the
    distinct reaches (descending) orders the column, and families with
    equal reaches merge into one class.  Walking the classes worst first,
    each must reach exactly the bidders at or below it; anything else
    means the relation is not a total preorder.
    """
    groups: Dict[FrozenSet[bytes], List[int]] = {}
    for bidder, bid in enumerate(column):
        groups.setdefault(bid.family.digests, []).append(bidder)
    reach_of = reaches([bid.tail for bid in column], [bid.family for bid in column])
    classes: Ranking = []
    class_reaches: List[int] = []
    for family in sorted(groups, key=reach_of.__getitem__, reverse=True):
        bits = reach_of[family]
        if class_reaches and bits == class_reaches[-1]:
            classes[-1] = sorted(classes[-1] + groups[family])
        else:
            classes.append(groups[family])
            class_reaches.append(bits)
    below = bytearray((n_users + 7) // 8)
    for members, bits in zip(reversed(classes), reversed(class_reaches)):
        for bidder in members:
            below[bidder >> 3] |= 1 << (bidder & 7)
        if bits != int.from_bytes(below, "little"):
            raise AssertionError(
                "masked comparison is not total: filler-digest collision?"
            )
    return classes
