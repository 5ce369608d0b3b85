"""Pairwise reference implementations of the auctioneer's two masked jobs.

The protocol answers both jobs from one masked index
(:func:`repro.prefix.membership.reaches`).
These are the paper's literal per-pair procedures, kept only as oracles for
the differential tests: the conflict graph as an all-pairs
:func:`~repro.prefix.membership.is_member` scan, the masked order
``b_i >= b_j`` of one table entry pair (:func:`bid_ge`), and the ranking as
a comparison sort over it.
"""

import functools
import itertools
from typing import Callable, List, Sequence

from repro.auction.conflict import ConflictGraph
from repro.lppa.messages import LocationSubmission
from repro.lppa.psd import MaskedBidTable
from repro.prefix.membership import is_member


def pairwise_conflict_graph(
    submissions: Sequence[LocationSubmission],
) -> ConflictGraph:
    """Section IV.A verbatim: test every pair ``i < j`` on both axes."""
    edges = frozenset(
        (i, j)
        for i, j in itertools.combinations(range(len(submissions)), 2)
        if is_member(submissions[i].x_family, submissions[j].x_range)
        and is_member(submissions[i].y_family, submissions[j].y_range)
    )
    return ConflictGraph(n_users=len(submissions), edges=edges)


def bid_ge(table: MaskedBidTable, i: int, j: int, channel: int) -> bool:
    """``b_i >= b_j`` on ``channel`` of ``table``, decided purely on masked sets."""
    return is_member(
        table.masked_bid(i, channel).family, table.masked_bid(j, channel).tail
    )


def rank_by_ge(n_users: int, ge: Callable[[int, int], bool]) -> List[List[int]]:
    """Order of ``range(n_users)`` under ``ge``, best first, as equivalence classes.

    ``ge(i, j)`` answers ``b_i >= b_j``.  A comparison sort (stable, so a
    class lists its members by index); raises the same ``AssertionError`` as
    the protocol's ranking when it meets a pair neither way round.
    """

    def compare(i: int, j: int) -> int:
        i_ge_j = ge(i, j)
        j_ge_i = ge(j, i)
        if i_ge_j and j_ge_i:
            return 0
        if i_ge_j:
            return -1
        if j_ge_i:
            return 1
        raise AssertionError("masked comparison is not total: filler-digest collision?")

    order = sorted(range(n_users), key=functools.cmp_to_key(compare))
    classes: List[List[int]] = []
    for bidder in order:
        if classes and compare(classes[-1][0], bidder) == 0:
            classes[-1].append(bidder)
        else:
            classes.append([bidder])
    return classes


def is_total_preorder(n_users: int, ge: Callable[[int, int], bool]) -> bool:
    """Reflexive, total and transitive over ``range(n_users)``."""
    users = range(n_users)
    return (
        all(ge(i, i) for i in users)
        and all(ge(i, j) or ge(j, i) for i, j in itertools.product(users, repeat=2))
        and all(
            ge(i, k) or not (ge(i, j) and ge(j, k))
            for i, j, k in itertools.product(users, repeat=3)
        )
    )
