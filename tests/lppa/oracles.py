"""Reference implementations kept only as oracles for differential tests.

The protocol answers the auctioneer's two masked jobs from one masked index
(:func:`repro.prefix.membership.reaches`).  The first oracles are the
paper's literal per-pair procedures: the conflict graph as an all-pairs
:func:`~repro.prefix.membership.is_member` scan, the masked order
``b_i >= b_j`` of one pair of submitted bids (:func:`bid_ge`), the ranking
as a comparison sort over it, and the column maximum as equation (3)'s
search over every tail (:func:`find_maxima`).

:func:`disguise_and_expand` is the bidder's numeric core as first written,
one :class:`~repro.lppa.bids_advanced.BidScale` call and one
``randint``/``randrange`` per value, against which the inlined core's
draws are checked.

:class:`SetTable`, :func:`greedy_allocate_validated`,
:func:`greedy_allocate_priced` and :func:`second_price_charge` are Algorithm
3's extensions as first written: one loop per extension, each sale
recording its column's losers (an O(N) copy per sale), and the table
finding a column's maximum by scanning its ranking from the top.  The one
allocation loop and the post-loop second prices are checked against them.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.auction.allocation import Assignment
from repro.auction.conflict import ConflictGraph
from repro.auction.table import Ranking
from repro.lppa.bids_advanced import BidScale, ChannelDisclosure
from repro import obs
from repro.lppa.messages import BidSubmission, LocationSubmission
from repro.lppa.policies import KeepZeroPolicy, ZeroDisguisePolicy
from repro.prefix.membership import MaskedSet, is_member


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


def bid_ge(
    submissions: Sequence[BidSubmission], i: int, j: int, channel: int
) -> bool:
    """``b_i >= b_j`` on ``channel``, decided purely on the masked sets."""
    return is_member(
        submissions[i].channel_bids[channel].family,
        submissions[j].channel_bids[channel].tail,
    )


def find_maxima(
    families: Sequence[MaskedSet], tail_ranges: Sequence[MaskedSet]
) -> List[int]:
    """Indices of maximal bids, given masked families and ``[b_a, bmax]`` covers.

    Bid ``i`` is maximal iff its family intersects *every* submitted tail
    range (equation (3) of the paper): ``G(b_i) ∩ Q([b_a, bmax]) ≠ ∅`` means
    ``b_i >= b_a``.  Ties are genuine — equal bids are indistinguishable
    under the masking — so all maximal indices are returned.
    """
    if len(families) != len(tail_ranges):
        raise ValueError("families and tail_ranges must align")
    obs.count("prefix.find_maxima")
    return [
        i
        for i, family in enumerate(families)
        if all(is_member(family, rng_set) for rng_set in tail_ranges)
    ]


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


def disguise_and_expand(
    bids: Sequence[int],
    scale: BidScale,
    rng: random.Random,
    *,
    policy: Optional[ZeroDisguisePolicy] = None,
) -> List[ChannelDisclosure]:
    """Steps (i)-(ii) of the advanced scheme through ``randint``/``randrange``."""
    if policy is None:
        policy = KeepZeroPolicy()
    user_bmax = max(bids) if bids else 0
    disclosures: List[ChannelDisclosure] = []
    for bid in bids:
        if not 0 <= bid <= scale.bmax:
            raise ValueError(f"bid {bid} outside [0, {scale.bmax}]")
        if bid > 0:
            pretend = scale.offset_value(bid)
            true_offset = pretend
            disguised = False
        else:
            t = policy.sample(rng, user_bmax)
            if t > 0:
                pretend = scale.offset_value(t)
                disguised = True
                true_offset = rng.randint(0, scale.rd)
            else:
                pretend = rng.randint(0, scale.rd)
                disguised = False
                true_offset = pretend
        masked_expanded = scale.expand(pretend, rng)
        true_expanded = (
            masked_expanded if not disguised else scale.expand(true_offset, rng)
        )
        disclosures.append(
            ChannelDisclosure(
                true_bid=bid,
                pretend_value=pretend,
                true_expanded=true_expanded,
                masked_expanded=masked_expanded,
                disguised=disguised,
            )
        )
    return disclosures


class SetTable:
    """Algorithm 3's table as one live set per column and no cursor."""

    def __init__(self, rankings: Sequence[Ranking]) -> None:
        self._rankings = list(rankings)
        self._live = [{b for tied in ranking for b in tied} for ranking in rankings]

    @property
    def n_channels(self) -> int:
        return len(self._rankings)

    def has_entries(self) -> bool:
        return any(self._live)

    def has_channel_entries(self, channel: int) -> bool:
        return bool(self._live[channel])

    def channel_bidders(self, channel: int) -> Set[int]:
        return set(self._live[channel])

    def ranking(self, channel: int) -> Ranking:
        return self._rankings[channel]

    def max_bidders(self, channel: int) -> List[int]:
        live = self._live[channel]
        for tied in self._rankings[channel]:
            remaining = [b for b in tied if b in live]
            if remaining:
                return remaining
        raise ValueError(f"channel {channel} has no remaining bids")

    def remove_row(self, bidder: int) -> None:
        for live in self._live:
            live.discard(bidder)

    def remove_entry(self, bidder: int, channel: int) -> None:
        self._live[channel].discard(bidder)


def _adjacency(conflict: ConflictGraph) -> Dict[int, Set[int]]:
    """Each SU's neighbour set, rebuilt from ``conflict.edges`` so the
    reference loops do not read the graph's stored rows."""
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(conflict.n_users)}
    for u, v in conflict.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def greedy_allocate_validated(
    table: SetTable,
    conflict: ConflictGraph,
    rng: random.Random,
    is_valid: Callable[[int, int], bool],
) -> Tuple[List[Assignment], int]:
    """Algorithm 3 with the TTP's invalid-winner notification in the loop;
    also returns how many winners the oracle refused."""
    adjacency = _adjacency(conflict)
    winners: List[Assignment] = []
    rejected = 0
    pool: List[int] = []
    while table.has_entries():
        if not pool:
            pool = list(range(table.n_channels))
        channel = pool.pop(rng.randrange(len(pool)))
        while table.has_channel_entries(channel):
            candidates = table.max_bidders(channel)
            winner = candidates[rng.randrange(len(candidates))]
            if not is_valid(winner, channel):
                rejected += 1
                table.remove_entry(winner, channel)
                continue
            winners.append(Assignment(bidder=winner, channel=channel))
            for neighbor in adjacency.get(winner, ()):
                table.remove_entry(neighbor, channel)
            table.remove_row(winner)
            break
    return winners, rejected


@dataclass(frozen=True)
class PricedAssignment:
    """One sale with the column's remaining losers, best first."""

    bidder: int
    channel: int
    losers_desc: Tuple[int, ...]


def greedy_allocate_priced(
    table: SetTable,
    conflict: ConflictGraph,
    rng: random.Random,
) -> List[PricedAssignment]:
    """Algorithm 3, recording each sale's remaining column order."""
    adjacency = _adjacency(conflict)
    sales: List[PricedAssignment] = []
    pool: List[int] = []
    while table.has_entries():
        if not pool:
            pool = list(range(table.n_channels))
        channel = pool.pop(rng.randrange(len(pool)))
        live = table.channel_bidders(channel)
        if not live:
            continue
        candidates = table.max_bidders(channel)
        winner = candidates[rng.randrange(len(candidates))]
        losers = tuple(
            bidder
            for tie_class in table.ranking(channel)
            for bidder in tie_class
            if bidder in live and bidder != winner
        )
        sales.append(
            PricedAssignment(bidder=winner, channel=channel, losers_desc=losers)
        )
        for neighbor in adjacency.get(winner, ()):
            table.remove_entry(neighbor, channel)
        table.remove_row(winner)
    return sales


def second_price_charge(
    sale: PricedAssignment,
    true_bid_of: Callable[[int, int], int],
) -> int:
    """The first genuine (positive) loser's bid, else the winner's own."""
    for loser in sale.losers_desc:
        loser_bid = true_bid_of(loser, sale.channel)
        if loser_bid > 0:
            return loser_bid
    return true_bid_of(sale.bidder, sale.channel)
