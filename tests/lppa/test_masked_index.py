"""The masked index kernel against the pairwise membership tests it replaces.

:func:`~repro.prefix.membership.owner_bits` and
:func:`~repro.prefix.membership.reach` decide ``G ∩ T_j ≠ ∅`` for every
``j`` at once.  The conflict graph and the PSD ranking are built on them.
These differential tests pin both jobs to the pairwise oracles of
:mod:`tests.lppa.oracles`: over honest bids with ties and zeros, and over
arbitrary digest sets drawn from a small pool, so that sets overlap in ways
no honest SU produces (inflated families, a digest shared by several
tails).  Honest locations are checked in ``tests/lppa/test_location.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.location import build_private_conflict_graph
from repro.lppa.messages import BidSubmission, LocationSubmission, MaskedBid
from repro.lppa.psd import MaskedBidTable
from repro.prefix.membership import MaskedSet, is_member, owner_bits, reach
from tests.lppa.oracles import is_total_preorder, pairwise_conflict_graph, rank_by_ge

SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"masked-index-test", 3, rd=4, cr=8)

#: Eight 4-byte digests: random subsets of so few collide often.
POOL = [bytes([k]) * 4 for k in range(8)]
digest_sets = st.frozensets(st.sampled_from(POOL), max_size=5).map(
    lambda digests: MaskedSet(digests, digest_bytes=4)
)
CIPHERTEXT = bytes(5)


@settings(max_examples=60, deadline=None)
@given(family=digest_sets, indexed=st.lists(digest_sets, max_size=8))
def test_reach_bit_j_is_membership_in_set_j(family, indexed):
    bits = reach(owner_bits(indexed), family)
    assert bits >> len(indexed) == 0
    for j, masked in enumerate(indexed):
        assert bool(bits >> j & 1) == is_member(family, masked)


@settings(max_examples=60, deadline=None)
@given(
    sets=st.lists(st.tuples(digest_sets, digest_sets, digest_sets, digest_sets),
                  min_size=1, max_size=8)
)
def test_index_graph_equals_pairwise_scan_on_arbitrary_sets(sets):
    submissions = [
        LocationSubmission(i, x_family, x_range, y_family, y_range)
        for i, (x_family, x_range, y_family, y_range) in enumerate(sets)
    ]
    assert build_private_conflict_graph(submissions) == pairwise_conflict_graph(
        submissions
    )


def _bid_table(bid_rows, seed):
    rng = random.Random(seed)
    return MaskedBidTable(
        [
            submit_bids_advanced(uid, row, KEYRING, SCALE, rng)[0]
            for uid, row in enumerate(bid_rows)
        ]
    )


@settings(max_examples=30, deadline=None)
@given(
    bid_rows=st.lists(
        # A narrow value range with zeros weighted in makes ties common.
        st.lists(st.sampled_from([0, 0, 1, 2, 7, 30]), min_size=3, max_size=3),
        min_size=1,
        max_size=10,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_ranking_equals_comparison_sort(bid_rows, seed):
    table = _bid_table(bid_rows, seed)
    for channel in range(3):
        expected = rank_by_ge(len(bid_rows), lambda i, j: table.bid_ge(i, j, channel))
        assert table.ranking(channel) == expected


@settings(max_examples=150, deadline=None)
@given(
    column=st.lists(st.tuples(digest_sets, digest_sets), min_size=1, max_size=6)
)
def test_ranking_on_arbitrary_sets_is_exact_or_refuses(column):
    table = MaskedBidTable(
        [
            BidSubmission(uid, (MaskedBid(family, tail, CIPHERTEXT),))
            for uid, (family, tail) in enumerate(column)
        ]
    )
    n = len(column)

    def ge(i, j):
        return table.bid_ge(i, j, 0)

    if is_total_preorder(n, ge):
        assert table.ranking(0) == rank_by_ge(n, ge)
    else:
        with pytest.raises(AssertionError, match="masked comparison is not total"):
            table.ranking(0)


def test_ranking_refuses_a_relation_that_is_not_transitive():
    # b0 >= b2 >= b1 >= b0, each strictly: a cycle, which the comparison
    # sort orders without complaint because every pair compares one way.
    d = [bytes([k]) * 4 for k in range(6)]

    def bid(family, tail):
        masked = [MaskedSet(frozenset(s), digest_bytes=4) for s in (family, tail)]
        return MaskedBid(*masked, CIPHERTEXT)

    column = [
        bid({d[0], d[1]}, {d[0], d[2]}),
        bid({d[2], d[3]}, {d[3], d[4]}),
        bid({d[4], d[5]}, {d[5], d[1]}),
    ]
    table = MaskedBidTable([BidSubmission(i, (b,)) for i, b in enumerate(column)])
    assert rank_by_ge(3, lambda i, j: table.bid_ge(i, j, 0))
    with pytest.raises(AssertionError, match="masked comparison is not total"):
        table.ranking(0)
