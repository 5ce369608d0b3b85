"""The masked index kernel against the pairwise membership tests it replaces.

:func:`~repro.prefix.membership.reaches` decides ``G ∩ T_j ≠ ∅`` for
every probe ``G`` and every ``j`` at once.  The conflict graph and the PSD
ranking are built on it.
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

from repro import obs
from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.location import build_private_conflict_graph
from repro.lppa.messages import BidSubmission, LocationSubmission, MaskedBid
from repro.lppa.psd import masked_rankings
from repro.prefix.membership import MaskedSet, is_member, reaches
from tests.lppa.oracles import (
    bid_ge,
    is_total_preorder,
    pairwise_conflict_graph,
    rank_by_ge,
)

SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"masked-index-test", 3, rd=4, cr=8)

#: Eight 4-byte digests: random subsets of so few collide often.
POOL = [bytes([k]) * 4 for k in range(8)]
digest_sets = st.frozensets(st.sampled_from(POOL), max_size=5).map(
    lambda digests: MaskedSet(digests, digest_bytes=4)
)
CIPHERTEXT = bytes(5)


def _set(*digests):
    return MaskedSet(frozenset(digests), digest_bytes=4)


def _own(j):
    """A digest held by set ``j`` alone (the shared ones start with 0xff)."""
    return j.to_bytes(4, "big")


A, B, C, D = (bytes([0xFF, 0xFF, 0xFF, k]) for k in range(4))


@settings(max_examples=60, deadline=None)
@given(
    probes=st.lists(digest_sets, max_size=6),
    indexed=st.lists(digest_sets, max_size=8),
)
def test_reach_bit_j_is_membership_in_set_j(probes, indexed):
    reach_of = reaches(indexed, probes)
    assert set(reach_of) == {p.digests for p in probes}
    for family in probes:
        bits = reach_of[family.digests]
        assert bits >> len(indexed) == 0
        for j, masked in enumerate(indexed):
            assert bool(bits >> j & 1) == is_member(family, masked)


def test_reach_spans_blocks_of_indexed_sets():
    # More than one 2048-set block, with shared digests at far-apart indices.
    holders = {A: {0, 2047, 2048, 2599}, B: {5, 4095, 4096}, C: {4100}}
    indexed = [
        _set(_own(j), *(d for d, js in holders.items() if j in js))
        for j in range(4101)
    ]
    probes = [_set(A), _set(B, C), _set(A, B, _own(3000)), _set(D), _set()]
    reach_of = reaches(indexed, probes)
    for probe in probes:
        bits = reach_of[probe.digests]
        assert [j for j in range(len(indexed)) if bits >> j & 1] == [
            j for j, masked in enumerate(indexed) if is_member(probe, masked)
        ]
    assert reach_of[frozenset([A])] == (1 | 1 << 2047 | 1 << 2048 | 1 << 2599)
    assert reach_of[frozenset([D])] == reach_of[frozenset()] == 0


def test_repeated_probe_sets_share_one_entry_and_count_every_probe():
    first, equal, other = _set(A, B), _set(A, B), _set(C)
    assert first is not equal
    indexed = [_set(A), _set(C), _set(B, D)]
    with obs.collecting() as registry:
        reach_of = reaches(indexed, [first, other, equal, first])
    assert reach_of == {first.digests: 0b101, other.digests: 0b010}
    # One probe per digest of every probing set, repeats included.
    assert registry.counters["prefix.index_probes"] == 2 + 1 + 2 + 2


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


def _bid_submissions(bid_rows, seed):
    rng = random.Random(seed)
    return [
        submit_bids_advanced(uid, row, KEYRING, SCALE, rng)[0]
        for uid, row in enumerate(bid_rows)
    ]


def _column_submissions(column):
    return [
        BidSubmission(uid, (MaskedBid(family, tail, CIPHERTEXT),))
        for uid, (family, tail) in enumerate(column)
    ]


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
    subs = _bid_submissions(bid_rows, seed)
    rankings = masked_rankings(subs)
    for channel in range(3):
        expected = rank_by_ge(len(bid_rows), lambda i, j: bid_ge(subs, i, j, channel))
        assert rankings[channel] == expected


@settings(max_examples=150, deadline=None)
@given(
    column=st.lists(st.tuples(digest_sets, digest_sets), min_size=1, max_size=6)
)
def test_ranking_on_arbitrary_sets_is_exact_or_refuses(column):
    subs = _column_submissions(column)
    n = len(column)

    def ge(i, j):
        return bid_ge(subs, i, j, 0)

    if is_total_preorder(n, ge):
        assert masked_rankings(subs) == [rank_by_ge(n, ge)]
    else:
        with pytest.raises(AssertionError, match="masked comparison is not total"):
            masked_rankings(subs)


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
    subs = [BidSubmission(i, (b,)) for i, b in enumerate(column)]
    assert rank_by_ge(3, lambda i, j: bid_ge(subs, i, j, 0))
    with pytest.raises(AssertionError, match="masked comparison is not total"):
        masked_rankings(subs)


def test_different_families_with_equal_reach_merge_in_index_order():
    # Bidders 0 and 3 share the family {A}; bidder 1's family {B} differs
    # but meets exactly the same tails.  All three form one class, listed
    # by index rather than by family; bidder 2 ranks below them.
    high = _set(A, B)
    column = [(_set(A), high), (_set(B), high), (_set(C), _set(A, B, C)), (_set(A), high)]
    subs = _column_submissions(column)

    def ge(i, j):
        return bid_ge(subs, i, j, 0)

    assert is_total_preorder(len(column), ge)
    assert masked_rankings(subs) == [rank_by_ge(len(column), ge)] == [[[0, 1, 3], [2]]]


def test_ranking_spans_blocks_and_refuses_a_violation_above_bit_2048():
    n, low = 2100, 2090
    column = [(_set(A), _set(A))] * n
    # Bidder 2090 ranks strictly below everyone: a total preorder.
    column[low] = (_set(C), _set(A, C))
    assert masked_rankings(_column_submissions(column)) == [
        [[j for j in range(n) if j != low], [low]],
    ]
    # With its tail {C} alone, bidder 2090 and the others are incomparable.
    column[low] = (_set(C), _set(C))
    subs = _column_submissions(column)
    assert not bid_ge(subs, 0, low, 0) and not bid_ge(subs, low, 0, 0)
    with pytest.raises(AssertionError, match="masked comparison is not total"):
        masked_rankings(subs)
