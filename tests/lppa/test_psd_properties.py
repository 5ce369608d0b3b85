"""Property tests for the masked rankings' order machinery.

Hypothesis drives random bid populations through the real crypto path
(``submit_bids_advanced`` → ``masked_rankings``) and checks the two
invariants everything downstream leans on:

* the pairwise oracle ``bid_ge`` (``tests.lppa.oracles``) is a *total preorder* (total, transitive),
  so the rankings' totality guard never fires on honest bids;
* the masked ranking equals plain integer ordering of the hidden expanded
  values — the order-isomorphism the fast simulator's equivalence rests on.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.psd import masked_rankings
from tests.lppa.oracles import bid_ge

SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"psd-prop-test", 2, rd=4, cr=8)

populations = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=2),
    min_size=2,
    max_size=6,
)


def _world(bid_rows, seed):
    rng = random.Random(seed)
    submissions, values = [], []
    for uid, bids in enumerate(bid_rows):
        submission, disclosure = submit_bids_advanced(
            uid, bids, KEYRING, SCALE, rng
        )
        submissions.append(submission)
        values.append([c.masked_expanded for c in disclosure.channels])
    return submissions, values


@settings(max_examples=25, deadline=None)
@given(bid_rows=populations, seed=st.integers(min_value=0, max_value=2**16))
def test_bid_ge_is_a_total_preorder(bid_rows, seed):
    subs, _ = _world(bid_rows, seed)
    n = len(bid_rows)
    for channel in range(2):
        for i, j in itertools.product(range(n), repeat=2):
            # Totality: at least one direction holds for every pair.
            assert bid_ge(subs, i, j, channel) or bid_ge(subs, j, i, channel)
        for i, j, k in itertools.product(range(n), repeat=3):
            if bid_ge(subs, i, j, channel) and bid_ge(subs, j, k, channel):
                assert bid_ge(subs, i, k, channel)


@settings(max_examples=25, deadline=None)
@given(bid_rows=populations, seed=st.integers(min_value=0, max_value=2**16))
def test_masked_ranking_agrees_with_plain_integer_ordering(bid_rows, seed):
    subs, values = _world(bid_rows, seed)
    rankings = masked_rankings(subs)
    for channel in range(2):
        classes = rankings[channel]
        # Same equivalence classes, same order, as sorting the hidden
        # integers descending (class members share a value, so only the
        # per-class sets can differ in member order).
        by_value = {}
        for bidder, row in enumerate(values):
            by_value.setdefault(row[channel], []).append(bidder)
        expected = [
            sorted(by_value[v]) for v in sorted(by_value, reverse=True)
        ]
        assert [sorted(cls) for cls in classes] == expected
        # And the oracle agrees with the integers pairwise.
        for i, j in itertools.product(range(len(bid_rows)), repeat=2):
            assert bid_ge(subs, i, j, channel) == (
                values[i][channel] >= values[j][channel]
            )
