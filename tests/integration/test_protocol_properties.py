"""Property-based protocol invariants across the crypto stack."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.bids_basic import decrypt_bid_value, submit_bids_basic
from repro.lppa.policies import UniformReplacePolicy
from repro.lppa.psd import masked_rankings
from tests.lppa.oracles import find_maxima


@settings(max_examples=25, deadline=None)
@given(
    bids=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_basic_scheme_max_finding_is_exact(bids, seed):
    """Equation (3): the masked search returns exactly the argmax set."""
    keyring = generate_keyring(b"prop-basic", 1)
    rng = random.Random(seed)
    subs = [
        submit_bids_basic(i, [b], keyring, 30, rng) for i, b in enumerate(bids)
    ]
    families = [s.channel_bids[0].family for s in subs]
    tails = [s.channel_bids[0].tail for s in subs]
    best = max(bids)
    assert find_maxima(families, tails) == [
        i for i, b in enumerate(bids) if b == best
    ]


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=2),
        min_size=2,
        max_size=5,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    replace=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_advanced_scheme_ranking_reflects_hidden_values(rows, seed, replace):
    """The masked table's order always equals the hidden expanded order,
    for arbitrary bids, seeds and disguise intensities."""
    keyring = generate_keyring(b"prop-advanced", 2, rd=4, cr=8)
    scale = BidScale(bmax=30, rd=4, cr=8)
    rng = random.Random(seed)
    submissions, values = [], []
    for uid, bids in enumerate(rows):
        sub, disclosure = submit_bids_advanced(
            uid, bids, keyring, scale, rng, policy=UniformReplacePolicy(replace)
        )
        submissions.append(sub)
        values.append([c.masked_expanded for c in disclosure.channels])
    rankings = masked_rankings(submissions)
    for channel in range(2):
        flat = [u for cls in rankings[channel] for u in cls]
        assert sorted(
            (values[u][channel] for u in flat), reverse=True
        ) == [values[u][channel] for u in flat]


@settings(max_examples=20, deadline=None)
@given(
    bids=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_ttp_always_recovers_true_bids(bids, seed):
    """For every submission, the gc ciphertext decrypts to the committed
    expanded value, and contracting it recovers the true bid or zero band."""
    n = len(bids)
    keyring = generate_keyring(b"prop-ttp", n, rd=4, cr=8)
    scale = BidScale(bmax=30, rd=4, cr=8)
    rng = random.Random(seed)
    sub, disclosure = submit_bids_advanced(
        0, bids, keyring, scale, rng, policy=UniformReplacePolicy(1.0)
    )
    for channel, (mb, record) in enumerate(
        zip(sub.channel_bids, disclosure.channels)
    ):
        expanded = decrypt_bid_value(keyring.gc, mb.ciphertext)
        assert expanded == record.true_expanded
        offset = scale.contract(expanded)
        if record.true_bid > 0:
            assert offset - scale.rd == record.true_bid
        else:
            assert scale.is_zero_marker(offset)
