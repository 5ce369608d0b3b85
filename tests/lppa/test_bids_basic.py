"""Basic private bid submission (section IV.B, Fig. 3) and its leaks."""

import random

import pytest

from repro.crypto.keys import generate_keyring
from repro.lppa.bids_basic import (
    decrypt_bid_value,
    encrypt_bid_value,
    submit_bids_basic,
)
from tests.lppa.oracles import find_maxima

KEYRING = generate_keyring(b"basic-test", 1)


def _submissions(bids, bmax=14):
    rng = random.Random(0)
    return [
        submit_bids_basic(i, [b], KEYRING, bmax, rng) for i, b in enumerate(bids)
    ]


def test_paper_fig3_maximum():
    """Bids {6, 10, 0, 5} with bmax 14: the auctioneer finds 10 as maximum."""
    subs = _submissions([6, 10, 0, 5])
    families = [s.channel_bids[0].family for s in subs]
    tails = [s.channel_bids[0].tail for s in subs]
    assert find_maxima(families, tails) == [1]


def test_paper_fig3_partial_order():
    """6 >= 5 but 6 < 10, read off the masked sets exactly as in Fig. 3."""
    subs = _submissions([6, 10, 0, 5])
    fam6 = subs[0].channel_bids[0].family
    assert fam6.intersects(subs[3].channel_bids[0].tail)  # 6 >= 5
    assert not fam6.intersects(subs[1].channel_bids[0].tail)  # 6 < 10


def test_ciphertext_roundtrip():
    subs = _submissions([6, 10, 0, 5])
    for sub, bid in zip(subs, [6, 10, 0, 5]):
        assert decrypt_bid_value(KEYRING.gc, sub.channel_bids[0].ciphertext) == bid


def test_leak_cardinality_differs_between_bids():
    """Section IV.C.1's third leak: |Q([b, bmax])| orders the bids."""
    subs = _submissions([10, 5])
    assert len(subs[0].channel_bids[0].tail) != len(subs[1].channel_bids[0].tail)


def test_leak_equal_bids_have_equal_masked_sets():
    """Section IV.C.1's frequency leak: equal bids are fully linkable."""
    subs = _submissions([7, 7])
    assert (
        subs[0].channel_bids[0].family.digests
        == subs[1].channel_bids[0].family.digests
    )


def test_bid_bounds_enforced():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        submit_bids_basic(0, [15], KEYRING, 14, rng)
    with pytest.raises(ValueError):
        submit_bids_basic(0, [-1], KEYRING, 14, rng)
    with pytest.raises(ValueError):
        submit_bids_basic(0, [1], KEYRING, 0, rng)


def test_encrypt_bid_value_bounds():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        encrypt_bid_value(KEYRING.gc, -1, rng)
    with pytest.raises(ValueError):
        encrypt_bid_value(KEYRING.gc, 1 << 32, rng)


def test_decrypt_rejects_malformed_blob():
    with pytest.raises(ValueError):
        decrypt_bid_value(KEYRING.gc, b"too-short")


def test_same_value_encrypts_differently_across_nonces():
    rng = random.Random(0)
    a = encrypt_bid_value(KEYRING.gc, 9, rng)
    b = encrypt_bid_value(KEYRING.gc, 9, rng)
    assert a != b
    assert decrypt_bid_value(KEYRING.gc, a) == decrypt_bid_value(KEYRING.gc, b) == 9
