"""Wire message structures and size accounting."""

import pytest

from repro.lppa.messages import USER_ID_BYTES, BidSubmission, LocationSubmission, MaskedBid
from repro.prefix.membership import mask_range, mask_value

KEY = b"k"


def _masked_bid(value=5, width=4, bmax=15):
    return MaskedBid(
        family=mask_value(KEY, value, width),
        tail=mask_range(KEY, value, bmax, width),
        ciphertext=b"\x00" * 12,
    )


def test_location_submission_wire_bytes():
    fam = mask_value(KEY, 7, 7)
    rng = mask_range(KEY, 3, 11, 7)
    sub = LocationSubmission(
        user_id=1, x_family=fam, x_range=rng, y_family=fam, y_range=rng
    )
    expected = USER_ID_BYTES + 2 * fam.wire_bytes() + 2 * rng.wire_bytes()
    assert sub.wire_bytes() == expected


def test_masked_bid_wire_bytes():
    mb = _masked_bid()
    assert mb.wire_bytes() == mb.family.wire_bytes() + mb.tail.wire_bytes() + 12


def test_masked_bid_requires_nonce_and_payload():
    with pytest.raises(ValueError):
        MaskedBid(
            family=mask_value(KEY, 1, 4),
            tail=mask_range(KEY, 1, 15, 4),
            ciphertext=b"abc",
        )


def test_bid_submission_sizes():
    bids = tuple(_masked_bid(v) for v in (2, 9, 0))
    sub = BidSubmission(user_id=0, channel_bids=bids)
    assert sub.n_channels == 3
    assert sub.wire_bytes() == USER_ID_BYTES + sum(b.wire_bytes() for b in bids)
    assert sub.material_bytes() == sum(
        b.family.wire_bytes() + b.tail.wire_bytes() for b in bids
    )


def test_bid_submission_needs_channels():
    with pytest.raises(ValueError):
        BidSubmission(user_id=0, channel_bids=())


# --- wire_size() pins: the exact-size accounting must equal the encoder ---
#
# These use the real advanced scheme (submit_bids_advanced), so the tail
# sets carry the deterministic padding to 2w - 2 digests that Theorem 4's
# exactness relies on — not just hand-built toy sets.

import random

from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.codec import (
    decode_bids,
    decode_location,
    encode_bids,
    encode_location,
    framing_overhead,
)
from repro.lppa.location import submit_location

_KEYRING = generate_keyring(b"messages-test", 4, rd=4, cr=8)
_SCALE = BidScale(bmax=30, rd=4, cr=8)
_GRID = GridSpec(rows=32, cols=32, cell_km=1.0)


def _advanced_submission(seed=0):
    return submit_bids_advanced(
        9, [5, 0, 22, 17], _KEYRING, _SCALE, random.Random(seed)
    )[0]


def test_location_wire_size_equals_encoded_length():
    sub = submit_location(6, (12, 25), _KEYRING.g0, _GRID, 4)
    encoded = encode_location(sub)
    assert sub.wire_size() == len(encoded)
    assert framing_overhead(sub) == sub.wire_size() - sub.wire_bytes()
    assert decode_location(encoded) == sub


def test_bid_submission_wire_size_equals_encoded_length():
    sub = _advanced_submission()
    encoded = encode_bids(sub)
    assert sub.wire_size() == len(encoded)
    assert framing_overhead(sub) == sub.wire_size() - sub.wire_bytes()
    assert decode_bids(encoded) == sub


def test_masked_bid_wire_size_is_its_share_of_the_encoding():
    """Per-channel wire_size() values must partition the encoded bid
    submission exactly: header + sum of per-channel shares."""
    sub = _advanced_submission(seed=3)
    encoded = encode_bids(sub)
    header = 1 + 4 + 2  # tag + user id + channel count
    assert header + sum(mb.wire_size() for mb in sub.channel_bids) == len(encoded)
    for mb in sub.channel_bids:
        assert framing_overhead(mb) == mb.wire_size() - mb.wire_bytes()


def test_advanced_tail_sets_are_padded():
    """The advanced scheme pads every tail to 2w - 2 digests and every
    family holds w + 1, so each channel's masked material is exactly
    (3w - 1) digests — the per-user Theorem 4 term."""
    sub = _advanced_submission(seed=5)
    w = _SCALE.width
    for mb in sub.channel_bids:
        assert len(mb.family) == w + 1
        assert len(mb.tail) == 2 * w - 2
        assert (
            mb.family.wire_bytes() + mb.tail.wire_bytes()
            == (3 * w - 1) * mb.family.digest_bytes
        )


def test_roundtrip_survives_many_seeds():
    for seed in range(6):
        sub = _advanced_submission(seed=seed)
        again = decode_bids(encode_bids(sub))
        assert again == sub
        assert again.wire_size() == sub.wire_size()
        assert again.material_bytes() == sub.material_bytes()
