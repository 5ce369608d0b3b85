"""Property-based codec laws.

Two families:

* **round-trip** — for all three message classes (masked set, location
  submission, bid submission) built from the real submission layer under
  random inputs, ``decode(encode(m)) == m``, and ``wire_size()`` equals
  the encoded length;
* **truncation** — any strict prefix of a valid encoding raises
  :class:`CodecError`; it never silently decodes to a *different* valid
  message.  Every length in the format is declared before its bytes, so a
  cut anywhere must be detectable.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.codec import (
    CodecError,
    decode_bids,
    decode_location,
    decode_masked_set,
    encode_bids,
    encode_location,
    encode_masked_set,
)
from repro.lppa.location import submit_location
from repro.prefix.membership import MaskedSet

N_CHANNELS = 4
KEYRING = generate_keyring(b"codec-prop", N_CHANNELS, rd=4, cr=8)
SCALE = BidScale(bmax=30, rd=4, cr=8)
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)


def _random_masked_set(digest_bytes: int, n: int, seed: int) -> MaskedSet:
    rng = random.Random(seed)
    digests = frozenset(rng.randbytes(digest_bytes) for _ in range(n))
    return MaskedSet(digests, digest_bytes=digest_bytes)


masked_sets = st.builds(
    _random_masked_set,
    digest_bytes=st.integers(min_value=4, max_value=20),
    n=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)

locations = st.builds(
    lambda uid, x, y: submit_location(uid, (x, y), KEYRING.g0, GRID, 4),
    uid=st.integers(min_value=0, max_value=2**32 - 1),
    x=st.integers(min_value=0, max_value=GRID.rows - 1),
    y=st.integers(min_value=0, max_value=GRID.cols - 1),
)

bid_submissions = st.builds(
    lambda uid, bids, seed: submit_bids_advanced(
        uid, bids, KEYRING, SCALE, random.Random(seed)
    )[0],
    uid=st.integers(min_value=0, max_value=2**32 - 1),
    bids=st.lists(
        st.integers(min_value=0, max_value=SCALE.bmax),
        min_size=N_CHANNELS,
        max_size=N_CHANNELS,
    ),
    seed=st.integers(min_value=0, max_value=10**6),
)


# --- round-trip ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(masked=masked_sets)
def test_masked_set_roundtrip(masked):
    blob = encode_masked_set(masked)
    decoded, end = decode_masked_set(blob)
    assert decoded == masked
    assert end == len(blob)


@settings(max_examples=25, deadline=None)
@given(sub=locations)
def test_location_roundtrip(sub):
    assert decode_location(encode_location(sub)) == sub


@settings(max_examples=25, deadline=None)
@given(sub=bid_submissions)
def test_bids_roundtrip(sub):
    assert decode_bids(encode_bids(sub)) == sub


# --- wire_size() is the encoded length ----------------------------------------
#
# The round core takes framed bytes from wire_size() without encoding, so the
# pin in test_messages.py holds for every random submission, not one example.


@settings(max_examples=40, deadline=None)
@given(sub=locations)
def test_location_wire_size_is_encoded_length(sub):
    assert sub.wire_size() == len(encode_location(sub))


@settings(max_examples=40, deadline=None)
@given(sub=bid_submissions)
def test_bids_wire_size_is_encoded_length(sub):
    assert sub.wire_size() == len(encode_bids(sub))
    assert all(
        mb.wire_size() == len(encode_masked_set(mb.family))
        + len(encode_masked_set(mb.tail)) + 2 + len(mb.ciphertext)
        for mb in sub.channel_bids
    )


# --- truncation never yields a value ------------------------------------------


@settings(max_examples=25, deadline=None)
@given(masked=masked_sets)
def test_masked_set_every_truncation_raises(masked):
    blob = encode_masked_set(masked)
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            decode_masked_set(blob[:cut])


@settings(max_examples=15, deadline=None)
@given(sub=locations, data=st.data())
def test_location_truncation_raises(sub, data):
    blob = encode_location(sub)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(CodecError):
        decode_location(blob[:cut])


@settings(max_examples=15, deadline=None)
@given(sub=bid_submissions, data=st.data())
def test_bids_truncation_raises(sub, data):
    blob = encode_bids(sub)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(CodecError):
        decode_bids(blob[:cut])


def test_exhaustive_truncation_one_example():
    """Belt and braces: every single prefix of one real pair of messages."""
    loc = submit_location(3, (10, 20), KEYRING.g0, GRID, 4)
    bids = submit_bids_advanced(
        3, [5, 0, 22, 1], KEYRING, SCALE, random.Random(0)
    )[0]
    loc_blob = encode_location(loc)
    bid_blob = encode_bids(bids)
    for cut in range(len(loc_blob)):
        with pytest.raises(CodecError):
            decode_location(loc_blob[:cut])
    for cut in range(len(bid_blob)):
        with pytest.raises(CodecError):
            decode_bids(bid_blob[:cut])
