"""Property-based codec laws for the scheme-tagged payloads.

Mirrors ``tests/lppa/test_codec_properties.py`` for the second scheme's
wire formats, plus the size contract every registered scheme keeps:

* **round-trip** — Bloom location submissions and OPE bid submissions built
  from the real submission layer under random inputs satisfy
  ``decode(encode(m)) == m``, and ``wire_size()`` equals the encoded length;
* **truncation** — any strict prefix of a valid encoding raises
  :class:`CodecError`, never silently decoding to a different message;
* **garbage** — random bytes behind a valid scheme tag either raise
  :class:`CodecError` or decode to a value whose re-encoding reproduces the
  input exactly (no third outcome);
* **dispatch** — the registry routes every encoded payload to the scheme
  that owns its tag byte;
* **size contract** — for every registered scheme's location and bid
  submissions, ``len(encode_*(s)) == s.wire_size() == s.wire_bytes() +
  s.framing_bytes()``, the identity the round's byte accounting relies on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import BidScale
from repro.lppa.bids_ope import (
    OPE_BID_TAG,
    decode_bids_ope,
    encode_bids_ope,
    submit_bids_ope,
)
from repro.lppa.codec import CodecError
from repro.lppa.location_bloom import (
    BLOOM_LOCATION_TAG,
    decode_location_bloom,
    encode_location_bloom,
    submit_location_bloom,
)
from repro.lppa.schemes.registry import (
    available_schemes,
    get_scheme,
    scheme_for_payload,
)

N_CHANNELS = 4
KEYRING = generate_keyring(b"scheme-codec-prop", N_CHANNELS, rd=4, cr=8)
SCALE = BidScale(bmax=30, rd=4, cr=8)
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)
TWO_LAMBDA = 4

bloom_locations = st.builds(
    lambda uid, x, y: submit_location_bloom(
        uid, (x, y), KEYRING.g0, GRID, TWO_LAMBDA
    ),
    uid=st.integers(min_value=0, max_value=2**32 - 1),
    x=st.integers(min_value=0, max_value=GRID.rows - 1),
    y=st.integers(min_value=0, max_value=GRID.cols - 1),
)

ope_bid_submissions = st.builds(
    lambda uid, bids, seed: submit_bids_ope(
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


@settings(max_examples=25, deadline=None)
@given(sub=bloom_locations)
def test_bloom_location_roundtrip(sub):
    assert decode_location_bloom(encode_location_bloom(sub)) == sub


@settings(max_examples=25, deadline=None)
@given(sub=ope_bid_submissions)
def test_ope_bids_roundtrip(sub):
    assert decode_bids_ope(encode_bids_ope(sub)) == sub


@settings(max_examples=40, deadline=None)
@given(sub=bloom_locations)
def test_bloom_location_wire_size_is_encoded_length(sub):
    assert sub.wire_size() == len(encode_location_bloom(sub))


@settings(max_examples=40, deadline=None)
@given(sub=ope_bid_submissions)
def test_ope_bids_wire_size_is_encoded_length(sub):
    assert sub.wire_size() == len(encode_bids_ope(sub))


# --- truncation never yields a value ------------------------------------------


@settings(max_examples=15, deadline=None)
@given(sub=bloom_locations, data=st.data())
def test_bloom_location_truncation_raises(sub, data):
    blob = encode_location_bloom(sub)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(CodecError):
        decode_location_bloom(blob[:cut])


@settings(max_examples=15, deadline=None)
@given(sub=ope_bid_submissions, data=st.data())
def test_ope_bids_truncation_raises(sub, data):
    blob = encode_bids_ope(sub)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(CodecError):
        decode_bids_ope(blob[:cut])


def test_exhaustive_truncation_one_example():
    """Belt and braces: every single prefix of one real pair of messages."""
    loc = submit_location_bloom(3, (10, 20), KEYRING.g0, GRID, TWO_LAMBDA)
    bids = submit_bids_ope(
        3, [5, 0, 22, 1], KEYRING, SCALE, random.Random(0)
    )[0]
    loc_blob = encode_location_bloom(loc)
    bid_blob = encode_bids_ope(bids)
    for cut in range(len(loc_blob)):
        with pytest.raises(CodecError):
            decode_location_bloom(loc_blob[:cut])
    for cut in range(len(bid_blob)):
        with pytest.raises(CodecError):
            decode_bids_ope(bid_blob[:cut])


# --- garbage: reject or decode-encode identity, nothing in between -------------


@settings(max_examples=40, deadline=None)
@given(body=st.binary(min_size=0, max_size=200))
def test_bloom_location_garbage_rejected_or_exact(body):
    blob = BLOOM_LOCATION_TAG + body
    try:
        decoded = decode_location_bloom(blob)
    except CodecError:
        return
    assert encode_location_bloom(decoded) == blob


@settings(max_examples=40, deadline=None)
@given(body=st.binary(min_size=0, max_size=200))
def test_ope_bids_garbage_rejected_or_exact(body):
    blob = OPE_BID_TAG + body
    try:
        decoded = decode_bids_ope(blob)
    except CodecError:
        return
    assert encode_bids_ope(decoded) == blob


def test_wrong_tag_rejected():
    with pytest.raises(CodecError):
        decode_location_bloom(b"X" + b"\x00" * 16)
    with pytest.raises(CodecError):
        decode_bids_ope(b"X" + b"\x00" * 16)


# --- registry dispatch by leading tag byte -------------------------------------


@settings(max_examples=10, deadline=None)
@given(loc=bloom_locations, bids=ope_bid_submissions)
def test_payload_tag_dispatch(loc, bids):
    bloom = get_scheme("bloom")
    assert scheme_for_payload(encode_location_bloom(loc)) is bloom
    assert scheme_for_payload(encode_bids_ope(bids)) is bloom


def test_ppbs_payloads_dispatch_to_ppbs():
    from repro.lppa.codec import encode_location
    from repro.lppa.location import submit_location

    loc = submit_location(0, (1, 2), KEYRING.g0, GRID, TWO_LAMBDA)
    assert scheme_for_payload(encode_location(loc)) is get_scheme("ppbs")


# --- one size contract for every registered scheme -----------------------------


@pytest.mark.parametrize("name", available_schemes())
@settings(max_examples=20, deadline=None)
@given(
    uid=st.integers(min_value=0, max_value=2**32 - 1),
    x=st.integers(min_value=0, max_value=GRID.rows - 1),
    y=st.integers(min_value=0, max_value=GRID.cols - 1),
    bids=st.lists(
        st.integers(min_value=0, max_value=SCALE.bmax),
        min_size=N_CHANNELS,
        max_size=N_CHANNELS,
    ),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_submission_size_contract(name, uid, x, y, bids, seed):
    scheme = get_scheme(name)
    loc = scheme.make_location(uid, (x, y), KEYRING, GRID, TWO_LAMBDA)
    sub, _ = scheme.make_bids(uid, bids, KEYRING, SCALE, random.Random(seed))
    for blob, message in (
        (scheme.encode_location(loc), loc),
        (scheme.encode_bids(sub), sub),
    ):
        assert (
            len(blob)
            == message.wire_size()
            == message.wire_bytes() + message.framing_bytes()
        )
