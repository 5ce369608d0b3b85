"""The struct-unpacked codec against the slicing oracle it replaced.

:mod:`tests.lppa.codec_oracle` is the codec as it was before masked sets
were cut with one ``iter_unpack`` pass and built without a second length
scan.  For any width and count the protocol codec must decode the same
message from valid bytes, raise :class:`CodecError` on exactly the bytes
the oracle rejects, and encode byte for byte what the oracle encodes.
"""

import hashlib
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa import codec
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.location import submit_location
from repro.lppa.messages import (
    BidSubmission,
    CodecError,
    LocationSubmission,
    MaskedBid,
)
from repro.prefix import membership
from repro.prefix.membership import MaskedSet

from tests.lppa import codec_oracle as oracle

KEYRING = generate_keyring(b"codec-test", 3, rd=4, cr=8)
SCALE = BidScale(bmax=30, rd=4, cr=8)
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)


def _masked_set(width: int, count: int, seed: int) -> MaskedSet:
    rng = random.Random(seed)
    digests = set()
    while len(digests) < count:
        digests.add(rng.randbytes(width))
    return MaskedSet(frozenset(digests), digest_bytes=width)


#: Any wire-legal width (mostly the small ones the protocol uses) and count.
masked_sets = st.builds(
    _masked_set,
    width=st.one_of(st.integers(4, 32), st.integers(4, 255)),
    count=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
)

locations = st.builds(
    LocationSubmission,
    user_id=st.integers(0, 2**32 - 1),
    x_family=masked_sets,
    x_range=masked_sets,
    y_family=masked_sets,
    y_range=masked_sets,
)

masked_bids = st.builds(
    MaskedBid,
    family=masked_sets,
    tail=masked_sets,
    ciphertext=st.binary(min_size=5, max_size=40),
)

bid_submissions = st.builds(
    BidSubmission,
    user_id=st.integers(0, 2**32 - 1),
    channel_bids=st.lists(masked_bids, min_size=1, max_size=4).map(tuple),
)

DECODERS = {
    "masked_set": (codec.decode_masked_set, oracle.decode_masked_set),
    "location": (codec.decode_location, oracle.decode_location),
    "bids": (codec.decode_bids, oracle.decode_bids),
}


def _outcome(decode, data):
    """The decoded message, or ``CodecError``; any other exception escapes."""
    try:
        return decode(data)
    except CodecError:
        return CodecError


def _assert_same_outcome(kind, data):
    new, old = DECODERS[kind]
    assert _outcome(new, data) == _outcome(old, data)


# --- valid encodings ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(masked=masked_sets)
def test_masked_set_matches_the_oracle(masked):
    blob = oracle.encode_masked_set(masked)
    assert codec.encode_masked_set(masked) == blob
    assert codec.decode_masked_set(blob) == oracle.decode_masked_set(blob)
    assert codec.decode_masked_set(blob)[0] == masked


@settings(max_examples=60, deadline=None)
@given(sub=locations)
def test_location_matches_the_oracle(sub):
    blob = oracle.encode_location(sub)
    assert codec.encode_location(sub) == blob
    assert codec.decode_location(blob) == oracle.decode_location(blob) == sub


@settings(max_examples=60, deadline=None)
@given(sub=bid_submissions)
def test_bids_match_the_oracle(sub):
    blob = oracle.encode_bids(sub)
    assert codec.encode_bids(sub) == blob
    assert codec.decode_bids(blob) == oracle.decode_bids(blob) == sub


def test_decoded_sets_equal_checked_construction():
    """A validate-once set is the same value the checking constructor builds."""
    masked = _masked_set(16, 9, 3)
    decoded, _ = codec.decode_masked_set(codec.encode_masked_set(masked))
    rebuilt = MaskedSet(decoded.digests, digest_bytes=decoded.digest_bytes)
    assert decoded == rebuilt and hash(decoded) == hash(rebuilt)
    assert all(len(d) == decoded.digest_bytes for d in decoded.digests)


# --- malformed bytes: rejected exactly where the oracle rejects ---------------


def _encodings(draw):
    kind = draw(st.sampled_from(sorted(DECODERS)))
    if kind == "masked_set":
        return kind, oracle.encode_masked_set(draw(masked_sets))
    if kind == "location":
        return kind, oracle.encode_location(draw(locations))
    return kind, oracle.encode_bids(draw(bid_submissions))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_bytes_are_rejected_like_the_oracle(data):
    kind, blob = _encodings(data.draw)
    mutation = data.draw(st.sampled_from(("truncate", "append", "overwrite")))
    if mutation == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    elif mutation == "append":
        blob += data.draw(st.binary(min_size=1, max_size=8))
    else:
        at = data.draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1 :]
    _assert_same_outcome(kind, blob)


def _set_bytes(width, digests):
    return struct.pack(">BH", width, len(digests)) + b"".join(digests)


GOOD_SET = _set_bytes(8, [b"a" * 8, b"b" * 8])
GOOD_CHANNEL = GOOD_SET + GOOD_SET + struct.pack(">H", 8) + b"c" * 8

MALFORMED = {
    "set header truncated": ("masked_set", b"\x08\x00"),
    "set body truncated": ("masked_set", GOOD_SET[:-1]),
    "width 0": ("masked_set", _set_bytes(0, [b""] * 3)),
    "width 3": ("masked_set", _set_bytes(3, [b"abc", b"abd"])),
    "duplicate digests": ("masked_set", _set_bytes(8, [b"a" * 8, b"a" * 8])),
    "location header truncated": ("location", b"L\x00\x00"),
    "location body truncated": ("location", b"L" + bytes(4) + GOOD_SET * 3),
    "location trailing bytes": ("location", b"L" + bytes(4) + GOOD_SET * 4 + b"\x00"),
    "location width 3": (
        "location",
        b"L" + bytes(4) + GOOD_SET * 3 + _set_bytes(3, [b"abc"]),
    ),
    "location wrong tag": ("location", b"B" + bytes(4) + GOOD_SET * 4),
    "bid header truncated": ("bids", b"B\x00\x00\x00\x00\x00"),
    "bid zero channels": ("bids", b"B" + struct.pack(">IH", 1, 0)),
    "bid channel truncated": ("bids", b"B" + struct.pack(">IH", 1, 1) + GOOD_CHANNEL[:-1]),
    "bid trailing bytes": ("bids", b"B" + struct.pack(">IH", 1, 1) + GOOD_CHANNEL + b"\x00"),
    "bid missing channel": ("bids", b"B" + struct.pack(">IH", 1, 2) + GOOD_CHANNEL),
    "bid ciphertext length truncated": (
        "bids",
        b"B" + struct.pack(">IH", 1, 1) + GOOD_SET + GOOD_SET + b"\x00",
    ),
    "bid short ciphertext": (
        "bids",
        b"B" + struct.pack(">IH", 1, 1) + GOOD_SET + GOOD_SET + struct.pack(">H", 4) + b"nonc",
    ),
    "bid duplicate tail digests": (
        "bids",
        b"B"
        + struct.pack(">IH", 1, 1)
        + GOOD_SET
        + _set_bytes(8, [b"d" * 8, b"d" * 8])
        + struct.pack(">H", 8)
        + b"c" * 8,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_each_malformed_input_is_rejected_by_both(case):
    kind, blob = MALFORMED[case]
    new, old = DECODERS[kind]
    with pytest.raises(CodecError):
        old(blob)
    with pytest.raises(CodecError):
        new(blob)


def test_well_formed_counterparts_decode():
    """The malformed cases above differ from valid bytes only in their flaw."""
    assert codec.decode_masked_set(GOOD_SET)[0] == oracle.decode_masked_set(GOOD_SET)[0]
    location = b"L" + bytes(4) + GOOD_SET * 4
    assert codec.decode_location(location) == oracle.decode_location(location)
    bids = b"B" + struct.pack(">IH", 1, 1) + GOOD_CHANNEL
    assert codec.decode_bids(bids) == oracle.decode_bids(bids)


# --- encodings pinned byte for byte -------------------------------------------


def test_encodings_are_byte_identical_to_the_slicing_codec():
    """SHA-256 of the encodings of one fixed submission of each kind,
    recorded from the codec before the struct-unpacked rewrite."""
    bids = submit_bids_advanced(7, [5, 0, 22], KEYRING, SCALE, random.Random(0))[0]
    location = submit_location(3, (10, 20), KEYRING.g0, GRID, 4)
    assert codec.encode_location(location) == oracle.encode_location(location)
    assert codec.encode_bids(bids) == oracle.encode_bids(bids)
    assert (
        hashlib.sha256(codec.encode_location(location)).hexdigest()
        == "2534ca33e1d87b451af50d69c901003163adaa3ff322ad75e238ccc8737af0ec"
    )
    assert (
        hashlib.sha256(codec.encode_bids(bids)).hexdigest()
        == "a274251bfb69359d47037f22938647114b0e91154ee7bdd2afa0e73dcaa8b92e"
    )


# --- the decoder's memo is bounded by the protocol, not by the peer ----------


def test_a_max_count_frame_leaves_the_memo_within_its_bound():
    """A frame announcing 65 535 digests adds at most one single-field
    Struct to the memo; a per-count Struct of that shape would be ~2 MiB."""
    memo = membership._digest_unpacker
    count = 0xFFFF
    body = b"".join(i.to_bytes(4, "big") for i in range(count))
    frame = struct.pack(">BH", 4, count) + body
    duplicate = struct.pack(">BH", 4, count) + bytes(4 * count)

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        masked, end = codec.decode_masked_set(frame)
        assert end == len(frame) and len(masked) == count
        with pytest.raises(CodecError):
            codec.decode_masked_set(duplicate)
        del masked
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024
    info = memo.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
    assert memo(4).__self__.size == 4  # one field per width, never per count
