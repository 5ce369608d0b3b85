"""Wire codec round-trips and size accounting."""

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
    framing_overhead,
)
from repro.lppa.bids_ope import OpeBid, OpeBidSubmission, submit_bids_ope
from repro.lppa.location import submit_location
from repro.lppa.location_bloom import BloomLocationSubmission, submit_location_bloom
from repro.lppa.messages import (
    U16_MAX,
    U32_MAX,
    BidSubmission,
    LocationSubmission,
    MaskedBid,
)
from repro.prefix.membership import MaskedSet, mask_range, mask_value

KEYRING = generate_keyring(b"codec-test", 3, rd=4, cr=8)
SCALE = BidScale(bmax=30, rd=4, cr=8)
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)


def _bid_submission(seed=0):
    return submit_bids_advanced(
        7, [5, 0, 22], KEYRING, SCALE, random.Random(seed)
    )[0]


def test_masked_set_roundtrip():
    masked = mask_value(b"k", 123, 8)
    decoded, offset = decode_masked_set(encode_masked_set(masked))
    assert decoded == masked
    assert offset == len(encode_masked_set(masked))


def test_location_roundtrip():
    sub = submit_location(3, (10, 20), KEYRING.g0, GRID, 4)
    assert decode_location(encode_location(sub)) == sub


def test_bids_roundtrip():
    sub = _bid_submission()
    assert decode_bids(encode_bids(sub)) == sub


def test_encoded_size_is_payload_plus_framing():
    bid_sub = _bid_submission()
    assert len(encode_bids(bid_sub)) == bid_sub.wire_bytes() + framing_overhead(
        bid_sub
    )
    loc_sub = submit_location(3, (10, 20), KEYRING.g0, GRID, 4)
    assert len(encode_location(loc_sub)) == loc_sub.wire_bytes() + framing_overhead(
        loc_sub
    )


def test_wrong_tag_rejected():
    sub = _bid_submission()
    with pytest.raises(CodecError):
        decode_location(encode_bids(sub))
    loc = submit_location(3, (10, 20), KEYRING.g0, GRID, 4)
    with pytest.raises(CodecError):
        decode_bids(encode_location(loc))


def test_truncation_rejected():
    blob = encode_bids(_bid_submission())
    with pytest.raises(CodecError):
        decode_bids(blob[:-3])
    with pytest.raises(CodecError):
        decode_masked_set(b"\x10\x00")


def test_trailing_bytes_rejected():
    blob = encode_location(submit_location(3, (10, 20), KEYRING.g0, GRID, 4))
    with pytest.raises(CodecError):
        decode_location(blob + b"\x00")


def test_framing_overhead_validates_type():
    with pytest.raises(TypeError):
        framing_overhead("not a message")


@settings(max_examples=30, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=255),
    low=st.integers(min_value=0, max_value=255),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_masked_set_roundtrip_random(x, low, seed):
    rng = random.Random(seed)
    family = mask_value(b"key", x, 8, digest_bytes=12)
    cover = mask_range(b"key", min(low, 255), 255, 8, pad_to=14, rng=rng,
                       digest_bytes=12)
    for masked in (family, cover):
        decoded, _ = decode_masked_set(encode_masked_set(masked))
        assert decoded == masked


# --- hardening regressions: wire-valid headers with impossible bodies ---------


def test_zero_digest_bytes_with_nonzero_count_rejected():
    # digest_bytes=0 makes every "digest" the empty string: the declared
    # count can never be satisfied by distinct digests, and the length
    # arithmetic (0 * count) would otherwise accept any count for free.
    import struct

    blob = struct.pack(">BH", 0, 5)
    with pytest.raises(CodecError):
        decode_masked_set(blob)


def test_unsafe_digest_truncation_rejected_on_the_wire():
    # MaskedSet refuses digest_bytes < 4; the decoder must reject those
    # headers itself (CodecError, not the constructor's ValueError).
    import struct

    for digest_bytes in (0, 1, 3):
        blob = struct.pack(">BH", digest_bytes, 0)
        with pytest.raises(CodecError):
            decode_masked_set(blob)


def test_zero_digest_count_rejected_inside_location():
    import struct

    # 'L' + user_id, then a poisoned first masked set.
    blob = b"L" + struct.pack(">I", 7) + struct.pack(">BH", 0, 9)
    with pytest.raises(CodecError):
        decode_location(blob)


def test_short_ciphertext_rejected_as_codec_error():
    # Wire-valid framing, but the ciphertext violates the message invariant
    # (4-byte nonce + payload): the decoder must answer CodecError, not leak
    # the dataclass constructor's ValueError.
    import struct

    masked = mask_value(b"k", 3, 8, digest_bytes=12)
    set_blob = encode_masked_set(masked)
    blob = (
        b"B"
        + struct.pack(">IH", 1, 1)
        + set_blob
        + set_blob
        + struct.pack(">H", 2)
        + b"xx"
    )
    with pytest.raises(CodecError):
        decode_bids(blob)


def test_zero_channel_bid_submission_rejected_as_codec_error():
    import struct

    blob = b"B" + struct.pack(">IH", 1, 0)
    with pytest.raises(CodecError):
        decode_bids(blob)


def test_bids_trailing_bytes_rejected():
    blob = encode_bids(_bid_submission())
    with pytest.raises(CodecError):
        decode_bids(blob + b"\x00")


# --- the codec's field bounds hold at construction --------------------------
#
# The round core sizes submissions with wire_size() instead of encoding
# them, so a submission the codec would refuse must not exist: each kind
# below overflows one u8/u16/u32 field and fails when it is built.


def _oversized_set():
    return MaskedSet(
        frozenset(n.to_bytes(4, "big") for n in range(U16_MAX + 1)), digest_bytes=4
    )


def _location(**overrides):
    loc = submit_location(6, (12, 25), KEYRING.g0, GRID, 4)
    fields = dict(
        user_id=loc.user_id, x_family=loc.x_family, x_range=loc.x_range,
        y_family=loc.y_family, y_range=loc.y_range,
    )
    fields.update(overrides)
    return LocationSubmission(**fields)


def test_every_ppbs_submission_field_bound_fails_at_construction():
    sub = _bid_submission()
    good = sub.channel_bids[0]
    assert _location().wire_size() == len(encode_location(_location()))
    with pytest.raises(CodecError, match="u16"):
        _location(x_range=_oversized_set())
    with pytest.raises(CodecError, match="u32"):
        _location(user_id=U32_MAX + 1)
    with pytest.raises(CodecError, match="u16"):
        MaskedBid(family=_oversized_set(), tail=good.tail, ciphertext=good.ciphertext)
    with pytest.raises(CodecError, match="ciphertext length"):
        MaskedBid(family=good.family, tail=good.tail, ciphertext=b"\x00" * (U16_MAX + 1))
    with pytest.raises(CodecError, match="channel count"):
        BidSubmission(user_id=1, channel_bids=(good,) * (U16_MAX + 1))
    with pytest.raises(CodecError, match="u32"):
        BidSubmission(user_id=-1, channel_bids=(good,))
    # The standalone masked-set encoder keeps its own count check.
    with pytest.raises(CodecError):
        encode_masked_set(_oversized_set())


def test_every_bloom_submission_field_bound_fails_at_construction():
    loc = submit_location_bloom(3, (10, 20), KEYRING.g0, GRID, 4)
    bids = submit_bids_ope(3, [5, 0, 22], KEYRING, SCALE, random.Random(0))[0]
    bid = bids.channel_bids[0]
    with pytest.raises(CodecError, match="u8"):
        BloomLocationSubmission(
            user_id=3, cell_token=b"\x00" * 256, range_filter=loc.range_filter
        )
    with pytest.raises(CodecError, match="u32"):
        BloomLocationSubmission(
            user_id=U32_MAX + 1, cell_token=loc.cell_token, range_filter=loc.range_filter
        )
    with pytest.raises(CodecError, match="ciphertext length"):
        OpeBid(ope_value=1, ope_bytes=bid.ope_bytes, ciphertext=b"\x00" * (U16_MAX + 1))
    with pytest.raises(CodecError, match="u8"):
        OpeBid(ope_value=1, ope_bytes=256, ciphertext=bid.ciphertext)
    with pytest.raises(CodecError, match="channel count"):
        OpeBidSubmission(user_id=3, channel_bids=(bid,) * (U16_MAX + 1))
    with pytest.raises(CodecError, match="u32"):
        OpeBidSubmission(user_id=U32_MAX + 1, channel_bids=(bid,))


def test_codec_error_is_a_value_error():
    assert issubclass(CodecError, ValueError)


def test_digest_width_above_u8_raises_codec_error():
    # A MaskedSet may hold digests wider than the u8 width field carries;
    # encoding one must raise the codec's one reject signal, not leak
    # struct.error from the header pack.
    masked = MaskedSet(frozenset({b"w" * 256}), digest_bytes=256)
    with pytest.raises(CodecError, match="u8 digest-length"):
        encode_masked_set(masked)
    widest = MaskedSet(frozenset({b"w" * 255}), digest_bytes=255)
    assert decode_masked_set(encode_masked_set(widest))[0] == widest
