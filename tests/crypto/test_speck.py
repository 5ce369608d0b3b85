"""Speck64/128 and its CTR mode."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.speck import Speck64128, ctr_decrypt, ctr_encrypt, ctr_encrypt_batch

# The official Speck64/128 test vector (Beaulieu et al., Appendix C):
# key = 1b1a1918 13121110 0b0a0908 03020100, plaintext = 3b726574 7475432d,
# ciphertext = 8c6fa548 454e028b.
OFFICIAL_KEY = struct.pack("<4I", 0x03020100, 0x0B0A0908, 0x13121110, 0x1B1A1918)
OFFICIAL_PT = struct.pack("<2I", 0x7475432D, 0x3B726574)
OFFICIAL_CT = struct.pack("<2I", 0x454E028B, 0x8C6FA548)


def test_official_vector_encrypt():
    assert Speck64128(OFFICIAL_KEY).encrypt_block(OFFICIAL_PT) == OFFICIAL_CT


def test_official_vector_decrypt():
    assert Speck64128(OFFICIAL_KEY).decrypt_block(OFFICIAL_CT) == OFFICIAL_PT


def test_wrong_key_size_rejected():
    with pytest.raises(ValueError):
        Speck64128(b"short")


@pytest.mark.parametrize("bad", [b"", b"7bytes!", b"9 bytes!!"])
def test_wrong_block_size_rejected(bad):
    cipher = Speck64128(OFFICIAL_KEY)
    with pytest.raises(ValueError):
        cipher.encrypt_block(bad)
    with pytest.raises(ValueError):
        cipher.decrypt_block(bad)


@settings(max_examples=50, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=8, max_size=8))
def test_block_roundtrip(key, block):
    cipher = Speck64128(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=4, max_size=4),
    payload=st.binary(max_size=100),
)
def test_ctr_roundtrip(key, nonce, payload):
    cipher = Speck64128(key)
    assert ctr_decrypt(cipher, nonce, ctr_encrypt(cipher, nonce, payload)) == payload


def test_ctr_distinct_nonces_give_distinct_ciphertexts():
    cipher = Speck64128(OFFICIAL_KEY)
    payload = b"\x00" * 16
    assert ctr_encrypt(cipher, b"aaaa", payload) != ctr_encrypt(cipher, b"bbbb", payload)


def test_ctr_preserves_length():
    cipher = Speck64128(OFFICIAL_KEY)
    for size in (0, 1, 7, 8, 9, 31):
        assert len(ctr_encrypt(cipher, b"nonc", b"x" * size)) == size


def test_ctr_rejects_bad_nonce():
    cipher = Speck64128(OFFICIAL_KEY)
    with pytest.raises(ValueError):
        ctr_encrypt(cipher, b"toolong!", b"payload")


# --- differential: the optimised cipher == a plain reference --------------
#
# A direct transcription of the Speck paper (rotation helpers, one call per
# rotation, per-byte CTR XOR), kept here so the inlined production rounds
# can be checked against it on random keys, blocks, nonces and payloads.

_MASK32 = 0xFFFFFFFF


def _ref_ror(x, r):
    return ((x >> r) | (x << (32 - r))) & _MASK32


def _ref_rol(x, r):
    return ((x << r) | (x >> (32 - r))) & _MASK32


def _ref_round_keys(key):
    k0, l0, l1, l2 = struct.unpack("<4I", key)
    keys, l = [k0], [l0, l1, l2]
    for i in range(26):
        new_l = ((keys[i] + _ref_ror(l[i], 8)) & _MASK32) ^ i
        l.append(new_l)
        keys.append(_ref_rol(keys[i], 3) ^ new_l)
    return keys


def _ref_encrypt_block(key, block):
    y, x = struct.unpack("<2I", block)
    for k in _ref_round_keys(key):
        x = ((_ref_ror(x, 8) + y) & _MASK32) ^ k
        y = _ref_rol(y, 3) ^ x
    return struct.pack("<2I", y, x)


def _ref_decrypt_block(key, block):
    y, x = struct.unpack("<2I", block)
    for k in reversed(_ref_round_keys(key)):
        y = _ref_ror(y ^ x, 3)
        x = _ref_rol(((x ^ k) - y) & _MASK32, 8)
    return struct.pack("<2I", y, x)


def _ref_ctr(key, nonce, data):
    stream = b""
    counter = 0
    while len(stream) < len(data):
        stream += _ref_encrypt_block(key, nonce + struct.pack("<I", counter))
        counter += 1
    return bytes(p ^ s for p, s in zip(data, stream))


def test_reference_matches_the_official_vector():
    assert _ref_encrypt_block(OFFICIAL_KEY, OFFICIAL_PT) == OFFICIAL_CT
    assert _ref_decrypt_block(OFFICIAL_KEY, OFFICIAL_CT) == OFFICIAL_PT


@settings(max_examples=200, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=8, max_size=8))
def test_blocks_match_the_reference(key, block):
    cipher = Speck64128(key)
    assert cipher.encrypt_block(block) == _ref_encrypt_block(key, block)
    assert cipher.decrypt_block(block) == _ref_decrypt_block(key, block)


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=4, max_size=4),
    payload=st.binary(max_size=70),
)
def test_ctr_matches_the_reference(key, nonce, payload):
    cipher = Speck64128(key)
    expected = _ref_ctr(key, nonce, payload)
    assert ctr_encrypt(cipher, nonce, payload) == expected
    assert ctr_decrypt(cipher, nonce, expected) == payload


# --- lane kernel: many blocks as 64-bit lanes of one int ------------------


@settings(max_examples=100, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    data=st.integers(min_value=1, max_value=64).flatmap(
        lambda n: st.binary(min_size=8 * n, max_size=8 * n)
    ),
)
def test_lanes_match_the_reference_block(key, data):
    """1-64 lanes, random keys and blocks: each lane is the scalar cipher."""
    cipher = Speck64128(key)
    blocks = [data[i : i + 8] for i in range(0, len(data), 8)]
    expected = b"".join(cipher.encrypt_block(block) for block in blocks)
    assert cipher.encrypt_blocks(data) == expected
    assert expected == b"".join(_ref_encrypt_block(key, block) for block in blocks)


@pytest.mark.parametrize("lanes", [1, 2, 7, 64])
def test_official_vector_through_lanes(lanes):
    """The published vector in every lane, and between all-ones blocks."""
    cipher = Speck64128(OFFICIAL_KEY)
    assert cipher.encrypt_blocks(OFFICIAL_PT * lanes) == OFFICIAL_CT * lanes
    ones = b"\xff" * 8
    mixed = cipher.encrypt_blocks((ones + OFFICIAL_PT) * lanes)
    assert mixed[8:16] == OFFICIAL_CT
    assert mixed[-8:] == OFFICIAL_CT


@pytest.mark.parametrize("lanes", [2, 3, 64])
def test_lanes_carry_nothing_into_the_next_lane(lanes):
    """x = 0xFFFFFFFF in every lane makes the unmasked rotation all ones
    across the lane (its own high bits plus the neighbour's spill), so an
    add that were not masked first would carry into the next lane."""
    cipher = Speck64128(OFFICIAL_KEY)
    bait = struct.pack("<2I", 1, _MASK32)
    assert cipher.encrypt_blocks(bait * lanes) == cipher.encrypt_block(bait) * lanes


def test_lanes_reject_partial_blocks_and_accept_none():
    cipher = Speck64128(OFFICIAL_KEY)
    assert cipher.encrypt_blocks(b"") == b""
    with pytest.raises(ValueError):
        cipher.encrypt_blocks(b"x" * 12)


@settings(max_examples=100, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    messages=st.lists(
        st.tuples(st.binary(min_size=4, max_size=4), st.binary(max_size=40)),
        max_size=12,
    ),
)
def test_batch_ctr_equals_per_message_ctr(key, messages):
    """Mixed plaintext lengths (empty, sub-block, multi-block) in one batch."""
    cipher = Speck64128(key)
    nonces = [nonce for nonce, _ in messages]
    payloads = [payload for _, payload in messages]
    batch = ctr_encrypt_batch(cipher, nonces, payloads)
    assert batch == [ctr_encrypt(cipher, n, p) for n, p in messages]
    assert batch == [_ref_ctr(key, n, p) for n, p in messages]


def test_batch_ctr_validates_its_inputs():
    cipher = Speck64128(OFFICIAL_KEY)
    with pytest.raises(ValueError):
        ctr_encrypt_batch(cipher, [b"nonc"], [b"a", b"b"])
    with pytest.raises(ValueError):
        ctr_encrypt_batch(cipher, [b"nonc", b"bad"], [b"a", b"b"])
    assert ctr_encrypt_batch(cipher, [], []) == []
