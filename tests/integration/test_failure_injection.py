"""Failure injection: the system's behaviour under corrupted inputs.

A production protocol stack must fail *closed*: tampered digests must not
create phantom conflicts or wins, wrong keys must not decrypt, malformed
wire bytes must raise rather than mis-parse, and the TTP must catch
inconsistent submissions.  Each test here breaks one thing on purpose.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.bids_basic import decrypt_bid_value
from repro.lppa.codec import CodecError, decode_bids, decode_location, encode_bids
from repro.lppa.location import build_private_conflict_graph, submit_location
from repro.lppa.messages import LocationSubmission, MaskedBid
from repro.lppa.psd import masked_rankings
from repro.lppa.ttp import ChargeStatus, TrustedThirdParty
from repro.geo.grid import GridSpec
from repro.prefix.membership import MaskedSet

GRID = GridSpec(rows=32, cols=32, cell_km=1.0)


def _flip_one_digest(masked: MaskedSet) -> MaskedSet:
    digests = sorted(masked.digests)
    corrupted = bytes([digests[0][0] ^ 0x01]) + digests[0][1:]
    return MaskedSet(
        frozenset([corrupted, *digests[1:]]), digest_bytes=masked.digest_bytes
    )


def test_corrupted_location_digest_cannot_create_conflicts():
    """Flipping bits turns digests into random values: membership tests
    go (almost surely) negative, never spuriously positive."""
    keyring = generate_keyring(b"inject", 1)
    near = submit_location(0, (5, 5), keyring.g0, GRID, 6)
    other = submit_location(1, (25, 25), keyring.g0, GRID, 6)
    tampered = LocationSubmission(
        user_id=0,
        x_family=_flip_one_digest(near.x_family),
        x_range=near.x_range,
        y_family=near.y_family,
        y_range=near.y_range,
    )
    graph = build_private_conflict_graph([tampered, other])
    assert not graph.are_conflicting(0, 1)


def test_wrong_gc_key_scrambles_bids():
    keyring = generate_keyring(b"inject", 2, rd=4, cr=8)
    wrong = generate_keyring(b"other", 2, rd=4, cr=8)
    scale = BidScale(bmax=30, rd=4, cr=8)
    sub, disclosure = submit_bids_advanced(
        0, [13, 7], keyring, scale, random.Random(0)
    )
    right = decrypt_bid_value(keyring.gc, sub.channel_bids[0].ciphertext)
    garbled = decrypt_bid_value(wrong.gc, sub.channel_bids[0].ciphertext)
    assert right == disclosure.channels[0].true_expanded
    assert garbled != right


def test_ttp_catches_family_swapped_between_channels():
    """Replaying channel 1's masked sets on channel 0 is caught: the TTP
    recomputes the family under channel 0's key."""
    ttp, keyring, scale = TrustedThirdParty.setup(b"inject", 2, bmax=30)
    sub, _ = submit_bids_advanced(0, [13, 13], keyring, scale, random.Random(1))
    swapped = MaskedBid(
        family=sub.channel_bids[1].family,
        tail=sub.channel_bids[1].tail,
        ciphertext=sub.channel_bids[0].ciphertext,
    )
    assert ttp.process_charge(0, swapped).status is ChargeStatus.CHEATING


def test_masked_table_rejects_mixed_digest_tampering():
    """A corrupted family makes the bid incomparable; the table's total-
    order assertion trips instead of silently mis-ranking."""
    keyring = generate_keyring(b"inject", 1, rd=4, cr=8)
    scale = BidScale(bmax=30, rd=4, cr=8)
    rng = random.Random(2)
    subs = []
    for uid, bid in enumerate([20, 5]):
        sub, _ = submit_bids_advanced(uid, [bid], keyring, scale, rng)
        subs.append(sub)
    # Break every digest of user 0's family.
    broken_family = MaskedSet(
        frozenset(bytes(16) for _ in range(1)), digest_bytes=16
    )
    tampered = type(subs[0])(
        user_id=0,
        channel_bids=(
            MaskedBid(
                family=broken_family,
                tail=subs[0].channel_bids[0].tail,
                ciphertext=subs[0].channel_bids[0].ciphertext,
            ),
        ),
    )
    with pytest.raises(AssertionError):
        masked_rankings([tampered, subs[1]])


@settings(max_examples=80, deadline=None)
@given(blob=st.binary(max_size=300))
def test_codec_never_crashes_on_garbage(blob):
    """Arbitrary bytes either decode (vanishingly unlikely) or raise
    CodecError/ValueError — never an unhandled exception type."""
    for decoder in (decode_bids, decode_location):
        try:
            decoder(blob)
        except (CodecError, ValueError):
            pass


def test_truncated_real_message_raises_cleanly():
    keyring = generate_keyring(b"inject", 1, rd=4, cr=8)
    scale = BidScale(bmax=30, rd=4, cr=8)
    sub, _ = submit_bids_advanced(0, [9], keyring, scale, random.Random(3))
    blob = encode_bids(sub)
    for cut in (1, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CodecError):
            decode_bids(blob[:cut])
