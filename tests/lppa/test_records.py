"""Every per-SU and per-channel protocol record survives pickle, copy and
``dataclasses.replace``, and carries no instance ``__dict__``.

A round builds one of these records per SU or per channel, in both
schemes, so they are slotted frozen dataclasses.  A record that crosses a
process boundary (a sweep worker returns results carrying disclosures)
travels through ``pickle``; the net server renumbers submissions through
``dataclasses.replace``.  Each way of remaking a record must give one that
equals the original, hashes like it and carries the same stored sizes.
A :class:`PaddedSet` keeps its two parts, not a joined set, through every
copy.
"""

import copy
import dataclasses
import pickle
import random

import pytest

from repro.crypto.keys import generate_keyring
from repro.geo.grid import GridSpec
from repro.lppa.bids_advanced import (
    BidScale,
    ChannelDisclosure,
    SubmissionDisclosure,
    submit_population_bids,
)
from repro.lppa.bids_ope import OpeBid, OpeBidSubmission
from repro.lppa.codec import encode_bids, encode_location, encode_masked_set
from repro.lppa.location import submit_locations
from repro.lppa.location_bloom import BloomFilter, BloomLocationSubmission
from repro.lppa.messages import BidSubmission, LocationSubmission, MaskedBid
from repro.lppa.schemes.registry import get_scheme
from repro.prefix.membership import MaskedSet, PaddedSet

SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"records", 3, rd=SCALE.rd, cr=SCALE.cr)
GRID = GridSpec(rows=40, cols=40)
CELLS = [(3, 4), (17, 30), (39, 0)]
BIDS = [[7, 0, 30], [0, 12, 1], [5, 5, 5]]

SLOTTED = (
    MaskedSet,
    PaddedSet,
    MaskedBid,
    BidSubmission,
    LocationSubmission,
    ChannelDisclosure,
    SubmissionDisclosure,
    BloomFilter,
    BloomLocationSubmission,
    OpeBid,
    OpeBidSubmission,
)


def _ppbs_records():
    rngs = [random.Random(seed) for seed in range(len(BIDS))]
    bid_subs, disclosures = submit_population_bids(BIDS, KEYRING, SCALE, rngs)
    locations = submit_locations(CELLS, KEYRING.g0, GRID, 6)
    # The codec's memo must travel (or not) without changing the record.
    encode_location(locations[0])
    bid = bid_subs[0].channel_bids[0]
    return [
        bid.family,
        bid.tail,
        bid,
        bid_subs[0],
        locations[0],
        disclosures[1].channels[1],
        disclosures[1],
        locations[1].x_range,
    ]


def _bloom_records():
    scheme = get_scheme("bloom")
    (location,) = scheme.submit_locations(CELLS[:1], KEYRING.g0, GRID, 6)
    bids, disclosure = scheme.make_bids(0, BIDS[0], KEYRING, SCALE, random.Random(9))
    return [location.range_filter, location, bids.channel_bids[0], bids, disclosure]


def _records():
    # Built per test, never held at module level: the net memory tests
    # count every submission alive in the process.
    return _ppbs_records() + _bloom_records()


def _declared(record):
    """A record's declared fields, its stored sizes included."""
    names = [f.name for f in dataclasses.fields(record)]
    if type(record) is PaddedSet:
        names = ["genuine", "fillers", "digest_bytes", "encoded"]
    return {name: getattr(record, name) for name in names}


def _same(again, record):
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert _declared(again) == _declared(record)


def test_stored_sizes_and_the_codec_memo_stay_out_of_repr():
    for record in _records():
        text = repr(record)
        assert "payload_bytes" not in text and "encoded" not in text


def test_every_record_kind_is_covered():
    assert {type(record) for record in _records()} == set(SLOTTED)


@pytest.mark.parametrize("kind", SLOTTED, ids=lambda kind: kind.__name__)
def test_no_record_has_an_instance_dict(kind):
    assert "__slots__" in vars(kind)
    for record in _records():
        if type(record) is kind:
            assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_records_round_trip_through_pickle(protocol):
    for record in _records():
        _same(pickle.loads(pickle.dumps(record, protocol=protocol)), record)


def test_records_round_trip_through_copy_and_deepcopy():
    for record in _records():
        _same(copy.copy(record), record)
        _same(copy.deepcopy(record), record)


def test_records_round_trip_through_replace():
    for record in _records():
        if type(record) is not PaddedSet:  # its own test below
            _same(dataclasses.replace(record), record)


def test_the_batch_makers_build_what_the_checked_constructors_build():
    """The batch writes slots through their descriptors; the records it
    makes are the ones the checked constructors make, sizes included."""
    family, tail, bid, submission, _, disclosure = _ppbs_records()[:6]
    checked_family = MaskedSet(family.digests, family.digest_bytes)
    assert family == checked_family and hash(family) == hash(checked_family)
    assert PaddedSet(tail.digests, tail.digest_bytes) == tail
    _same(bid, MaskedBid(bid.family, bid.tail, bid.ciphertext))
    _same(submission, BidSubmission(submission.user_id, submission.channel_bids))
    _same(disclosure, ChannelDisclosure(**_declared(disclosure)))


def test_a_replaced_submission_is_checked_and_resized():
    """``dataclasses.replace`` runs the checked constructor, so a
    renumbered submission's sizes and encoding are its own."""
    bid_sub = _ppbs_records()[3]
    moved = dataclasses.replace(bid_sub, user_id=7)
    assert moved.user_id == 7 and moved.wire_size() == len(encode_bids(moved))
    assert moved.material_bytes() == bid_sub.material_bytes()
    shorter = dataclasses.replace(bid_sub, channel_bids=bid_sub.channel_bids[:1])
    assert shorter.wire_size() == len(encode_bids(shorter))
    with pytest.raises(ValueError, match="at least one channel"):
        dataclasses.replace(bid_sub, channel_bids=())
    with pytest.raises(ValueError, match="u32"):
        dataclasses.replace(_ppbs_records()[4], user_id=-1)


def test_a_padded_tail_keeps_its_parts_through_every_copy():
    tail = _ppbs_records()[1]
    assert type(tail) is PaddedSet and tail.fillers
    for again in (pickle.loads(pickle.dumps(tail)), copy.deepcopy(tail)):
        assert again.genuine == tail.genuine and again.fillers == tail.fillers
    # replace() is PaddedSet's checked constructor: all digests genuine.
    rebuilt = dataclasses.replace(tail)
    assert type(rebuilt) is PaddedSet and rebuilt == tail
    assert hash(rebuilt) == hash(tail) and rebuilt.wire_bytes() == tail.wire_bytes()
    assert rebuilt.genuine == tail.digests and rebuilt.fillers == b""
    with pytest.raises(ValueError, match="digest_bytes length"):
        dataclasses.replace(tail, digest_bytes=8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tail.fillers = b""


def test_the_codec_memo_is_outside_equality_and_never_on_a_tail():
    family, tail = _ppbs_records()[:2]
    fresh = MaskedSet(family.digests, family.digest_bytes)
    assert fresh.encoded is None
    wire = encode_masked_set(family)
    assert family.encoded == wire and fresh == family and hash(fresh) == hash(family)
    assert encode_masked_set(family) == wire == encode_masked_set(fresh)
    encode_masked_set(tail)
    assert tail.encoded is None
