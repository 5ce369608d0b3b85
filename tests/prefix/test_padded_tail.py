"""A padded tail is its cover's digest set plus one blob of fillers.

:func:`pad_masked_set` returns a :class:`PaddedSet` that shares the genuine
cover's frozenset and keeps the fillers as the ``bytes`` they were drawn
in.  As a set it must be exactly what the historical ``frozenset.union``
tail was — digest for digest, with the RNG left in the same state — and
every consumer (the masked index, membership, the codec) must answer on it
what it answers on the plain set.  The structural test at the end fails if
a tail is ever joined into a set of its own again.
"""

import random

import pytest

from repro import obs
from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_population_bids
from repro.lppa.codec import (
    decode_bids,
    decode_masked_set,
    encode_bids,
    encode_masked_set,
)
from repro.prefix.membership import (
    MaskedSet,
    MaskShelf,
    PaddedSet,
    is_member,
    mask_specs,
    pad_masked_set,
    reaches,
    split_digests,
)

WIDTH = 16
SCALE = BidScale(bmax=30, rd=4, cr=8)
KEYRING = generate_keyring(b"padded-tail", 3, rd=4, cr=8)


def _union_pad(genuine, ceiling, digest_bytes, rng):
    """The historical tail: one ``frozenset.union`` of the genuine digests
    and the one-call fillers, then one draw per filler still missing."""
    digests = frozenset(genuine)
    missing = ceiling - len(digests)
    if missing > 0 and digest_bytes % 4 == 0:
        size = missing * digest_bytes
        blob = rng.getrandbits(8 * size).to_bytes(size, "big")
        digests = digests.union(split_digests(blob, digest_bytes))
    grown = set(digests)
    while len(grown) < ceiling:
        grown.add(rng.getrandbits(8 * digest_bytes).to_bytes(digest_bytes, "big"))
    return frozenset(grown)


class ForcedFirstDraw(random.Random):
    """A seeded RNG whose first ``getrandbits`` call returns ``forced``.

    That call still advances the state as the real one would, so every
    later draw, and the end state, are those of the plain seeded RNG.
    """

    def __init__(self, seed, forced):
        super().__init__(seed)
        self._forced = forced

    def getrandbits(self, k):
        drawn = super().getrandbits(k)
        if self._forced is None:
            return drawn
        assert k == 8 * len(self._forced)
        forced, self._forced = self._forced, None
        return int.from_bytes(forced, "big")


def _digest(tag):
    return bytes([tag]) * WIDTH


def test_colliding_fillers_are_redrawn_exactly_like_the_union_path():
    genuine = MaskedSet(frozenset(_digest(k) for k in (1, 2, 3)), WIDTH)
    ceiling = 9
    # Six fillers: the second repeats a genuine digest and the fourth
    # repeats the first, so the one-call draw keeps four of the six.
    forced = b"".join(_digest(k) for k in (10, 2, 11, 10, 12, 13))
    rng, oracle_rng = ForcedFirstDraw(5, forced), ForcedFirstDraw(5, forced)
    with obs.collecting(obs.MetricsRegistry()) as registry:
        tail = pad_masked_set(genuine, ceiling=ceiling, digest_bytes=WIDTH, rng=rng)
    expected = _union_pad(genuine.digests, ceiling, WIDTH, oracle_rng)
    assert tail.digests == expected and len(tail) == ceiling == len(expected)
    assert rng.getstate() == oracle_rng.getstate()
    assert registry.totals()["prefix.masked_digests"] == ceiling - len(genuine)
    # The blob holds the fillers kept, in draw order, then the redraws.
    fillers = list(split_digests(tail.fillers, WIDTH))
    assert fillers[:4] == [_digest(k) for k in (10, 11, 12, 13)]
    assert len(fillers) == len(set(fillers)) == ceiling - len(genuine)
    assert not set(fillers) & genuine.digests
    assert tail.genuine is genuine.digests


def test_a_collision_free_draw_keeps_the_drawn_blob_itself():
    genuine = MaskedSet(frozenset(_digest(k) for k in (1, 2)), WIDTH)
    forced = b"".join(_digest(k) for k in (20, 21, 22))
    tail = pad_masked_set(
        genuine, ceiling=5, digest_bytes=WIDTH, rng=ForcedFirstDraw(0, forced)
    )
    assert tail.fillers == forced


def _tails(seed, count=12):
    rng = random.Random(seed)
    tails = []
    for _ in range(count):
        genuine = MaskedSet(
            frozenset(rng.randbytes(WIDTH) for _ in range(rng.randrange(0, 6))), WIDTH
        )
        tails.append(pad_masked_set(genuine, ceiling=8, digest_bytes=WIDTH, rng=rng))
    return tails


def _plain(tail):
    return MaskedSet(frozenset(tail.digests), tail.digest_bytes)


def test_index_and_membership_answer_the_same_on_both_forms():
    rng = random.Random(3)
    tails = _tails(7)
    plains = [_plain(t) for t in tails]
    # Families that hit genuine digests, fillers, both, or nothing.
    families = []
    for tail in tails:
        genuine = sorted(tail.genuine)
        fillers = list(split_digests(tail.fillers, WIDTH))
        picks = rng.sample(genuine, min(1, len(genuine))) + rng.sample(fillers, 1)
        families.append(MaskedSet(frozenset(picks + [rng.randbytes(WIDTH)]), WIDTH))
        families.append(MaskedSet(frozenset([rng.randbytes(WIDTH)]), WIDTH))
    assert reaches(tails, families) == reaches(plains, families)
    for family in families:
        for tail, plain in zip(tails, plains):
            assert is_member(family, tail) == is_member(family, plain)
            assert tail.intersects(family) == plain.intersects(family)
    for left in tails:
        for right, plain in zip(tails, plains):
            assert left.intersects(right) == left.intersects(plain)


def test_the_codec_round_trips_a_tail_to_an_equal_plain_set():
    for tail in _tails(11):
        encoded = encode_masked_set(tail)
        assert encoded == encode_masked_set(_plain(tail))
        decoded, end = decode_masked_set(encoded)
        assert end == len(encoded) and type(decoded) is MaskedSet
        assert decoded == tail and tail == decoded
        assert hash(decoded) == hash(tail)
        assert len(decoded) == len(tail) and decoded.wire_bytes() == tail.wire_bytes()


def _population(seed, n_users=6):
    rng = random.Random(seed)
    bids = [[rng.randrange(0, SCALE.bmax + 1) for _ in range(3)] for _ in range(n_users)]
    rngs = [random.Random(seed * 100 + i) for i in range(n_users)]
    submissions, disclosures = submit_population_bids(bids, KEYRING, SCALE, rngs)
    return submissions, disclosures


def test_submitted_bids_round_trip_through_the_codec():
    submissions, _ = _population(2)
    for submission in submissions:
        decoded = decode_bids(encode_bids(submission))
        assert decoded == submission
        for sent, received in zip(submission.channel_bids, decoded.channel_bids):
            assert type(sent.tail) is PaddedSet and type(received.tail) is MaskedSet


def test_a_padded_tail_shares_its_cover_and_keeps_its_fillers_as_one_blob():
    """The structural guard: a tail holds the cached cover's very digest
    set, one ``bytes`` blob of fillers and its width — no set of its own."""
    submissions, disclosures = _population(4)
    keys = [KEYRING.channel_key(channel) for channel in range(3)]
    for submission, disclosure in zip(submissions, disclosures):
        for key, channel_bid, record in zip(
            keys, submission.channel_bids, disclosure.channels
        ):
            tail = channel_bid.tail
            ((cover,),) = mask_specs(
                [
                    (
                        MaskShelf.cover(key, SCALE.width, domain=b"lppa/bid/adv"),
                        [(record.masked_expanded, SCALE.emax)],
                    )
                ]
            )
            assert type(tail) is PaddedSet
            assert tail.genuine is cover.digests
            assert type(tail.fillers) is bytes
            assert len(tail.fillers) == (SCALE.pad_to - len(cover)) * WIDTH
            assert len(tail) == SCALE.pad_to
            assert not hasattr(tail, "__dict__")
            assert PaddedSet.__slots__ == ("genuine", "fillers")
            assert {
                name: getattr(tail, name)
                for name in ("genuine", "fillers", "digest_bytes", "encoded")
            } == {
                "genuine": cover.digests,
                "fillers": tail.fillers,
                "digest_bytes": WIDTH,
                "encoded": None,
            }
            # The digests slot a tail inherits from MaskedSet stays empty.
            with pytest.raises(AttributeError):
                MaskedSet.__dict__["digests"].__get__(tail)
