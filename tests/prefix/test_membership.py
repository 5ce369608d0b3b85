"""HMAC-masked membership verification and max-finding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix.membership import (
    MaskedSet,
    MaskSpec,
    _spec_messages,
    is_member,
    mask_range,
    mask_value,
)
from repro.prefix.numericalize import numericalize, numericalized_to_bytes
from repro.prefix.prefixes import prefix_family
from repro.prefix.ranges import max_cover_size, range_cover
from tests.lppa.oracles import find_maxima

KEY = b"test-key"


def test_paper_worked_example():
    """7 in [6, 14]: the masked sets share the digest of 01110."""
    family = mask_value(KEY, 7, 4)
    cover = mask_range(KEY, 6, 14, 4)
    assert is_member(family, cover)


def test_non_membership():
    cover = mask_range(KEY, 6, 14, 4)
    assert not is_member(mask_value(KEY, 5, 4), cover)
    assert not is_member(mask_value(KEY, 15, 4), cover)


def test_different_keys_never_match():
    family = mask_value(b"key-a", 7, 4)
    cover = mask_range(b"key-b", 0, 15, 4)
    assert not is_member(family, cover)


def test_domain_separation():
    family = mask_value(KEY, 7, 4, domain=b"x")
    cover_x = mask_range(KEY, 0, 15, 4, domain=b"x")
    cover_y = mask_range(KEY, 0, 15, 4, domain=b"y")
    assert is_member(family, cover_x)
    assert not is_member(family, cover_y)


def test_padding_fixes_cardinality():
    width = 4
    pad = max_cover_size(width)
    narrow = mask_range(KEY, 10, 14, width, pad_to=pad, rng=random.Random(1))
    wide = mask_range(KEY, 5, 14, width, pad_to=pad, rng=random.Random(2))
    assert len(narrow) == len(wide) == pad


def test_unpadded_cardinality_leaks():
    """The leak the advanced scheme closes: range width shows in set size."""
    assert len(mask_range(KEY, 10, 14, 4)) != len(mask_range(KEY, 5, 14, 4))


def test_padding_preserves_membership_semantics():
    width = 6
    cover = mask_range(
        KEY, 20, 40, width, pad_to=max_cover_size(width), rng=random.Random(3)
    )
    for x in (19, 20, 30, 40, 41):
        assert is_member(mask_value(KEY, x, width), cover) == (20 <= x <= 40)


def test_masked_set_validation():
    with pytest.raises(ValueError):
        MaskedSet(frozenset({b"short"}), digest_bytes=16)
    with pytest.raises(ValueError, match="digest_bytes length"):
        MaskedSet(frozenset({b"a" * 16, b"b" * 15}), digest_bytes=16)
    with pytest.raises(ValueError):
        MaskedSet(frozenset(), digest_bytes=2)
    assert len(MaskedSet(frozenset(), digest_bytes=16)) == 0


# --- memoised HMAC inputs ---------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    low=st.integers(min_value=0, max_value=255),
    span=st.integers(min_value=0, max_value=255),
    domain=st.binary(max_size=12),
)
def test_memoised_messages_equal_the_uncached_construction(low, span, domain):
    width = 9
    high = min(low + span, (1 << width) - 1)
    for prefixes in (prefix_family(low, width), range_cover(low, high, width)):
        spec = MaskSpec.of(KEY, prefixes, domain=domain)
        expected = tuple(
            domain + numericalized_to_bytes(numericalize(p), p.width)
            for p in prefixes
        )
        assert spec.messages() == expected
        assert spec.messages() == expected  # a cache hit returns the same


def test_message_memo_is_bounded_and_keyless():
    info = _spec_messages.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 65536
    # The memo is keyed on public inputs only: two HMAC keys share an entry.
    prefixes = tuple(prefix_family(5, 4))
    before = _spec_messages.cache_info().hits
    MaskSpec.of(b"key-a", prefixes).messages()
    MaskSpec.of(b"key-b", prefixes).messages()
    assert _spec_messages.cache_info().hits >= before + 1


def test_wire_bytes():
    family = mask_value(KEY, 7, 4, digest_bytes=8)
    assert family.wire_bytes() == 5 * 8  # (w + 1) digests of 8 bytes


def test_find_maxima_paper_bids():
    """Fig. 3's bids {6, 10, 0, 5} with bmax = 14: bidder 1 holds the max."""
    bids = [6, 10, 0, 5]
    families = [mask_value(KEY, b, 4) for b in bids]
    tails = [mask_range(KEY, b, 14, 4) for b in bids]
    assert find_maxima(families, tails) == [1]


def test_find_maxima_reports_all_ties():
    bids = [9, 3, 9, 9]
    families = [mask_value(KEY, b, 4) for b in bids]
    tails = [mask_range(KEY, b, 15, 4) for b in bids]
    assert find_maxima(families, tails) == [0, 2, 3]


def test_find_maxima_validates_lengths():
    with pytest.raises(ValueError):
        find_maxima([mask_value(KEY, 1, 4)], [])


def test_pairwise_order_comparison():
    """G(b_i) vs Q([b_j, bmax]) answers b_i >= b_j — the attacker's oracle."""
    width, bmax = 5, 31
    values = [0, 3, 17, 17, 31]
    families = [mask_value(KEY, v, width) for v in values]
    tails = [mask_range(KEY, v, bmax, width) for v in values]
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            assert is_member(families[i], tails[j]) == (vi >= vj)


@st.composite
def _value_and_range(draw):
    width = draw(st.integers(min_value=1, max_value=9))
    x = draw(st.integers(min_value=0, max_value=2**width - 1))
    low = draw(st.integers(min_value=0, max_value=2**width - 1))
    high = draw(st.integers(min_value=low, max_value=2**width - 1))
    return width, x, low, high


@settings(max_examples=100, deadline=None)
@given(_value_and_range())
def test_membership_equals_interval_test(case):
    width, x, low, high = case
    family = mask_value(KEY, x, width)
    cover = mask_range(KEY, low, high, width)
    assert is_member(family, cover) == (low <= x <= high)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=10)
)
def test_find_maxima_equals_argmax(bids):
    width, bmax = 6, 63
    families = [mask_value(KEY, b, width) for b in bids]
    tails = [mask_range(KEY, b, bmax, width) for b in bids]
    best = max(bids)
    assert find_maxima(families, tails) == [
        i for i, b in enumerate(bids) if b == best
    ]
