"""Property-based checks of the masked membership layer (Hypothesis).

The protocol's correctness rests on one equivalence: set intersection over
HMAC digests computes integer comparison.  These properties drive the
masked primitives with generated widths, values and ranges and assert they
agree with the plain-integer answer — plus the advanced scheme's padding
invariant (``Q([a, b])`` always ships exactly ``2w - 2`` digests, so the
set size leaks nothing about the range width).

``derandomize=True`` keeps the suite reproducible run to run; the examples
still cover the corner cases (width 2, empty-interior ranges, full-domain
ranges) via Hypothesis's shrinking heuristics.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.prefix.membership import (
    is_member,
    mask_range,
    mask_value,
)
from repro.prefix.ranges import max_cover_size
from tests.lppa.oracles import find_maxima

KEY = b"membership-properties"
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def value_and_range(draw):
    """A width, one value and one ordered range, all inside the domain."""
    width = draw(st.integers(min_value=2, max_value=10))
    top = (1 << width) - 1
    x = draw(st.integers(min_value=0, max_value=top))
    a = draw(st.integers(min_value=0, max_value=top))
    b = draw(st.integers(min_value=0, max_value=top))
    low, high = min(a, b), max(a, b)
    return width, x, low, high


@st.composite
def bid_vector(draw):
    """A width plus 2..8 bids over that domain."""
    width = draw(st.integers(min_value=2, max_value=8))
    top = (1 << width) - 1
    bids = draw(
        st.lists(
            st.integers(min_value=0, max_value=top), min_size=2, max_size=8
        )
    )
    return width, bids


@PROPERTY_SETTINGS
@given(value_and_range())
def test_is_member_equals_integer_comparison(case):
    width, x, low, high = case
    family = mask_value(KEY, x, width)
    cover = mask_range(KEY, low, high, width)
    assert is_member(family, cover) == (low <= x <= high)


@PROPERTY_SETTINGS
@given(value_and_range())
def test_is_member_survives_padding(case):
    """Random filler digests never flip the membership answer."""
    width, x, low, high = case
    family = mask_value(KEY, x, width)
    padded = mask_range(
        KEY,
        low,
        high,
        width,
        pad_to=2 * width - 2,
        rng=random.Random(f"pad-{width}-{low}-{high}"),
    )
    assert is_member(family, padded) == (low <= x <= high)


@PROPERTY_SETTINGS
@given(value_and_range())
def test_padded_cover_cardinality_is_2w_minus_2(case):
    """The advanced scheme's invariant: every padded cover has 2w - 2 digests."""
    width, _, low, high = case
    padded = mask_range(
        KEY,
        low,
        high,
        width,
        pad_to=2 * width - 2,
        rng=random.Random(0),
    )
    assert len(padded) == 2 * width - 2
    assert max_cover_size(width) == 2 * width - 2


@PROPERTY_SETTINGS
@given(bid_vector())
def test_find_maxima_equals_integer_argmax(case):
    width, bids = case
    top = (1 << width) - 1
    families = [mask_value(KEY, b, width) for b in bids]
    tails = [mask_range(KEY, b, top, width) for b in bids]
    best = max(bids)
    assert find_maxima(families, tails) == [
        i for i, b in enumerate(bids) if b == best
    ]


@PROPERTY_SETTINGS
@given(bid_vector())
def test_find_maxima_with_padded_tails(case):
    """The auctioneer sees only padded covers; the argmax must not change."""
    width, bids = case
    top = (1 << width) - 1
    families = [mask_value(KEY, b, width) for b in bids]
    tails = [
        mask_range(
            KEY,
            b,
            top,
            width,
            pad_to=2 * width - 2,
            rng=random.Random(f"tail-{width}-{i}"),
        )
        for i, b in enumerate(bids)
    ]
    best = max(bids)
    assert find_maxima(families, tails) == [
        i for i, b in enumerate(bids) if b == best
    ]
