"""Hypothesis properties of the batch masking API and the digest cache.

Two contracts keep the optimization honest:

* **batch ≡ scalar** — ``mask_specs(specs)`` returns exactly what one
  :func:`mask_prefixes` call per spec would, for arbitrary prefix sets,
  families and covers named by value, keys, domains and digest sizes;
* **warm ≡ cold** — across arbitrary sequences of masking rounds, results
  served from the cache are bit-identical to freshly computed ones, and
  padded range fillers draw the same RNG stream either way.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cache import MaskCache, cache_disabled, set_mask_cache
from repro.prefix.membership import (
    MaskSpec,
    mask_prefixes,
    mask_range,
    mask_specs,
)
from repro.prefix.prefixes import Prefix, prefix_family
from repro.prefix.ranges import range_cover


@st.composite
def prefix_sets(draw):
    """An arbitrary (possibly empty, possibly duplicated) prefix tuple."""
    width = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(("family", "cover", "mixed")))
    if kind == "family":
        x = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        return tuple(prefix_family(x, width))
    if kind == "cover":
        low = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        high = draw(st.integers(min_value=low, max_value=(1 << width) - 1))
        return tuple(range_cover(low, high, width))
    lengths = draw(
        st.lists(st.integers(min_value=0, max_value=width), max_size=8)
    )
    return tuple(
        Prefix(
            draw(st.integers(min_value=0, max_value=(1 << length) - 1)),
            length,
            width,
        )
        for length in lengths
    )


@st.composite
def spec_lists(draw):
    keys = draw(
        st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=3)
    )
    domains = (b"", b"lppa/loc/x", b"lppa/bid/adv")
    n = draw(st.integers(min_value=0, max_value=6))
    return [draw(one_spec(keys, domains)) for _ in range(n)]


@st.composite
def one_spec(draw, keys, domains):
    """An explicit prefix set, or a family/cover named by value."""
    key = draw(st.sampled_from(keys))
    options = {
        "domain": draw(st.sampled_from(domains)),
        "digest_bytes": draw(st.sampled_from((8, 16, 32))),
    }
    kind = draw(st.sampled_from(("explicit", "family", "cover")))
    if kind == "explicit":
        return MaskSpec.of(key, draw(prefix_sets()), **options)
    width = draw(st.integers(min_value=1, max_value=12))
    low = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    if kind == "family":
        return MaskSpec.family(key, low, width, **options)
    high = draw(st.integers(min_value=low, max_value=(1 << width) - 1))
    return MaskSpec.cover(key, low, high, width, **options)


@settings(max_examples=40, deadline=None)
@given(specs=spec_lists())
def test_batch_mask_equals_scalar_loop(specs):
    """batch_mask(prefixes) ≡ [mask(p) for p in prefixes]."""
    with cache_disabled():
        batched = mask_specs(specs)
        scalars = [
            mask_prefixes(
                s.key,
                s.prefixes,
                domain=s.domain,
                digest_bytes=s.digest_bytes,
            )
            for s in specs
        ]
    assert batched == scalars


@settings(max_examples=40, deadline=None)
@given(specs=spec_lists())
def test_cache_hits_equal_cold_path(specs):
    """Round sequences replayed against a warm cache are bit-identical."""
    previous = set_mask_cache(MaskCache())
    try:
        with cache_disabled():
            cold = mask_specs(specs)
        warming = mask_specs(specs)  # populates the fresh cache
        warm = mask_specs(specs)  # served from it
        assert warming == cold
        assert warm == cold
    finally:
        set_mask_cache(previous)


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=12),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_padded_ranges_draw_identical_fillers_warm_or_cold(width, data, seed):
    """The pad RNG stream must not depend on cache state."""
    low = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    high = data.draw(st.integers(min_value=low, max_value=(1 << width) - 1))
    pad_to = data.draw(st.integers(min_value=0, max_value=2 * width + 4))

    def padded(rng):
        return mask_range(b"key", low, high, width, pad_to=pad_to, rng=rng)

    previous = set_mask_cache(MaskCache())
    try:
        with cache_disabled():
            cold = padded(random.Random(seed))
        warming = padded(random.Random(seed))
        warm = padded(random.Random(seed))
        assert warming == cold
        assert warm == cold
    finally:
        set_mask_cache(previous)
