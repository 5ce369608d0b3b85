"""Pad fillers: one ``getrandbits`` call per tail equals one per filler.

:func:`pad_masked_set` draws all of a tail's fillers in one call and
slices it.  The oracle below is the per-digest loop it replaced; for every
seed, digest size and ceiling the padded set *and* the RNG state after
padding must match it, or every later draw of the round would shift.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix.membership import pad_masked_set


def _per_digest_pad(digests, ceiling, digest_bytes, rng):
    """The historical filler loop: one draw per filler, redraw on collision."""
    while len(digests) < ceiling:
        digests.add(rng.getrandbits(8 * digest_bytes).to_bytes(digest_bytes, "big"))
    return frozenset(digests)


def _genuine(count, digest_bytes, seed):
    source = random.Random(seed ^ 0x5EED)
    return {source.randbytes(digest_bytes) for _ in range(count)}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    digest_bytes=st.sampled_from((4, 5, 6, 8, 12, 16, 20, 32)),
    ceiling=st.integers(min_value=0, max_value=40),
    genuine=st.integers(min_value=0, max_value=44),
)
def test_one_draw_matches_the_per_digest_loop(seed, digest_bytes, ceiling, genuine):
    start = _genuine(genuine, digest_bytes, seed)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    padded = pad_masked_set(
        set(start), ceiling=ceiling, digest_bytes=digest_bytes, rng=rng
    )
    expected = _per_digest_pad(set(start), ceiling, digest_bytes, oracle_rng)
    assert padded.digests == expected
    assert rng.getstate() == oracle_rng.getstate()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    digest_bytes=st.sampled_from((4, 8, 16, 32)),
    ceiling=st.integers(min_value=2, max_value=30),
)
def test_a_colliding_filler_is_redrawn_like_the_loop(seed, digest_bytes, ceiling):
    """Pre-seed the set with the first filler the RNG will produce: the
    one-call draw comes up one short and the redraw loop must run once."""
    probe = random.Random(seed)
    first = probe.getrandbits(8 * digest_bytes).to_bytes(digest_bytes, "big")
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    padded = pad_masked_set(
        {first}, ceiling=ceiling, digest_bytes=digest_bytes, rng=rng
    )
    expected = _per_digest_pad({first}, ceiling, digest_bytes, oracle_rng)
    assert padded.digests == expected
    assert len(padded) == ceiling
    assert rng.getstate() == oracle_rng.getstate()
    # ceiling - 1 fillers were missing; the collision cost exactly one more.
    replay = random.Random(seed)
    for _ in range(ceiling):
        replay.getrandbits(8 * digest_bytes)
    assert rng.getstate() == replay.getstate()
