"""Pad fillers: one ``getrandbits`` call per tail equals one per filler.

:func:`pad_masked_set` draws all of a tail's fillers in one call and
slices it.  The oracle below is the per-digest loop it replaced; for every
seed, digest size and ceiling the padded set *and* the RNG state after
padding must match it, or every later draw of the round would shift.  The
genuine digests may come as a set, a frozenset or a :class:`MaskedSet`
(a cached cover); whichever it is, padding must leave it unchanged.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix.membership import MaskedSet, pad_masked_set


def _per_digest_pad(digests, ceiling, digest_bytes, rng):
    """The historical filler loop: one draw per filler, redraw on collision."""
    while len(digests) < ceiling:
        digests.add(rng.getrandbits(8 * digest_bytes).to_bytes(digest_bytes, "big"))
    return frozenset(digests)


def _genuine(count, digest_bytes, seed):
    source = random.Random(seed ^ 0x5EED)
    return {source.randbytes(digest_bytes) for _ in range(count)}


#: The forms a tail's genuine digests reach ``pad_masked_set`` in.
INPUT_FORMS = {
    "set": set,
    "frozenset": frozenset,
    "masked": lambda digests, digest_bytes: MaskedSet(frozenset(digests), digest_bytes),
}


def _as_input(form, digests, digest_bytes):
    if form == "masked":
        return INPUT_FORMS[form](digests, digest_bytes)
    return INPUT_FORMS[form](digests)


def _unchanged(genuine, start):
    digests = genuine.digests if isinstance(genuine, MaskedSet) else genuine
    return set(digests) == start


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    digest_bytes=st.sampled_from((4, 5, 6, 8, 12, 16, 20, 32)),
    ceiling=st.integers(min_value=0, max_value=40),
    genuine=st.integers(min_value=0, max_value=44),
    form=st.sampled_from(sorted(INPUT_FORMS)),
)
def test_one_draw_matches_the_per_digest_loop(seed, digest_bytes, ceiling, genuine, form):
    start = _genuine(genuine, digest_bytes, seed)
    given_set = _as_input(form, start, digest_bytes)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    padded = pad_masked_set(
        given_set, ceiling=ceiling, digest_bytes=digest_bytes, rng=rng
    )
    expected = _per_digest_pad(set(start), ceiling, digest_bytes, oracle_rng)
    assert padded.digests == expected
    assert rng.getstate() == oracle_rng.getstate()
    assert _unchanged(given_set, start)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    digest_bytes=st.sampled_from((4, 8, 16, 32)),
    ceiling=st.integers(min_value=2, max_value=30),
    form=st.sampled_from(sorted(INPUT_FORMS)),
)
def test_a_colliding_filler_is_redrawn_like_the_loop(seed, digest_bytes, ceiling, form):
    """Pre-seed the set with the first filler the RNG will produce: the
    one-call draw comes up one short and the redraw loop must run once."""
    probe = random.Random(seed)
    first = probe.getrandbits(8 * digest_bytes).to_bytes(digest_bytes, "big")
    given_set = _as_input(form, {first}, digest_bytes)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    padded = pad_masked_set(
        given_set, ceiling=ceiling, digest_bytes=digest_bytes, rng=rng
    )
    assert _unchanged(given_set, {first})
    expected = _per_digest_pad({first}, ceiling, digest_bytes, oracle_rng)
    assert padded.digests == expected
    assert len(padded) == ceiling
    assert rng.getstate() == oracle_rng.getstate()
    # ceiling - 1 fillers were missing; the collision cost exactly one more.
    replay = random.Random(seed)
    for _ in range(ceiling):
        replay.getrandbits(8 * digest_bytes)
    assert rng.getstate() == replay.getstate()
