"""The value-keyed mask cache against the spec-keyed one it replaced.

Hypothesis drives random programs of masking batches and key epochs
through :func:`mask_specs` on a small :class:`MaskCache`, and replays
each step on :class:`~tests.crypto.spec_oracle.SpecKeyedCache`, the
previous design kept as an oracle, and on the cache-bypassed reference
path.  Programs hold repeated values within one batch, one shelf in two
requests of a batch, families and covers over several keys, domains,
digest sizes and widths, partial and full key rotations through
``note_key_epoch``, and LRU pressure at ``max_entries`` 2 to 8.  After
every step the three agree on every set, the cache serves the very
object it stored for every set the oracle found, and the two caches hold
the same names in the same LRU order, with equal hit, miss, eviction and
invalidation counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.crypto.cache import MaskCache, set_mask_cache
from repro.prefix.membership import MaskShelf, mask_specs
from tests.crypto.spec_oracle import (
    SpecKeyedCache,
    flat_names,
    reference_sets,
    spec_key,
)

KEYS = (b"key-0", b"key-1", b"key-2")
DOMAINS = (b"", b"lppa/loc/x")


def values(shelf):
    """Values of ``shelf``'s sets over a small range, so that they repeat
    within and across batches."""
    top = min(5, (1 << shelf.width) - 1)
    value = st.integers(min_value=0, max_value=top)
    if shelf.kind == "cover":
        value = value.flatmap(
            lambda low: st.tuples(st.just(low), st.integers(min_value=low, max_value=top))
        )
    return st.lists(value, min_size=1, max_size=5)


@st.composite
def requests(draw):
    """One ``(shelf, values)`` request."""
    shelf = getattr(MaskShelf, draw(st.sampled_from(("family", "cover"))))(
        draw(st.sampled_from(KEYS)),
        draw(st.sampled_from((3, 5))),
        domain=draw(st.sampled_from(DOMAINS)),
        digest_bytes=draw(st.sampled_from((8, 16))),
    )
    return shelf, draw(values(shelf))


@st.composite
def batches(draw):
    """A batch; half the time it names one shelf in two requests."""
    batch = draw(st.lists(requests(), min_size=1, max_size=3))
    if draw(st.booleans()):
        shelf = batch[0][0]
        batch.append((shelf, draw(values(shelf))))
    return ("batch", batch)


epochs = st.tuples(
    st.just("epoch"), st.one_of(st.none(), st.lists(st.sampled_from(KEYS), unique=True))
)


@settings(max_examples=120, deadline=None)
@given(
    max_entries=st.integers(min_value=2, max_value=8),
    steps=st.lists(st.one_of(batches(), batches(), epochs), min_size=1, max_size=10),
)
def test_value_keyed_cache_matches_the_spec_keyed_oracle(max_entries, steps):
    cache = MaskCache(max_entries)
    oracle = SpecKeyedCache(max_entries)
    served = {}  # spec key -> the object the cache built for it
    previous = set_mask_cache(cache)
    try:
        with obs.collecting() as registry:
            for serial, (op, arg) in enumerate(steps):
                if op == "epoch":
                    # None is a full rotation (clear), a key list a partial
                    # one, and the first epoch of a program drops nothing.
                    fingerprint = b"epoch-%d" % serial
                    assert cache.note_key_epoch(fingerprint, arg) == oracle.note_key_epoch(
                        fingerprint, arg
                    )
                else:
                    got = [m for group in mask_specs(arg) for m in group]
                    expected, found = oracle.mask(arg)
                    assert got == expected == reference_sets(arg)
                    built = {}
                    for name, masked, hit in zip(flat_names(arg), got, found):
                        key = spec_key(*name)
                        if hit:
                            assert masked is served[key]
                        else:  # every repeat of a miss shares its one build
                            assert built.setdefault(key, masked) is masked
                    served.update(built)
                assert cache.names() == oracle.names()
                assert cache.stats() == {
                    "entries": len(oracle.entries),
                    "hits": oracle.hits,
                    "misses": oracle.misses,
                    "evictions": oracle.evictions,
                }
        counters = registry.counters
        for event in ("hits", "misses", "evictions", "invalidations"):
            assert counters.get(f"crypto.mask_cache.{event}", 0) == getattr(oracle, event)
    finally:
        set_mask_cache(previous)
