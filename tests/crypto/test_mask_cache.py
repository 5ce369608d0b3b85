"""MaskCache unit semantics: LRU bounds, epochs, counters, global toggles,
and the cached ``MaskedSet`` values: shared, never changed, never stale."""

import random

import pytest

from repro import obs
from repro.crypto.cache import (
    MaskCache,
    cache_disabled,
    cache_enabled,
    get_mask_cache,
    set_mask_cache,
)
from repro.geo.grid import GridSpec
from repro.lppa.location import submit_location, submit_locations
from repro.prefix.membership import MaskSpec, mask_specs, pad_masked_set
from repro.prefix.prefixes import prefix_family
from repro.prefix.ranges import range_cover


@pytest.fixture()
def cache():
    """A small, fresh cache installed as the process cache for one test."""
    fresh = MaskCache(max_entries=4)
    previous = set_mask_cache(fresh)
    yield fresh
    set_mask_cache(previous)


def _key(n):
    return (b"k%d" % n, b"", 16, (b"m%d" % n,))


def test_get_put_and_counters(cache):
    assert cache.get(_key(1)) is None
    cache.put(_key(1), (b"d" * 16,))
    assert cache.get(_key(1)) == (b"d" * 16,)
    assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}


def test_lru_eviction_order(cache):
    for n in range(4):
        cache.put(_key(n), (bytes(16),))
    cache.get(_key(0))  # refresh 0: now 1 is least recent
    cache.put(_key(9), (bytes(16),))
    assert cache.get(_key(1)) is None  # evicted
    assert cache.get(_key(0)) is not None
    assert cache.evictions == 1


def test_reput_does_not_grow(cache):
    cache.put(_key(1), (bytes(16),))
    cache.put(_key(1), (bytes(16),))
    assert len(cache) == 1


def test_rejects_silly_capacity():
    with pytest.raises(ValueError):
        MaskCache(max_entries=0)


def test_epoch_transition_clears(cache):
    cache.put(_key(1), (bytes(16),))
    assert cache.note_key_epoch(b"epoch-A") is False  # first epoch: no clear
    assert len(cache) == 1
    assert cache.note_key_epoch(b"epoch-A") is False  # same epoch: no clear
    assert len(cache) == 1
    assert cache.note_key_epoch(b"epoch-B") is True  # new epoch: dropped
    assert len(cache) == 0
    assert cache.epoch == b"epoch-B"


def test_epoch_transition_with_live_keys_is_selective(cache):
    cache.put(_key(1), (bytes(16),))
    cache.put(_key(2), (bytes(16),))
    cache.note_key_epoch(b"epoch-A", [b"k1", b"k2"])
    # Partial rotation: k1 survives, k2 is retired.
    with obs.collecting() as registry:
        assert cache.note_key_epoch(b"epoch-B", [b"k1", b"k3"]) is True
    assert cache.get(_key(1)) is not None
    assert cache.get(_key(2)) is None
    assert registry.counters["crypto.mask_cache.invalidations"] == 1


def test_epoch_transition_with_all_keys_live_drops_nothing(cache):
    cache.put(_key(1), (bytes(16),))
    cache.note_key_epoch(b"epoch-A", [b"k1"])
    with obs.collecting() as registry:
        # New fingerprint but every cached key still live (e.g. only gc,
        # which never masks, rotated): zero invalidation events.
        assert cache.note_key_epoch(b"epoch-B", [b"k1"]) is True
    assert len(cache) == 1
    assert "crypto.mask_cache.invalidations" not in registry.counters


def test_drop_stale_keys_counts_dropped_entries(cache):
    for n in range(3):
        cache.put(_key(n), (bytes(16),))
    assert cache.drop_stale_keys([b"k0"]) == 2
    assert len(cache) == 1
    assert cache.drop_stale_keys([b"k0"]) == 0


def test_cache_disabled_context_restores(cache):
    assert cache_enabled()
    with cache_disabled():
        assert not cache_enabled()
        specs = [MaskSpec.of(b"k", prefix_family(3, 4))]
        mask_specs(specs)
        assert len(cache) == 0  # bypassed entirely: no store, no counters
    assert cache_enabled()
    assert cache.stats()["misses"] == 0


def test_mask_specs_populates_process_cache(cache):
    specs = [MaskSpec.of(b"k", prefix_family(3, 4))]
    first = mask_specs(specs)
    assert cache.stats() == {"entries": 1, "hits": 0, "misses": 1, "evictions": 0}
    second = mask_specs(specs)
    assert cache.stats()["hits"] == 1
    assert second == first


def test_obs_counters_follow_cache_events(cache):
    specs = [MaskSpec.of(b"k", prefix_family(3, 4))]
    with obs.collecting() as registry:
        mask_specs(specs)
        mask_specs(specs)
        cache.clear()
    counters = registry.counters
    assert counters["crypto.mask_cache.misses"] == 1
    assert counters["crypto.mask_cache.hits"] == 1
    assert counters["crypto.mask_cache.invalidations"] == 1
    assert counters["crypto.hmac_batches"] == 1  # second call was all hits


def test_distinct_digest_bytes_are_distinct_entries(cache):
    fam = prefix_family(3, 4)
    wide = mask_specs([MaskSpec.of(b"k", fam, digest_bytes=32)])[0]
    narrow = mask_specs([MaskSpec.of(b"k", fam, digest_bytes=8)])[0]
    assert len(cache) == 2
    assert {d[:8] for d in wide.digests} == set(narrow.digests)


def test_process_default_cache_exists():
    assert isinstance(get_mask_cache(), MaskCache)


# -- cached values are finished MaskedSets ------------------------------------


def test_a_warm_lookup_returns_the_cached_set_itself(cache):
    specs = [MaskSpec.family(b"k", 5, 8), MaskSpec.cover(b"k", 3, 200, 8)]
    cold = mask_specs(specs)
    warm = mask_specs(specs)
    assert all(w is c for w, c in zip(warm, cold))


def test_repeats_in_one_batch_share_one_set(cache):
    spec = MaskSpec.family(b"k", 5, 8)
    first, second = mask_specs([spec, spec])
    assert first is second
    assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}


def test_padding_a_cached_cover_leaves_it_unchanged(cache):
    spec = MaskSpec.cover(b"k", 3, 200, 8)
    cover = mask_specs([spec])[0]
    genuine = set(cover.digests)
    padded = pad_masked_set(cover, ceiling=14, digest_bytes=16, rng=random.Random(1))
    assert len(padded) == 14 and genuine < set(padded.digests)
    again = mask_specs([spec])[0]
    assert again is cover
    assert set(again.digests) == genuine
    assert len(again) == len(range_cover(3, 200, 8))


def test_a_rotated_key_misses(cache):
    old = mask_specs([MaskSpec.family(b"old-key", 5, 8)])[0]
    with obs.collecting() as registry:
        new = mask_specs([MaskSpec.family(b"new-key", 5, 8)])[0]
    assert registry.counters["crypto.mask_cache.misses"] == 1
    assert "crypto.mask_cache.hits" not in registry.counters
    assert new is not old and new != old


def test_disabled_cache_builds_equal_fresh_sets(cache):
    specs = [MaskSpec.family(b"k", 5, 8), MaskSpec.cover(b"k", 3, 200, 8)]
    warm = mask_specs(specs)
    with cache_disabled():
        fresh = mask_specs(specs)
    assert fresh == warm
    assert all(f is not w for f, w in zip(fresh, warm))


def test_a_batch_masks_each_distinct_spec_once(cache):
    """Three SUs, two of them in one cell, the third in the same row: one
    batch counts what the one-SU-at-a-time loop counts (before, the batch
    masked a repeated spec once per occurrence: 67 HMACs, 12 misses)."""
    grid = GridSpec(rows=100, cols=100)
    cells = [(10, 20), (10, 20), (10, 55)]
    with obs.collecting() as looped:
        one_by_one = [submit_location(i, c, b"g0", grid, 6) for i, c in enumerate(cells)]
    cache.clear()
    with obs.collecting() as batched:
        together = submit_locations(cells, b"g0", grid, 6)
    assert together == one_by_one
    for registry in (looped, batched):
        assert registry.counters["crypto.hmac"] == 34
        assert registry.counters["crypto.mask_cache.misses"] == 6
        assert registry.counters["crypto.mask_cache.hits"] == 6
    assert batched.counters["crypto.hmac_batches"] == 1
