"""The spec-keyed mask cache, kept as a test oracle for the value-keyed one.

Before the cache held its sets on shelves, every set was named by one flat
tuple ``(key, domain, digest_bytes, kind, value, width)`` in a single LRU
``OrderedDict``, and a batch looked every set up, touched each hit in
order, then stored each distinct miss in first-occurrence order.  This
module keeps that design, counters included, so the differential tests
can replay a batch of ``(shelf, values)`` requests through both caches
and compare sets, counters and eviction order.

It also holds the helpers the tests share for naming sets by value:
:func:`prefixes_of` and :func:`flat_names`.
"""

from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.cache import cache_disabled
from repro.prefix.membership import (
    COVER,
    FAMILY,
    PREFIXES,
    MaskedSet,
    MaskShelf,
    mask_prefixes,
)
from repro.prefix.prefixes import Prefix, prefix_family
from repro.prefix.ranges import range_cover

SpecKey = Tuple[Any, ...]
Requests = Sequence[Tuple[MaskShelf, Sequence[Any]]]


def prefixes_of(shelf: MaskShelf, value: Any) -> Sequence[Prefix]:
    """The prefix set a shelf's value names, in digest order."""
    if shelf.kind == FAMILY:
        return prefix_family(value, shelf.width)
    if shelf.kind == COVER:
        return range_cover(value[0], value[1], shelf.width)
    assert shelf.kind == PREFIXES
    return value


def flat_names(requests: Requests) -> List[Tuple[MaskShelf, Any]]:
    """Every requested set's ``(shelf, value)`` name, in request order."""
    return [(shelf, value) for shelf, values in requests for value in values]


def reference_sets(requests: Requests) -> List[MaskedSet]:
    """Every requested set, masked one by one on the reference path
    with the cache bypassed."""
    with cache_disabled():
        return [
            mask_prefixes(
                shelf.key,
                prefixes_of(shelf, value),
                domain=shelf.domain,
                digest_bytes=shelf.digest_bytes,
            )
            for shelf, value in flat_names(requests)
        ]


def spec_key(shelf: MaskShelf, value: Any) -> SpecKey:
    """The flat key the spec-keyed cache filed a set under."""
    key, domain, digest_bytes, kind, width = shelf
    return (key, domain, digest_bytes, kind, value, width)


def name_of(key: SpecKey) -> Tuple[MaskShelf, Any]:
    """The ``(shelf, value)`` name of a flat key."""
    key_bytes, domain, digest_bytes, kind, value, width = key
    return MaskShelf(key_bytes, domain, digest_bytes, kind, width), value


class SpecKeyedCache:
    """The spec-keyed LRU: one ``OrderedDict`` from flat keys to sets."""

    def __init__(self, max_entries: int) -> None:
        self.entries: "OrderedDict[SpecKey, MaskedSet]" = OrderedDict()
        self.max_entries = max_entries
        self.epoch: Optional[bytes] = None
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def names(self) -> List[Tuple[MaskShelf, Any]]:
        """Every cached set's name, least recently used first."""
        return [name_of(key) for key in self.entries]

    def mask(self, requests: Requests) -> Tuple[List[Optional[MaskedSet]], List[bool]]:
        """One batch, as the spec-keyed ``mask_specs`` ran it: the sets in
        request order, and which of them the lookup found."""
        keys = [spec_key(shelf, value) for shelf, value in flat_names(requests)]
        found = [self.entries.get(key) for key in keys]
        missed: Dict[SpecKey, List[int]] = {}
        for index, (key, entry) in enumerate(zip(keys, found)):
            if entry is None:
                missed.setdefault(key, []).append(index)
            else:
                self.entries.move_to_end(key)
        self.misses += len(missed)
        self.hits += len(keys) - len(missed)
        hit = [entry is not None for entry in found]
        for key, indices in missed.items():
            shelf, value = name_of(key)
            (built,) = reference_sets([(shelf, [value])])
            for index in indices:
                found[index] = built
            self.put(key, built)
        return found, hit

    def put(self, key: SpecKey, masked: MaskedSet) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
            return
        self.entries[key] = masked
        if len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        if self.entries:
            self.invalidations += 1
        self.entries.clear()

    def note_key_epoch(
        self, fingerprint: bytes, live_keys: Optional[Iterable[bytes]] = None
    ) -> bool:
        if fingerprint == self.epoch:
            return False
        changed = self.epoch is not None
        self.epoch = fingerprint
        if changed:
            if live_keys is None:
                self.clear()
            else:
                live = frozenset(live_keys)
                stale = [key for key in self.entries if key[0] not in live]
                for key in stale:
                    del self.entries[key]
                if stale:
                    self.invalidations += 1
        return changed
