"""Masked-set cache: stop re-masking identical sets every round.

A stationary SU submits the *same* location prefix family and interference
cover round after round, bids repeat their values' families and tail
covers, and the TTP re-derives the same masked bid family at charging time
that the bidder already computed at submission time.  Each is a
deterministic function of ``(HMAC key, domain, digest size, prefix set)``
— so the masking layer keeps a bounded LRU of exactly that mapping.

Entries sit on *shelves*.  A shelf is named by the parameters a run of
sets shares — in the masking layer a
:class:`~repro.prefix.membership.MaskShelf`, ``(key, domain, digest
size, kind, width)`` — and holds its sets by value: a family ``G(x)`` by
``x``, a cover ``Q([a, b])`` by ``(a, b)``.  A batch names each shelf once
and then looks its values up directly, so a warm lookup is one dict hit
plus its LRU touch: no per-set key is built and no prefix is hashed.
Each shelf keeps its sets in LRU order, stamped with a cache-wide tick at
their last use, so eviction is exact LRU over the whole cache.

Values are finished, validated :class:`~repro.prefix.membership.MaskedSet`
objects: a hit returns the very set an earlier miss built and checked,
so a warm round neither re-hashes nor re-validates.  A ``MaskedSet`` is
immutable and unordered, so one object is safely shared by every SU,
round and padded tail that uses it, and digest order plays no part.  This
is the crypto layer's one memo; the prefix layer's one memo (the keyless
HMAC messages of a set) sits below it and is consulted only on a miss.

Correctness is structural: every shelf name *starts with the key
material*, so a rotated key can never alias a stale entry — a new key ring
simply misses.  On top of that, :class:`repro.lppa.ttp.TrustedThirdParty`
notes the key ring fingerprint on every key (re)distribution via
:func:`note_key_epoch`, which drops stale entries whenever the fingerprint
changes; dead epochs are evicted eagerly instead of lingering until LRU
pressure.  The TTP passes the new ring's live key set, so a *partial*
rotation — the epoch service rotates only ``gc`` on membership change —
drops only the shelves of retired keys, whole, without visiting the
entries of any other shelf, and a stationary SU's digests stay warm.

Observability: every lookup lands on ``crypto.mask_cache.hits`` or
``crypto.mask_cache.misses`` — counted as a one-set-at-a-time loop would
count them, so a set missing twice in one batch is one miss and one hit
(the caller builds it once); clears count ``crypto.mask_cache.invalidations``
and LRU pressure counts ``crypto.mask_cache.evictions``; live occupancy is
exported as the ``crypto.mask_cache.size`` gauge.  The fault-test
suite uses these counters to prove no stale digest is ever served across
key rotation, SU churn and prefix-set mutation.

A cached set carries one more memo, the codec's:
:attr:`~repro.prefix.membership.MaskedSet.encoded` keeps its wire form
after its first encode, so a cached family or location set is serialised
once, not every round.  It pays for its memory.  Measured on 2 vCPUs
(Intel Xeon), with the memo turned off ``round25_mem`` spent 6.6 instead
of 5.9 ms per traced round in the codec and ran ~5% fewer rounds per
second (``round2_tcp``: 0.56 instead of 0.47 ms), while the memo held
~0.16 MiB of its peak RSS: one blob per cached family variant sent.

The cache is always on; :func:`cache_disabled` bypasses it temporarily
(results are equal either way — only the HMAC work and the set
construction repeat, and every set is freshly built), which is how
the tests check cached results against freshly masked ones.  Like
:mod:`repro.obs`, it is single-threaded by design; forked sweep workers
inherit a snapshot, which is harmless because entries are pure functions
of their names.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs

if TYPE_CHECKING:  # the masking layer imports this module, not vice versa
    from repro.prefix.membership import MaskedSet

__all__ = [
    "MaskCache",
    "get_mask_cache",
    "set_mask_cache",
    "cache_enabled",
    "cache_disabled",
    "note_key_epoch",
]

#: A shelf's name: a tuple whose first item is the HMAC key — in the
#: masking layer ``(key, domain, digest_bytes, kind, width)``.
ShelfKey = Tuple[Any, ...]

#: A cached set's full name: its shelf and its value on that shelf.
Name = Tuple[ShelfKey, Hashable]

#: One lookup request: a shelf and the values of the sets wanted from it.
Request = Tuple[ShelfKey, Sequence[Hashable]]

#: Each distinct set a batch misses, by :data:`Name`, with its
#: ``(request, position)`` occurrences; names in first-occurrence order.
Misses = Dict[Tuple[Any, Any], List[Tuple[int, int]]]

_DEFAULT_MAX_ENTRIES = 65536


class _Shelf:
    """One shelf: its sets by value, least recently used first, and the
    cache-wide tick at which each was last used."""

    __slots__ = ("sets", "stamps")

    def __init__(self) -> None:
        self.sets: "OrderedDict[Hashable, MaskedSet]" = OrderedDict()
        self.stamps: Dict[Hashable, int] = {}


#: The shelf of a name never stored: every lookup on it misses.
_NO_SHELF = _Shelf()


def _head_stamp(item: Tuple[ShelfKey, _Shelf]) -> int:
    shelf = item[1]
    return shelf.stamps[next(iter(shelf.sets))]


class MaskCache:
    """Bounded LRU of finished masked sets, on shelves looked up by value.

    Each shelf keeps its own sets in LRU order and stamps each with the
    tick of its last use, one tick per hit or store across the whole
    cache.  So a shelf's oldest set is its first, and the cache's oldest
    is the shelf head with the lowest stamp: eviction is exact LRU over
    every shelf at the cost of one scan of the shelf heads.  The cache
    never builds or inspects a value; the masking layer validates each
    set once, when a miss builds it.
    """

    __slots__ = (
        "_shelves", "_size", "_tick", "_max_entries", "_epoch", "hits", "misses", "evictions"
    )

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._shelves: Dict[ShelfKey, _Shelf] = {}
        self._size = 0
        self._tick = 0
        self._max_entries = max_entries
        self._epoch: Optional[bytes] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self._size

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def epoch(self) -> Optional[bytes]:
        """Fingerprint of the key epoch the cache was last validated for."""
        return self._epoch

    def names(self) -> List[Name]:
        """Every cached set's name, least recently used first."""
        stamped = [
            (shelf.stamps[value], shelf_key, value)
            for shelf_key, shelf in self._shelves.items()
            for value in shelf.sets
        ]
        stamped.sort(key=itemgetter(0))
        return [(shelf_key, value) for _, shelf_key, value in stamped]

    def lookup(
        self, requests: Sequence[Request]
    ) -> Tuple[List[List[Optional[MaskedSet]]], Misses]:
        """Look many sets up at once, in order; ``None`` marks a miss.

        Returns each request's sets, value by value, and the batch's
        :data:`Misses`.  A hit is one dict lookup on its shelf plus its
        LRU touch and stamp.  Counts as a one-set-at-a-time loop that
        stores each miss would: a set missing more than once in the batch
        counts one miss and its repeats count as hits, because the caller
        builds it once for all of them.  One counter update per batch.
        """
        shelves = self._shelves
        tick = self._tick
        results: List[List[Optional[MaskedSet]]] = []
        missing: Misses = {}
        for index, (shelf_key, values) in enumerate(requests):
            shelf = shelves.get(shelf_key, _NO_SHELF)
            get = shelf.sets.get
            touch = shelf.sets.move_to_end
            stamps = shelf.stamps
            found: List[Optional[MaskedSet]] = []
            for value in values:
                masked = get(value)
                if masked is None:
                    missing.setdefault((shelf_key, value), []).append((index, len(found)))
                else:
                    touch(value)
                    stamps[value] = tick
                    tick += 1
                found.append(masked)
            results.append(found)
        self._tick = tick
        misses = len(missing)
        hits = sum(map(len, results)) - misses
        self.hits += hits
        self.misses += misses
        if hits:
            obs.count("crypto.mask_cache.hits", hits)
        if misses:
            obs.count("crypto.mask_cache.misses", misses)
        return results, missing

    def put(self, shelf_key: ShelfKey, value: Hashable, masked: MaskedSet) -> None:
        """Store one masked set, evicting the LRU entry on overflow.

        A name already cached is touched and keeps its set.
        """
        shelf = self._shelves.get(shelf_key)
        if shelf is None:
            shelf = self._shelves[shelf_key] = _Shelf()
        known = value in shelf.sets
        if known:
            shelf.sets.move_to_end(value)
        else:
            shelf.sets[value] = masked
        shelf.stamps[value] = self._tick
        self._tick += 1
        if known:
            return
        self._size += 1
        if self._size > self._max_entries:
            oldest_key, oldest = min(self._shelves.items(), key=_head_stamp)
            evicted, _ = oldest.sets.popitem(last=False)
            del oldest.stamps[evicted]
            if not oldest.sets:
                del self._shelves[oldest_key]
            self._size -= 1
            self.evictions += 1
            obs.count("crypto.mask_cache.evictions")
        obs.set_gauge("crypto.mask_cache.size", float(self._size))

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = self._size
        self._shelves.clear()
        self._size = 0
        if dropped:
            obs.count("crypto.mask_cache.invalidations")
            obs.set_gauge("crypto.mask_cache.size", 0.0)
        return dropped

    def drop_stale_keys(self, live_keys: Iterable[bytes]) -> int:
        """Drop the shelves of keys outside ``live_keys``; returns the
        number of entries dropped.

        The selective counterpart of :meth:`clear` for *partial* key
        rotations: a membership change rotates only the affected subkeys
        (the epoch service rotates ``gc`` on join/leave), so a stationary
        SU's masked digests — keyed by the unchanged ``g0``/``gb_*``
        material — survive unrelated churn.  A retired key's shelves go
        whole; no entry is visited.  Counts one
        ``crypto.mask_cache.invalidations`` event when anything dropped.
        """
        live = frozenset(live_keys)
        stale = [key for key in self._shelves if key[0] not in live]
        dropped = sum(len(self._shelves.pop(key).sets) for key in stale)
        self._size -= dropped
        if dropped:
            obs.count("crypto.mask_cache.invalidations")
            obs.set_gauge("crypto.mask_cache.size", float(self._size))
        return dropped

    def note_key_epoch(
        self, fingerprint: bytes, live_keys: Optional[Iterable[bytes]] = None
    ) -> bool:
        """Record a key (re)distribution; invalidates on a new epoch.

        Returns ``True`` when the fingerprint changed (stale entries
        dropped).  Re-distributing the *same* keys — every round of a
        seeded experiment re-runs :meth:`TrustedThirdParty.setup` with the
        same seed — keeps the cache warm across rounds.

        With ``live_keys`` (the new ring's complete key material) a new
        epoch drops only the shelves of keys *not* in that set — partial
        rotations keep every still-valid entry warm.  Without it, the
        conservative full :meth:`clear` applies.
        """
        if fingerprint == self._epoch:
            return False
        changed = self._epoch is not None
        self._epoch = fingerprint
        if changed:
            if live_keys is not None:
                self.drop_stale_keys(live_keys)
            else:
                self.clear()
        return changed

    def stats(self) -> Dict[str, int]:
        """Counters snapshot for reports and tests."""
        return {
            "entries": self._size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_cache = MaskCache()
_enabled = True


def get_mask_cache() -> MaskCache:
    """The process-wide cache instance the masking layer consults."""
    return _cache


def set_mask_cache(cache: MaskCache) -> MaskCache:
    """Swap in a different cache instance; returns the previous one.

    For runs that must start cold or stay isolated from what ran earlier
    in the process: perfbench's soak workload starts every ``run_soak``
    call on a fresh cache, as a new service process would; the net
    round-trip benchmark (``benchmarks/test_micro_net.py``), whose cache
    gauges read the cache's size, does the same; and so do tests.
    """
    global _cache
    previous = _cache
    _cache = cache
    return previous


def cache_enabled() -> bool:
    """Whether the masking layer consults the cache at all."""
    return _enabled


@contextlib.contextmanager
def cache_disabled() -> Iterator[None]:
    """Temporarily bypass the cache: every set is masked and built afresh."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def note_key_epoch(
    fingerprint: bytes, live_keys: Optional[Iterable[bytes]] = None
) -> bool:
    """Module-level convenience for :meth:`MaskCache.note_key_epoch`."""
    return _cache.note_key_epoch(fingerprint, live_keys)
