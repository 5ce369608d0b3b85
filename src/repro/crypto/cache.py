"""Masked-set cache: stop re-masking identical sets every round.

A stationary SU submits the *same* location prefix family and interference
cover round after round, bids repeat their values' families and tail
covers, and the TTP re-derives the same masked bid family at charging time
that the bidder already computed at submission time.  Each is a
deterministic function of ``(HMAC key, domain, digest size, prefix set)``
— so the masking layer keeps a bounded LRU of exactly that mapping.  The
set is named by value — a family ``G(x)`` by ``x``, a cover ``Q([a, b])``
by ``(a, b)``, plus the width — so a lookup hashes a few ints rather than
the set's prefixes (see :class:`repro.prefix.membership.MaskSpec`, which
*is* the key).

Values are finished, validated :class:`~repro.prefix.membership.MaskedSet`
objects: a hit returns the very set an earlier miss built and checked,
so a warm round neither re-hashes nor re-validates.  A ``MaskedSet`` is
immutable and unordered, so one object is safely shared by every SU,
round and padded tail that uses it, and digest order plays no part.  This
is the crypto layer's one memo; the prefix layer's one memo (the keyless
HMAC messages of a spec) sits below it and is consulted only on a miss.

Correctness is structural: the cache key *contains the key material*, so a
rotated key can never alias a stale entry — a new key ring simply misses.
On top of that, :class:`repro.lppa.ttp.TrustedThirdParty` notes the key
ring fingerprint on every key (re)distribution via :func:`note_key_epoch`,
which drops stale entries whenever the fingerprint changes; dead epochs
are evicted eagerly instead of lingering until LRU pressure.  The TTP
passes the new ring's live key set, so a *partial* rotation — the epoch
service rotates only ``gc`` on membership change — drops only entries
masked under retired keys and a stationary SU's digests stay warm.

Observability: every lookup lands on ``crypto.mask_cache.hits`` or
``crypto.mask_cache.misses`` — counted as a one-set-at-a-time loop would
count them, so a key missing twice in one batch is one miss and one hit
(the caller builds it once); clears count ``crypto.mask_cache.invalidations``
and LRU pressure counts ``crypto.mask_cache.evictions``; live occupancy is
exported as the ``crypto.mask_cache.size`` gauge.  The fault-test
suite uses these counters to prove no stale digest is ever served across
key rotation, SU churn and prefix-set mutation.

The cache is always on; :func:`cache_disabled` bypasses it temporarily
(results are equal either way — only the HMAC work and the set
construction repeat, and every set is freshly built), which is how
the tests check cached results against freshly masked ones.  Like
:mod:`repro.obs`, it is single-threaded by design; forked sweep workers
inherit a snapshot, which is harmless because entries are pure functions
of their keys.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
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

#: Lookup key: a tuple whose first item is the HMAC key — in the masking
#: layer ``(key, domain, digest_bytes, kind, values, width)``.
CacheKey = Tuple[Any, ...]

_DEFAULT_MAX_ENTRIES = 65536


class MaskCache:
    """Bounded LRU of finished masked sets.

    Entries map a :data:`CacheKey` to the :class:`MaskedSet` masked under
    it.  The cache never builds or inspects a value; the masking layer
    validates each set once, when a miss builds it.
    """

    __slots__ = ("_entries", "_max_entries", "_epoch", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._entries: "OrderedDict[CacheKey, MaskedSet]" = OrderedDict()
        self._max_entries = max_entries
        self._epoch: Optional[bytes] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def epoch(self) -> Optional[bytes]:
        """Fingerprint of the key epoch the cache was last validated for."""
        return self._epoch

    def get(self, key: CacheKey) -> Optional[MaskedSet]:
        """Look one set up; counts a hit or a miss either way."""
        return self.lookup([key])[0]

    def lookup(self, keys: Sequence[CacheKey]) -> List[Optional[MaskedSet]]:
        """Look many sets up at once, in order; ``None`` marks a miss.

        Counts as a one-key-at-a-time loop that stores each miss would: a
        key missing more than once in the batch counts one miss and its
        repeats count as hits, because the caller builds it once for all
        of them.  One counter update per batch.
        """
        entries = self._entries
        found = [entries.get(key) for key in keys]
        missed: Set[CacheKey] = set()
        for key, entry in zip(keys, found):
            if entry is None:
                missed.add(key)
            else:
                entries.move_to_end(key)
        misses = len(missed)
        hits = len(found) - misses
        self.hits += hits
        self.misses += misses
        if hits:
            obs.count("crypto.mask_cache.hits", hits)
        if misses:
            obs.count("crypto.mask_cache.misses", misses)
        return found

    def put(self, key: CacheKey, masked: MaskedSet) -> None:
        """Store one masked set, evicting the LRU entry on overflow."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        entries[key] = masked
        if len(entries) > self._max_entries:
            entries.popitem(last=False)
            self.evictions += 1
            obs.count("crypto.mask_cache.evictions")
        obs.set_gauge("crypto.mask_cache.size", float(len(entries)))

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            obs.count("crypto.mask_cache.invalidations")
            obs.set_gauge("crypto.mask_cache.size", 0.0)
        return dropped

    def drop_stale_keys(self, live_keys: Iterable[bytes]) -> int:
        """Drop entries masked under keys outside ``live_keys``.

        The selective counterpart of :meth:`clear` for *partial* key
        rotations: a membership change rotates only the affected subkeys
        (the epoch service rotates ``gc`` on join/leave), so a stationary
        SU's masked digests — keyed by the unchanged ``g0``/``gb_*``
        material — survive unrelated churn.  Counts one
        ``crypto.mask_cache.invalidations`` event when anything dropped.
        """
        live = frozenset(live_keys)
        stale = [key for key in self._entries if key[0] not in live]
        for key in stale:
            del self._entries[key]
        if stale:
            obs.count("crypto.mask_cache.invalidations")
            obs.set_gauge("crypto.mask_cache.size", float(len(self._entries)))
        return len(stale)

    def note_key_epoch(
        self, fingerprint: bytes, live_keys: Optional[Iterable[bytes]] = None
    ) -> bool:
        """Record a key (re)distribution; invalidates on a new epoch.

        Returns ``True`` when the fingerprint changed (stale entries
        dropped).  Re-distributing the *same* keys — every round of a
        seeded experiment re-runs :meth:`TrustedThirdParty.setup` with the
        same seed — keeps the cache warm across rounds.

        With ``live_keys`` (the new ring's complete key material) a new
        epoch drops only entries masked under keys *not* in that set —
        partial rotations keep every still-valid entry warm.  Without it,
        the conservative full :meth:`clear` applies.
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
            "entries": len(self._entries),
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
    """Swap in a different cache instance (tests); returns the previous one."""
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
