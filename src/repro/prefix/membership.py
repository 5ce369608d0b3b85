"""HMAC-masked prefix sets and membership verification (sections II.B, IV).

The protocol's only on-the-wire objects are *masked sets*: the HMAC digests
of numericalized prefixes.  Whoever holds two masked sets can test whether
they share an element — and therefore whether a hidden value lies in a hidden
range — but learns nothing else about either.

This module provides:

* :class:`MaskedSet` — an immutable set of digests with intersection tests;
  ``MaskedSet(...)`` checks every digest's length, and
  :meth:`MaskedSet.of_width` is the validate-once path for sites that fix
  the width by construction (:func:`split_digests` cuts a blob into such
  digests in one C-level pass);
* :class:`PaddedSet` — a padded tail: a genuine cover's digest set, shared,
  plus its fillers as one ``bytes`` blob;
* :class:`MaskSpec` / :func:`mask_specs` — the batch API: describe many
  prefix sets by value (a family ``G(x)``, a cover ``Q([a, b])``) and
  mask them all in one backend call;
* :func:`mask_value` — mask the prefix family ``G(x)`` of a value;
* :func:`pad_masked_set` — pad a masked set with random filler digests to a
  fixed cardinality (the advanced scheme pads every tail cover to
  ``2w - 2`` so set sizes stop leaking range widths);
* :func:`mask_range` — mask the cover ``Q([a, b])`` of a range, optionally
  padded;
* :func:`is_member` — the core check ``H(G(x)) ∩ H(Q([a,b])) ≠ ∅``;
* :func:`reaches` — the same check for many probe sets against many
  indexed sets at once, through an inverted index (the auctioneer's two
  jobs).

Batching changes *how* digests are computed, never *what* they are: a
:func:`mask_specs` call returns byte-for-byte what per-digest
:func:`mask_prefixes` calls would.  There is one memo per layer:

* the keyless HMAC messages of a spec, a pure function of public values
  (``_spec_messages``, bounded), built only when the mask cache misses;
* the mask cache (:mod:`repro.crypto.cache`), keyed on the spec itself,
  ``(key, domain, digest size, kind, values, width)``, whose values are
  the finished, validated :class:`MaskedSet` objects — a warm lookup
  returns the very set an earlier round built, so a stationary SU's
  repeated submissions skip the HMAC work and the set construction alike.

A :class:`MaskedSet` is immutable, so sharing one between rounds and SUs
is safe, and digest order no longer matters anywhere.  Padding
(:func:`pad_masked_set`) never changes the cached cover: the tail it
returns holds the cover's own digest set and keeps its fillers apart, as
the one blob they were drawn in.  The fillers are *always* drawn fresh
from the caller's RNG, so the random stream — and therefore every
downstream draw — is identical with the cache hot, cold, or disabled.
"""

from __future__ import annotations

import random
import struct
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro import obs
from repro.crypto.backend import hmac_digest_pairs
from repro.crypto.cache import cache_enabled, get_mask_cache
from repro.prefix.numericalize import numericalize, numericalized_to_bytes
from repro.prefix.prefixes import Prefix, prefix_family
from repro.prefix.ranges import max_cover_size, range_cover
from repro.utils.rng import fresh_rng

__all__ = [
    "COVER",
    "DEFAULT_DIGEST_BYTES",
    "FAMILY",
    "PREFIXES",
    "MaskedSet",
    "PaddedSet",
    "MaskSpec",
    "mask_specs",
    "pad_masked_set",
    "split_digests",
    "mask_prefixes",
    "mask_value",
    "mask_range",
    "is_member",
    "reaches",
]

DEFAULT_DIGEST_BYTES = 16

#: The widest digest :func:`mask_specs` can truncate to (an HMAC-SHA256).
_MAX_DIGEST_BYTES = 32

_first = itemgetter(0)


@dataclass(frozen=True, slots=True)
class MaskedSet:
    """An unordered set of equal-length HMAC digests.

    ``digests`` is a frozenset so equality/intersection semantics are the
    set-theoretic ones the protocol needs; ``digest_bytes`` is carried along
    purely for wire-size accounting (Theorem 4).  ``encoded`` is the
    codec's memo of the set's wire form (header and sorted body), filled
    by its first encode (:mod:`repro.lppa.codec`): a cached family or
    location set is re-sent every round and serialized once.  It takes no
    part in equality, hashing or ``repr``.
    """

    digests: FrozenSet[bytes]
    digest_bytes: int = DEFAULT_DIGEST_BYTES
    encoded: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.digest_bytes < 4:
            raise ValueError("digest truncation below 4 bytes is unsafe")
        lengths = set(map(len, self.digests))
        if lengths and lengths != {self.digest_bytes}:
            raise ValueError("all digests in a MaskedSet must have digest_bytes length")

    @classmethod
    def of_width(cls, digests: FrozenSet[bytes], digest_bytes: int) -> "MaskedSet":
        """A set whose digests are ``digest_bytes`` long by construction.

        The validate-once path: it skips :meth:`__post_init__`'s per-digest
        length scan, so the caller must guarantee every digest's length
        and ``digest_bytes >= 4`` itself, checking the width once per call
        or per spec.  Its callers are the codec's fixed-width unpack and
        :func:`mask_specs` (one HMAC truncation per spec); anything
        else goes through ``MaskedSet(...)``.
        """
        masked = object.__new__(cls)
        _set_digests(masked, digests)
        _set_digest_bytes(masked, digest_bytes)
        _set_encoded(masked, None)
        return masked

    def __len__(self) -> int:
        return len(self.digests)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.digests)

    def intersects(self, other: "MaskedSet") -> bool:
        """True when the two masked sets share at least one digest."""
        return bool(other.shared_with(self.digests))

    def shared_with(self, digests: FrozenSet[bytes]) -> FrozenSet[bytes]:
        """The digests of this set that ``digests`` holds too."""
        return digests.intersection(self.digests)

    def wire_bytes(self) -> int:
        """Serialized size in bytes (cardinality x digest length)."""
        return len(self.digests) * self.digest_bytes


class PaddedSet(MaskedSet):
    """A padded tail: a genuine digest set plus its fillers, kept apart.

    As a set it is ``genuine`` together with the ``digest_bytes``-wide
    digests of ``fillers``.  ``genuine`` is the padded cover's own
    frozenset, shared by identity (a cached cover's), and ``fillers`` is
    one ``bytes`` blob, so a tail holds no per-filler objects and no set
    of its own.  :func:`pad_masked_set` is its one maker and guarantees
    that the fillers are distinct, that none is a genuine digest and that
    every digest is ``digest_bytes`` wide.

    ``len``, iteration, :meth:`shared_with` and :meth:`wire_bytes` — and
    through them :func:`is_member`, :func:`reaches`, the message checks
    and the codec — read the two parts in place, cutting the blob into
    digests in one C-level unpack.  :attr:`digests` builds the whole set
    on demand, for consumers off the round's hot path.  A tail equals, and
    hashes like, any :class:`MaskedSet` with the same digests and width,
    so a decoded tail (a plain :class:`MaskedSet`: the wire cannot tell
    fillers apart) compares equal to the one encoded.  A tail is drawn
    afresh every round, so the codec never memoises its encoding:
    ``encoded`` is always None.

    ``PaddedSet(digests, digest_bytes)`` — the constructor
    ``dataclasses.replace`` calls — checks like ``MaskedSet(...)`` and
    makes a tail whose digests are all genuine.  Pickling and copying
    rebuild a tail from its parts (:meth:`__reduce__`).
    """

    __slots__ = ("genuine", "fillers")

    genuine: FrozenSet[bytes]
    fillers: bytes
    encoded = None

    def __init__(
        self, digests: AbstractSet[bytes], digest_bytes: int = DEFAULT_DIGEST_BYTES
    ) -> None:
        checked = MaskedSet(frozenset(digests), digest_bytes)
        _set_genuine(self, checked.digests)
        _set_fillers(self, b"")
        _set_digest_bytes(self, digest_bytes)

    @classmethod
    def of_parts(
        cls, genuine: FrozenSet[bytes], fillers: bytes, digest_bytes: int
    ) -> "PaddedSet":
        """A tail of ``genuine`` and ``fillers``, unchecked (see the class)."""
        tail = object.__new__(cls)
        _set_genuine(tail, genuine)
        _set_fillers(tail, fillers)
        _set_digest_bytes(tail, digest_bytes)
        return tail

    @property
    def digests(self) -> FrozenSet[bytes]:  # type: ignore[override]
        """Every digest, genuine and filler, as one new frozenset."""
        return self.genuine.union(self.filler_digests())

    def filler_digests(self) -> Tuple[bytes, ...]:
        """The fillers as separate digests, in draw order."""
        width = self.digest_bytes
        return _unpack_digests(width, len(self.fillers) // width)(self.fillers)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (PaddedSet.of_parts, (self.genuine, self.fillers, self.digest_bytes))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.genuine) + len(self.fillers) // self.digest_bytes

    def __iter__(self) -> Iterator[bytes]:
        return chain(self.genuine, self.filler_digests())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskedSet):
            return NotImplemented
        return self.digest_bytes == other.digest_bytes and self.digests == other.digests

    __hash__ = MaskedSet.__hash__

    def shared_with(self, digests: FrozenSet[bytes]) -> FrozenSet[bytes]:
        """The digests of this set that ``digests`` holds too."""
        shared = digests.intersection(self.genuine)
        fillers = digests.intersection(self.filler_digests())
        return shared | fillers if fillers else shared

    def wire_bytes(self) -> int:
        """Serialized size in bytes (cardinality x digest length)."""
        return len(self.genuine) * self.digest_bytes + len(self.fillers)


# The unchecked makers write each slot through its member descriptor: about
# half the cost of object.__setattr__ on a frozen instance, which first
# looks the name up on the type.
_set_digests, _set_digest_bytes, _set_encoded = (
    vars(MaskedSet)[name].__set__ for name in ("digests", "digest_bytes", "encoded")
)
_set_genuine, _set_fillers = (vars(PaddedSet)[name].__set__ for name in PaddedSet.__slots__)


#: :class:`MaskSpec` kinds: a prefix family ``G(x)``, a range cover
#: ``Q([low, high])``, or an explicit prefix collection.
FAMILY = "family"
COVER = "cover"
PREFIXES = "prefixes"


class MaskSpec(NamedTuple):
    """One prefix set awaiting masking, described by value.

    The unit of the batch API, and itself the mask-cache key.

    ``kind`` is :data:`FAMILY` (``values == (x,)``), :data:`COVER`
    (``values == (low, high)``) or :data:`PREFIXES` (``values`` is the
    explicit prefix tuple and ``width`` is 0 — the reference path of
    :func:`mask_prefixes`).  The prefixes and their HMAC messages are built
    only when the cache misses, so a warm lookup hashes a few ints, never a
    tuple of :class:`Prefix` objects.
    """

    key: bytes
    domain: bytes
    digest_bytes: int
    kind: str
    values: Tuple[Any, ...]
    width: int

    @classmethod
    def family(
        cls,
        key: bytes,
        x: int,
        width: int,
        *,
        domain: bytes = b"",
        digest_bytes: int = DEFAULT_DIGEST_BYTES,
    ) -> "MaskSpec":
        """The prefix family ``G(x)`` of a ``width``-bit value."""
        return cls(key, domain, digest_bytes, FAMILY, (x,), width)

    @classmethod
    def cover(
        cls,
        key: bytes,
        low: int,
        high: int,
        width: int,
        *,
        domain: bytes = b"",
        digest_bytes: int = DEFAULT_DIGEST_BYTES,
    ) -> "MaskSpec":
        """The range cover ``Q([low, high])`` of ``width``-bit values."""
        return cls(key, domain, digest_bytes, COVER, (low, high), width)

    @classmethod
    def of(
        cls,
        key: bytes,
        prefixes: Iterable[Prefix],
        *,
        domain: bytes = b"",
        digest_bytes: int = DEFAULT_DIGEST_BYTES,
    ) -> "MaskSpec":
        """An explicit prefix collection, in the given order."""
        return cls(key, domain, digest_bytes, PREFIXES, tuple(prefixes), 0)

    @property
    def prefixes(self) -> Sequence[Prefix]:
        """The prefix set the values describe, in digest order."""
        return _spec_prefixes(self.kind, self.values, self.width)

    def messages(self) -> Tuple[bytes, ...]:
        """The exact HMAC inputs, in prefix order (memoised, see below)."""
        return _spec_messages(self.domain, self.kind, self.values, self.width)


def _spec_prefixes(kind: str, values: Tuple[Any, ...], width: int) -> Sequence[Prefix]:
    if kind == FAMILY:
        return prefix_family(values[0], width)
    if kind == COVER:
        return range_cover(values[0], values[1], width)
    if kind == PREFIXES:
        return values
    raise ValueError(f"unknown mask spec kind {kind!r}")


@lru_cache(maxsize=65536)
def _spec_messages(
    domain: bytes, kind: str, values: Tuple[Any, ...], width: int
) -> Tuple[bytes, ...]:
    # A pure function of public inputs (no key material), so memoising it
    # cannot serve a stale mask: the mask cache key still carries the HMAC
    # key.  The prefix layer's one memo; prefix_family/range_cover below it
    # validate the values and are not memoised themselves.
    return tuple(
        domain + numericalized_to_bytes(numericalize(p), p.width)
        for p in _spec_prefixes(kind, values, width)
    )


def mask_specs(specs: Sequence[MaskSpec]) -> List[MaskedSet]:
    """Mask every spec'd prefix set in one backend batch.

    Every spec is looked up in :mod:`repro.crypto.cache` at once, and a hit
    returns the cached :class:`MaskedSet` itself.  Each *distinct* missing
    spec has its digest size checked (4 to 32 bytes) and builds its
    messages once; all of them go through a single
    :func:`hmac_digest_pairs` call, and each built set — every digest one
    HMAC truncated to that size, so :meth:`MaskedSet.of_width` — is
    stored and shared by every occurrence of its spec in the batch.
    Equivalent, digest for digest, to calling :func:`mask_prefixes` once
    per spec — and with the cache on, its HMAC and cache counters equal
    that loop's too.  Counts every returned set on
    ``prefix.masked_sets``/``prefix.masked_digests``.
    """
    cache = get_mask_cache() if cache_enabled() else None
    results: List[Optional[MaskedSet]] = (
        [None] * len(specs) if cache is None else cache.lookup(specs)
    )
    pending: Dict[MaskSpec, List[int]] = {}
    for index, hit in enumerate(results):
        if hit is None:
            pending.setdefault(specs[index], []).append(index)
    if pending:
        built = list(pending)
        for spec in built:
            _check_digest_bytes(spec.digest_bytes)
        messages = [spec.messages() for spec in built]
        digests = hmac_digest_pairs(
            [(spec.key, m) for spec, ms in zip(built, messages) for m in ms]
        )
        cursor = 0
        for spec, ms in zip(built, messages):
            size = spec.digest_bytes
            end = cursor + len(ms)
            masked = MaskedSet.of_width(
                frozenset([d[:size] for d in digests[cursor:end]]), size
            )
            cursor = end
            for index in pending[spec]:
                results[index] = masked
            if cache is not None:
                cache.put(spec, masked)
    masked_sets = cast(List[MaskedSet], results)
    if masked_sets:
        obs.count("prefix.masked_sets", len(masked_sets))
        obs.count("prefix.masked_digests", sum(len(m.digests) for m in masked_sets))
    return masked_sets


def _check_digest_bytes(size: int) -> None:
    # Every digest of a spec is one HMAC-SHA256 truncated to ``size``, so
    # this one check per spec is the width guarantee MaskedSet.of_width
    # needs (MaskedSet's own scan rejected the same sizes per digest).
    if size < 4:
        raise ValueError("digest truncation below 4 bytes is unsafe")
    if size > _MAX_DIGEST_BYTES:
        raise ValueError(
            f"digest_bytes {size} exceeds the {_MAX_DIGEST_BYTES}-byte HMAC-SHA256 digest"
        )


@lru_cache(maxsize=256)
def _digest_unpacker(width: int) -> Callable[[bytes], Iterator[Tuple[Any, ...]]]:
    # One single-field Struct per digest width, never per count: the memo
    # holds at most 256 entries of a few dozen bytes, whatever the input.
    return struct.Struct(f"{width}s").iter_unpack


@lru_cache(maxsize=256)
def _unpack_digests(width: int, count: int) -> Callable[[bytes], Tuple[bytes, ...]]:
    # One Struct per (width, count) of the fillers padding has drawn: the
    # counts are the few a padding ceiling leaves, and wire data never
    # comes here (split_digests serves the codec), so the memo stays small.
    return struct.Struct(f"{width}s" * count).unpack


def split_digests(blob: bytes, width: int) -> Iterator[bytes]:
    """The consecutive ``width``-byte digests of ``blob``, in one C-level pass.

    ``len(blob)`` must be a multiple of ``width`` (``struct.error``
    otherwise), so every digest yielded is exactly ``width`` bytes — the
    guarantee :meth:`MaskedSet.of_width` needs.
    """
    return map(_first, _digest_unpacker(width)(blob))


def pad_masked_set(
    genuine: Union[MaskedSet, AbstractSet[bytes]],
    *,
    ceiling: int,
    digest_bytes: int,
    rng: random.Random,
) -> PaddedSet:
    """A :class:`PaddedSet`: ``genuine`` plus random fillers up to ``ceiling``.

    ``genuine`` — typically a cached cover from :func:`mask_specs` — is
    never changed: the tail holds its very digest set, and the fillers as
    one blob.  Fillers come from the caller's RNG at call time — never
    from a cache — so draw order is bit-identical whether the genuine
    digests were computed or recalled.  All fillers come from one
    ``getrandbits`` call, sliced: for whole 32-bit words that call consumes
    exactly the words of one call per filler, and leaves the RNG in the
    same state.  (Other digest sizes truncate a word per call, so they draw
    one at a time.)  A filler equal to a genuine digest or to an earlier
    filler is dropped and redrawn, exactly as a one-at-a-time loop would,
    and the blob then holds the fillers kept, in draw order.  Counts the
    fillers on ``prefix.masked_digests``; the genuine set was counted when
    masked.  A genuine :class:`MaskedSet` of width ``digest_bytes`` is
    taken as is; a raw set, or a set of another width, is checked in full
    (``MaskedSet(...)``).
    """
    if isinstance(genuine, MaskedSet) and genuine.digest_bytes == digest_bytes:
        digests = genuine.digests
    else:
        digests = frozenset(genuine)
        MaskedSet(digests, digest_bytes=digest_bytes)
    missing = ceiling - len(digests)
    if missing <= 0:
        return PaddedSet.of_parts(digests, b"", digest_bytes)
    obs.count("prefix.masked_digests", missing)
    drawn: Tuple[bytes, ...] = ()
    if digest_bytes % 4 == 0:
        size = missing * digest_bytes
        fillers = rng.getrandbits(8 * size).to_bytes(size, "big")
        drawn = _unpack_digests(digest_bytes, missing)(fillers)
        distinct = set(drawn)
        if len(distinct) == missing and distinct.isdisjoint(digests):
            return PaddedSet.of_parts(digests, fillers, digest_bytes)
    return PaddedSet.of_parts(
        digests, _redraw_fillers(digests, drawn, missing, digest_bytes, rng), digest_bytes
    )


def _redraw_fillers(
    genuine: FrozenSet[bytes],
    drawn: Tuple[bytes, ...],
    missing: int,
    digest_bytes: int,
    rng: random.Random,
) -> bytes:
    # Keep the first draw's distinct non-genuine fillers in draw order, then
    # draw one filler at a time until ``missing`` are kept.
    kept = dict.fromkeys(d for d in drawn if d not in genuine)
    while len(kept) < missing:
        filler = rng.getrandbits(8 * digest_bytes).to_bytes(digest_bytes, "big")
        if filler not in genuine:
            kept[filler] = None
    return b"".join(kept)


def mask_prefixes(
    key: bytes,
    prefixes: Sequence[Prefix],
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> MaskedSet:
    """HMAC-mask an explicit prefix collection.

    ``domain`` is a context label prepended to every HMAC input.  The paper
    keys x- and y-coordinates identically; we add domain separation as a
    conservative hardening — it never changes protocol results because a
    family and the ranges it is tested against always share a domain.
    """
    return mask_specs(
        [MaskSpec.of(key, prefixes, domain=domain, digest_bytes=digest_bytes)]
    )[0]


def mask_value(
    key: bytes,
    x: int,
    width: int,
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
) -> MaskedSet:
    """Mask the prefix family ``G(x)`` — always ``width + 1`` digests."""
    return mask_specs(
        [MaskSpec.family(key, x, width, domain=domain, digest_bytes=digest_bytes)]
    )[0]


def mask_range(
    key: bytes,
    low: int,
    high: int,
    width: int,
    *,
    domain: bytes = b"",
    digest_bytes: int = DEFAULT_DIGEST_BYTES,
    pad_to: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> MaskedSet:
    """Mask the range cover ``Q([low, high])``.

    With ``pad_to`` set (the advanced scheme uses ``2w - 2``), random filler
    digests are appended so the set's cardinality stops revealing how wide
    the range is.  Fillers are drawn from the full digest space, so the
    probability that one collides with a genuine masked prefix — which would
    flip a membership test — is about ``2**-(8*digest_bytes - 6)`` per set
    and is ignored, exactly as the paper does.
    """
    masked = mask_specs(
        [MaskSpec.cover(key, low, high, width, domain=domain, digest_bytes=digest_bytes)]
    )[0]
    if pad_to is None:
        return masked
    ceiling = max(pad_to, max_cover_size(width))
    if rng is None:
        rng = fresh_rng()
    return pad_masked_set(
        masked, ceiling=ceiling, digest_bytes=digest_bytes, rng=rng
    )


def is_member(masked_family: MaskedSet, masked_range: MaskedSet) -> bool:
    """The prefix membership check: ``x in [a, b]`` on masked data.

    Correct whenever both sets were produced under the same key and domain:
    ``H(G(x))`` intersects ``H(Q([a, b]))`` iff ``x`` lies in ``[a, b]``
    (up to the negligible filler-collision probability noted above).
    """
    obs.count("prefix.membership_checks")
    return masked_family.intersects(masked_range)


#: Indexed sets per owner-bit block in :func:`reaches`: a block's owner
#: bits are small ints, shifted into place once per digest it touches.
_BLOCK = 2048


def reaches(
    indexed: Sequence[MaskedSet], probes: Sequence[MaskedSet]
) -> Dict[FrozenSet[bytes], int]:
    """Reach of every distinct probe digest set: its members among ``indexed``.

    Bit ``j`` of ``reaches(T, P)[p.digests]`` is ``is_member(p, T[j])`` for
    any sets, honest or not: it ORs exactly the owners of ``p``'s digests
    and assumes nothing about set shapes.  Only digests some probe holds
    are indexed — a digest no probe looks up cannot set a bit — so padding
    fillers and unshared prefixes never enter the index, and an indexed
    :class:`PaddedSet` is read in place, never joined into one set.  Equal
    probe sets are looked up once and share one entry.  Owner bits are
    OR-ed as small ints within blocks of :data:`_BLOCK` indexed sets and
    each block is shifted into place once, so no owner costs an N-bit
    copy.  Within a block, each distinct genuine cover of the padded sets
    is intersected once for all its owners, and all their fillers of one
    digest width are checked against the probes in one pass; only a block
    where some filler is a probe digest reads its fillers set by set.
    Counted as ``prefix.index_probes``: one per digest of every probe,
    repeated sets included.
    """
    probed = [p.digests for p in probes]
    if probed:
        obs.count("prefix.index_probes", sum(map(len, probed)))
    distinct = dict.fromkeys(probed)
    wanted = frozenset().union(*distinct)
    owners: Dict[bytes, int] = {}
    for base in range(0, len(indexed), _BLOCK):
        members = indexed[base : base + _BLOCK]
        block: Dict[bytes, int] = {}
        get = block.get
        covers: Dict[FrozenSet[bytes], int] = {}
        fillers: Dict[int, List[bytes]] = {}
        bit = 1
        for masked in members:
            if type(masked) is PaddedSet:
                covers[masked.genuine] = covers.get(masked.genuine, 0) | bit
                fillers.setdefault(masked.digest_bytes, []).append(masked.fillers)
            else:
                for digest in masked.shared_with(wanted):
                    block[digest] = get(digest, 0) | bit
            bit <<= 1
        for genuine, bits in covers.items():
            for digest in wanted.intersection(genuine):
                block[digest] = get(digest, 0) | bits
        if not all(
            wanted.isdisjoint(split_digests(b"".join(blobs), width))
            for width, blobs in fillers.items()
        ):
            bit = 1
            for masked in members:
                if type(masked) is PaddedSet:
                    for digest in wanted.intersection(masked.filler_digests()):
                        block[digest] = get(digest, 0) | bit
                bit <<= 1
        for digest, bits in block.items():
            owners[digest] = owners.get(digest, 0) | bits << base
    lookup = owners.get
    result: Dict[FrozenSet[bytes], int] = {}
    for digests in distinct:
        bits = 0
        for digest in digests:
            bits |= lookup(digest, 0)
        result[digests] = bits
    return result

