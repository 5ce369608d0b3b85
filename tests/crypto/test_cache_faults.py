"""Cache-invalidation faults: no stale digest may ever be served.

Three ways a cached masked digest could go stale, each driven end to end
and checked through the obs counters:

* **key rotation** — a new key ring must miss every prior entry (the key
  bytes live inside the cache key) *and* eagerly drop the old epoch's
  entries via the TTP's ``note_key_epoch`` hook;
* **SU churn** — users joining/leaving between rounds of the asyncio net
  runtime change the submission mix; reused (user, cell) pairs may hit,
  but every new user's sets must be computed fresh, and the networked
  result must still equal the in-process session;
* **mutated prefix sets** — any change to the set (value, membership,
  order-insensitive content, domain, digest size) is a different cache
  name, so a lookup can never alias the old set.

The protocol names its sets by value on a shelf (``MaskShelf.family``/
``cover``); the drills at the end repeat the rotation faults on that
naming and check the TTP's family check cannot be served a neighbouring
value's entry.
"""

import asyncio
import dataclasses
import random

import pytest

from repro import obs
from repro.crypto.cache import (
    MaskCache,
    cache_disabled,
    get_mask_cache,
    set_mask_cache,
)
from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import BidScale, submit_bids_advanced
from repro.lppa.messages import MaskedBid
from repro.lppa.ttp import ChargeStatus, TrustedThirdParty
from repro.net.loadgen import LoadgenConfig, run_loadgen
from repro.prefix.membership import (
    PREFIXES,
    MaskShelf,
    mask_specs,
    mask_value,
)
from repro.prefix.prefixes import prefix_family
from tests.crypto.spec_oracle import reference_sets


@pytest.fixture()
def cache():
    fresh = MaskCache()
    previous = set_mask_cache(fresh)
    yield fresh
    set_mask_cache(previous)


def test_key_rotation_misses_the_cache(cache):
    old = generate_keyring(b"epoch-1", 4)
    new = generate_keyring(b"epoch-2", 4)
    mask_value(old.g0, 42, 8)
    with obs.collecting() as registry:
        mask_value(new.g0, 42, 8)  # same value, rotated key
    assert registry.counters["crypto.mask_cache.misses"] == 1
    assert "crypto.mask_cache.hits" not in registry.counters
    assert registry.counters["crypto.hmac"] == 9  # recomputed, not replayed


def test_key_redistribution_clears_old_epoch(cache):
    scale = BidScale(bmax=127, rd=4, cr=8)
    old = generate_keyring(b"epoch-1", 4)
    TrustedThirdParty(old, scale)
    mask_value(old.g0, 42, 8)
    assert len(cache) == 1

    with obs.collecting() as registry:
        new = generate_keyring(b"epoch-2", 4)
        TrustedThirdParty(new, scale)  # re-keyed: new epoch
    assert len(cache) == 0
    assert registry.counters["crypto.mask_cache.invalidations"] == 1

    # Same ring redistributed (every round of a seeded run) keeps it warm.
    mask_value(new.g0, 42, 8)
    TrustedThirdParty(generate_keyring(b"epoch-2", 4), scale)
    assert len(cache) == 1


def test_mutated_prefix_sets_miss_the_cache(cache):
    def explicit(prefixes, domain=b"d", digest_bytes=16):
        return (MaskShelf(b"key", domain, digest_bytes, PREFIXES, 0), [tuple(prefixes)])

    family = tuple(prefix_family(42, 8))
    base = explicit(family)
    mask_specs([base])

    mutations = [
        explicit(prefix_family(43, 8)),  # new value
        explicit(family[:-1]),  # dropped element
        explicit(family, domain=b"other"),  # new domain
        explicit(family, digest_bytes=8),  # new size
    ]
    for mutant in mutations:
        with obs.collecting() as registry:
            mask_specs([mutant])
        assert "crypto.mask_cache.hits" not in registry.counters, mutant
        assert registry.counters["crypto.mask_cache.misses"] == 1

    # The unmutated set still hits — the entries coexist, never alias.
    with obs.collecting() as registry:
        repeat = mask_specs([base])
    assert registry.counters["crypto.mask_cache.hits"] == 1
    assert repeat == mask_specs([base])


def test_membership_rekey_preserves_stationary_su_entries(cache):
    """The epoch service's churn rekey (gc-only rotation) must not cost a
    stationary SU its warm masked digests.

    ``KeyRing.rotate_gc`` changes the fingerprint — the TTP registers a
    new key epoch — but every masking key is still live, so the selective
    invalidation drops nothing: zero ``invalidations``, and the SU's
    location set still hits.
    """
    scale = BidScale(bmax=127, rd=4, cr=8)
    ring = generate_keyring(b"service-seed", 4)
    TrustedThirdParty(ring, scale)
    mask_value(ring.g0, 42, 8)  # the stationary SU's warm entry
    assert len(cache) == 1

    rotated = ring.rotate_gc(b"service-seed", "lppa/ttp/gc/m1")
    assert rotated.fingerprint() != ring.fingerprint()
    assert rotated.g0 == ring.g0 and rotated.gb_channels == ring.gb_channels

    with obs.collecting() as registry:
        TrustedThirdParty(rotated, scale)  # join/leave key redistribution
        mask_value(ring.g0, 42, 8)
    assert "crypto.mask_cache.invalidations" not in registry.counters
    assert registry.counters["crypto.mask_cache.hits"] == 1
    assert "crypto.mask_cache.misses" not in registry.counters
    assert len(cache) == 1

    # A *full* rotation still drops the stale entry via the same hook.
    with obs.collecting() as registry:
        TrustedThirdParty(generate_keyring(b"other-seed", 4), scale)
    assert registry.counters["crypto.mask_cache.invalidations"] == 1
    assert len(cache) == 0


def test_su_churn_over_net_runtime_stays_correct(cache):
    """Join/leave churn across networked rounds: fresh users mask fresh.

    ``replace`` swaps a fraction of the population every round;
    ``check_equivalence`` re-runs each round in-process and compares the
    full result, so a stale digest anywhere would surface as a mismatch.
    """
    config = LoadgenConfig(
        n_users=8,
        n_channels=6,
        rounds=3,
        seed=13,
        replace=0.5,
        transport="memory",
        check_equivalence=True,
    )
    with obs.collecting() as registry:
        report = asyncio.run(run_loadgen(config))
    assert report.rounds_completed == 3
    assert report.equivalence_checked == 3
    totals = registry.totals()
    # Churned populations keep producing never-seen sets: every round
    # computed something fresh, and nothing was served without a lookup.
    assert totals["crypto.mask_cache.misses"] > 0
    assert totals["crypto.hmac"] > 0


def test_churned_users_never_reuse_other_users_digests(cache):
    """Population A then population B: B's new cells are all cold misses."""
    from repro.geo.grid import GridSpec
    from repro.lppa.location import submit_locations

    grid = GridSpec(rows=20, cols=20, cell_km=3.75)
    rng = random.Random(3)
    cells_a = grid.random_cells(rng, 10)
    cells_b = grid.random_cells(rng, 10)  # disjoint draw = churned roster
    submit_locations(cells_a, b"g0", grid, 6)
    fresh_cells = [c for c in cells_b if c not in set(cells_a)]
    with obs.collecting() as registry:
        submit_locations(fresh_cells, b"g0", grid, 6)
    # Coordinates can overlap across users (x or y shared), so some hits
    # are legitimate — but every hit must be for an identical (key, set):
    # assert the expensive invariant directly by recomputing cold.
    warm = submit_locations(fresh_cells, b"g0", grid, 6)
    cache.clear()
    cold = submit_locations(fresh_cells, b"g0", grid, 6)
    for w, c in zip(warm, cold):
        assert dataclasses.replace(w, user_id=0) == dataclasses.replace(
            c, user_id=0
        )
    assert registry.counters.get("crypto.mask_cache.misses", 0) > 0


# --- sets named by value --------------------------------------------------

_BID_DOMAIN = b"lppa/bid/adv"


def _value_specs(ring, width=11):
    """A stationary SU's sets: bid family and tail per channel, location
    family and cover under g0."""
    requests = []
    for channel in range(ring.n_channels):
        key = ring.channel_key(channel)
        value = 300 + channel
        requests.append((MaskShelf.family(key, width, domain=_BID_DOMAIN), [value]))
        requests.append((MaskShelf.cover(key, width, domain=_BID_DOMAIN), [(value, 1055)]))
    requests.append((MaskShelf.family(ring.g0, 8, domain=b"lppa/loc/x"), [42]))
    requests.append((MaskShelf.cover(ring.g0, 8, domain=b"lppa/loc/x"), [(37, 47)]))
    return requests


def test_value_specs_agree_warm_cold_and_disabled(cache):
    ring = generate_keyring(b"value-keys", 3)
    specs = _value_specs(ring)
    with obs.collecting() as registry:
        cold = mask_specs(specs)
        warm = mask_specs(specs)
    assert registry.counters["crypto.mask_cache.misses"] == len(specs)
    assert registry.counters["crypto.mask_cache.hits"] == len(specs)
    with cache_disabled():
        bypassed = mask_specs(specs)
    assert cold == warm == bypassed
    assert [m for group in cold for m in group] == reference_sets(specs)


def test_gc_only_rotation_keeps_value_keyed_entries(cache):
    scale = BidScale(bmax=127, rd=4, cr=8)
    ring = generate_keyring(b"service-seed", 3)
    TrustedThirdParty(ring, scale)
    specs = _value_specs(ring)
    mask_specs(specs)
    rotated = ring.rotate_gc(b"service-seed", "lppa/ttp/gc/m1")
    with obs.collecting() as registry:
        TrustedThirdParty(rotated, scale)
        mask_specs(_value_specs(rotated))
    assert "crypto.mask_cache.invalidations" not in registry.counters
    assert registry.counters["crypto.mask_cache.hits"] == len(specs)
    assert "crypto.mask_cache.misses" not in registry.counters


def test_full_rotation_misses_value_keyed_entries(cache):
    scale = BidScale(bmax=127, rd=4, cr=8)
    old = generate_keyring(b"epoch-1", 3)
    TrustedThirdParty(old, scale)
    mask_specs(_value_specs(old))
    new = generate_keyring(b"epoch-2", 3)
    with obs.collecting() as registry:
        TrustedThirdParty(new, scale)
        mask_specs(_value_specs(new))
        mask_specs(_value_specs(old))  # the retired keys' entries are gone too
    assert registry.counters["crypto.mask_cache.invalidations"] == 1
    assert "crypto.mask_cache.hits" not in registry.counters
    assert registry.counters["crypto.mask_cache.misses"] == 2 * len(_value_specs(new))


@pytest.mark.parametrize("delta", [1, -1, 8])
def test_ttp_flags_a_family_masked_for_another_value(cache, delta):
    """A warm cache holding the forged value's family must not make it pass:
    the TTP's check looks up the *decrypted* value, a different key."""
    ttp, ring, scale = TrustedThirdParty.setup(b"cheat-drill", 2, bmax=127)
    rng = random.Random(11)
    submission, disclosure = submit_bids_advanced(0, [60, 9], ring, scale, rng)
    genuine = submission.channel_bids[0]
    true_value = disclosure.channels[0].true_expanded
    forged_family = mask_value(
        ring.channel_key(0), true_value + delta, scale.width, domain=_BID_DOMAIN
    )
    assert forged_family != genuine.family
    forged = MaskedBid(
        family=forged_family, tail=genuine.tail, ciphertext=genuine.ciphertext
    )
    assert ttp.process_charge(0, genuine).status is ChargeStatus.VALID
    assert ttp.process_charge(0, forged).status is ChargeStatus.CHEATING
    decisions = ttp.process_batch([(0, forged), (0, genuine)])
    assert [d.status for d in decisions] == [ChargeStatus.CHEATING, ChargeStatus.VALID]
