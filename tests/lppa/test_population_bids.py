"""The population bid batch equals one ``submit_bids_advanced`` call per SU.

:func:`submit_population_bids` masks every SU's families and tail covers
in one :func:`mask_specs` call and seals every ciphertext in one keystream
call, while each SU's disguise/expand values, fillers and nonces still
come from its own RNG in the one-SU order.  The oracle is the per-SU
loop.  Populations repeat bid values across SUs (shared cache entries in
one batch), bid zero (disguise draws) and mix disguise policies, each SU
with its own RNG, and every case runs on a cold and then a warm cache.
Submissions, disclosures, every RNG's final state and the deterministic
counters must all be equal; only the number of HMAC batches may differ,
which is the point.

The batch makes its bids and submissions with the unchecked ``of_parts``
makers after checking, once, the shape bounds that imply every per-message
check; the last tests pin that those messages are ordinary ones, their
stored sizes included, and that the bounds still raise, in the batch and
in the decoder.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.crypto.cache import MaskCache, set_mask_cache
from repro.crypto.keys import generate_keyring
from repro.lppa.bids_advanced import (
    BidScale,
    submit_bids_advanced,
    submit_population_bids,
)
from repro.lppa.codec import decode_bids, encode_bids
from repro.lppa.messages import BidSubmission, CodecError, MaskedBid
from repro.lppa.policies import (
    KeepZeroPolicy,
    LinearDecreasingPolicy,
    UniformDisguisePolicy,
    UniformReplacePolicy,
)
from repro.prefix.membership import DEFAULT_DIGEST_BYTES

SCALE = BidScale(bmax=31, rd=3, cr=4)
#: Bid values a population draws from: small, so SUs repeat each other.
BID_POOL = (0, 0, 1, 7, 7, 31)
POLICIES = (
    None,
    KeepZeroPolicy(),
    LinearDecreasingPolicy(0.5),
    UniformReplacePolicy(0.7),
    UniformDisguisePolicy(),
)
#: Counters that count backend calls, which batching is meant to cut.
BATCH_COUNTERS = {"crypto.hmac_batches"}


@st.composite
def populations(draw):
    n_channels = draw(st.integers(min_value=1, max_value=4))
    n_users = draw(st.integers(min_value=0, max_value=6))
    bids = [
        draw(st.lists(st.sampled_from(BID_POOL), min_size=n_channels, max_size=n_channels))
        for _ in range(n_users)
    ]
    policies = [draw(st.sampled_from(POLICIES)) for _ in range(n_users)]
    seeds = draw(
        st.lists(st.integers(min_value=0, max_value=2**32), min_size=n_users, max_size=n_users)
    )
    user_ids = draw(
        st.lists(st.integers(min_value=0, max_value=999), min_size=n_users, max_size=n_users)
    )
    key_seed = draw(st.binary(min_size=1, max_size=8))
    return n_channels, bids, policies, seeds, user_ids, key_seed


def _population(case, rngs):
    n_channels, bids, policies, _, user_ids, key_seed = case
    keyring = generate_keyring(key_seed, n_channels, rd=SCALE.rd, cr=SCALE.cr)
    return submit_population_bids(
        bids, keyring, SCALE, rngs, policies=policies, user_ids=user_ids
    )


def _per_su(case, rngs):
    n_channels, bids, policies, _, user_ids, key_seed = case
    keyring = generate_keyring(key_seed, n_channels, rd=SCALE.rd, cr=SCALE.cr)
    results = [
        submit_bids_advanced(uid, row, keyring, SCALE, rng, policy=policy)
        for uid, row, rng, policy in zip(user_ids, bids, rngs, policies)
    ]
    return [sub for sub, _ in results], [disclosure for _, disclosure in results]


def _run_cold_then_warm(run, case):
    """Two rounds of ``run`` on a fresh cache; per round the output, the
    RNGs' final states and the counters."""
    previous = set_mask_cache(MaskCache())
    try:
        rounds = []
        for round_seed in (0, 1):
            rngs = [random.Random(seed + round_seed) for seed in case[3]]
            with obs.collecting() as registry:
                output = run(case, rngs)
            counters = {
                name: value
                for name, value in registry.counters.items()
                if name not in BATCH_COUNTERS
            }
            rounds.append((output, [rng.getstate() for rng in rngs], counters))
        return rounds
    finally:
        set_mask_cache(previous)


@settings(max_examples=60, deadline=None)
@given(case=populations())
def test_population_batch_equals_the_per_su_loop(case):
    batched = _run_cold_then_warm(_population, case)
    looped = _run_cold_then_warm(_per_su, case)
    for (out_b, states_b, counters_b), (out_l, states_l, counters_l) in zip(batched, looped):
        assert out_b == out_l
        assert states_b == states_l
        assert counters_b == counters_l


def test_one_mask_batch_and_one_seal_for_independent_rngs():
    keyring = generate_keyring(b"population", 3, rd=SCALE.rd, cr=SCALE.cr)
    bids = [[7, 0, 31], [7, 1, 0], [0, 0, 0], [31, 31, 31]]
    rngs = [random.Random(seed) for seed in range(len(bids))]
    previous = set_mask_cache(MaskCache())
    try:
        with obs.collecting() as registry:
            submit_population_bids(bids, keyring, SCALE, rngs)
    finally:
        set_mask_cache(previous)
    assert registry.counters["crypto.hmac_batches"] == 1
    assert registry.counters["crypto.speck.encrypt"] == len(bids) * 3


def test_a_repeated_rng_object_is_rejected():
    keyring = generate_keyring(b"population", 2, rd=SCALE.rd, cr=SCALE.cr)
    shared = random.Random(5)
    rngs = [shared, random.Random(6), shared]
    before = shared.getstate()
    with pytest.raises(ValueError, match="own RNG"):
        submit_population_bids([[1, 2], [3, 4], [5, 6]], keyring, SCALE, rngs)
    assert shared.getstate() == before


def test_rejects_misaligned_arguments_and_channel_counts():
    keyring = generate_keyring(b"population", 2, rd=SCALE.rd, cr=SCALE.cr)
    with pytest.raises(ValueError, match="RNGs"):
        submit_population_bids([[1, 2]], keyring, SCALE, [])
    with pytest.raises(ValueError, match="user ids"):
        submit_population_bids([[1, 2]], keyring, SCALE, [random.Random(0)], user_ids=[])
    with pytest.raises(ValueError, match="channel keys"):
        submit_population_bids([[1, 2], [3]], keyring, SCALE, [random.Random(0)] * 2)


def _one_batch(n_users=3):
    keyring = generate_keyring(b"validate-once", 2, rd=SCALE.rd, cr=SCALE.cr)
    bids = [[7, 0], [31, 1], [0, 0]][:n_users]
    rngs = [random.Random(seed) for seed in range(n_users)]
    return submit_population_bids(bids, keyring, SCALE, rngs)[0]


def _declared(record):
    """Every declared field of a record, the stored sizes included."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def test_an_unchecked_bid_equals_hashes_and_encodes_like_a_checked_one():
    for submission in _one_batch():
        for made in submission.channel_bids:
            checked = MaskedBid(made.family, made.tail, made.ciphertext)
            assert made == checked and hash(made) == hash(checked)
            assert _declared(made) == _declared(checked)
            assert made.wire_size() == checked.wire_size()
        checked_sub = BidSubmission(submission.user_id, submission.channel_bids)
        assert _declared(submission) == _declared(checked_sub)
        decoded = decode_bids(encode_bids(submission))
        assert decoded == submission and hash(decoded) == hash(submission)
        assert len(encode_bids(submission)) == submission.wire_size()


def test_the_batch_checks_the_shape_bounds_once(monkeypatch):
    width = SCALE.width
    assert (width + 1, SCALE.pad_to) == (9, 14)
    # Tails (pad_to digests) over the bound, families (w + 1) under it.
    monkeypatch.setattr("repro.lppa.messages.U16_MAX", SCALE.pad_to - 1)
    with pytest.raises(CodecError, match="tail size"):
        _one_batch()
    # Families over the bound too.
    monkeypatch.setattr("repro.lppa.messages.U16_MAX", width)
    with pytest.raises(CodecError, match="family size"):
        _one_batch()
    monkeypatch.undo()
    monkeypatch.setattr("repro.lppa.messages.U8_MAX", DEFAULT_DIGEST_BYTES - 1)
    with pytest.raises(CodecError, match="u8"):
        _one_batch()


def test_the_decoder_still_checks_every_bid(monkeypatch):
    (submission,) = _one_batch(n_users=1)
    wire = encode_bids(submission)
    monkeypatch.setattr("repro.lppa.messages.U16_MAX", SCALE.pad_to - 1)
    with pytest.raises(CodecError, match="u16"):
        decode_bids(wire)
