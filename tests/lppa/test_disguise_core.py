"""The inlined disguise/expand core makes the historical draws.

:func:`repro.lppa.bids_advanced.disguise_and_expand` draws its uniform
values with ``getrandbits`` and a rejection loop instead of going through
``BidScale.offset_value``/``expand`` and ``randint``/``randrange``.  The
oracle is the core as first written (``tests/lppa/oracles.py``): for every
zero-disguise policy and for scales whose ``cr`` and ``rd + 1`` are powers
of two or not, both must return equal disclosures and leave the RNG in the
same state.  CPython draws ``n.bit_length()`` bits for a value below
``n``, so a power of two rejects half its draws and ``2**k - 1`` one in
``2**k``: the rejection loop runs on every scale.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lppa.bids_advanced import BidScale, disguise_and_expand
from repro.lppa.policies import (
    KeepZeroPolicy,
    LinearDecreasingPolicy,
    UniformDisguisePolicy,
    UniformReplacePolicy,
    ZeroDisguisePolicy,
)
from tests.lppa import oracles

#: ``(rd, cr)`` with ``rd + 1`` and ``cr`` both powers of two.
POWER_OF_TWO_SCALES = [(1, 1), (1, 2), (3, 4), (3, 8), (7, 16), (15, 32)]
#: ``(rd, cr)`` where one or both are not.
OTHER_SCALES = [(2, 3), (4, 8), (3, 5), (5, 6), (6, 7), (9, 10), (4, 100)]

POLICIES = st.one_of(
    st.none(),
    st.just(KeepZeroPolicy()),
    st.floats(min_value=0.0, max_value=1.0).map(LinearDecreasingPolicy),
    st.floats(min_value=0.0, max_value=1.0).map(UniformReplacePolicy),
    st.just(UniformDisguisePolicy()),
)


@st.composite
def cases(draw):
    rd, cr = draw(st.sampled_from(POWER_OF_TWO_SCALES + OTHER_SCALES))
    bmax = draw(st.integers(min_value=1, max_value=200))
    scale = BidScale(bmax=bmax, rd=rd, cr=cr)
    # Zeros are frequent: they are the values the policy and the draws act on.
    bid = st.one_of(st.just(0), st.integers(min_value=0, max_value=bmax))
    bids = draw(st.lists(bid, max_size=12))
    return scale, bids, draw(POLICIES), draw(st.integers(min_value=0, max_value=2**32))


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_the_fast_core_matches_the_historical_draws(case):
    scale, bids, policy, seed = case
    fast_rng, oracle_rng = random.Random(seed), random.Random(seed)
    fast = disguise_and_expand(bids, scale, fast_rng, policy=policy)
    expected = oracles.disguise_and_expand(bids, scale, oracle_rng, policy=policy)
    assert fast == expected
    assert fast_rng.getstate() == oracle_rng.getstate()


class _CountingRandom(random.Random):
    """A Random that counts its ``getrandbits`` calls (the draws both cores
    make: CPython routes ``randrange`` through ``getrandbits``)."""

    def __init__(self, seed: int) -> None:
        self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k: int) -> int:
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("rd, cr", [(3, 8), (2, 5), (6, 7)])
def test_both_cores_reject_the_same_draws(rd, cr):
    scale = BidScale(bmax=50, rd=rd, cr=cr)
    bids = [0] * 200  # each value: one zero-band draw and one slot draw
    fast_rng, oracle_rng = _CountingRandom(1), _CountingRandom(1)
    fast = disguise_and_expand(bids, scale, fast_rng)
    assert fast == oracles.disguise_and_expand(bids, scale, oracle_rng)
    assert fast_rng.calls == oracle_rng.calls
    assert fast_rng.calls > 2 * len(bids)  # some draws were rejected


class _Overreaching(ZeroDisguisePolicy):
    """Pretends every zero is ``value``, whatever the scale allows."""

    def __init__(self, value: int) -> None:
        self.value = value

    def sample(self, rng: random.Random, user_bmax: int) -> int:
        return self.value

    def replace_probability(self, user_bmax: int) -> float:
        return 1.0


def test_range_checks_match_the_historical_core():
    scale = BidScale(bmax=30, rd=4, cr=8)
    for core in (disguise_and_expand, oracles.disguise_and_expand):
        with pytest.raises(ValueError, match="outside"):
            core([5, 31], scale, random.Random(0))
        with pytest.raises(ValueError, match="outside"):
            core([-1], scale, random.Random(0))
        with pytest.raises(ValueError, match="outside"):
            core([0, 3], scale, random.Random(0), policy=_Overreaching(31))
