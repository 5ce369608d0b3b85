"""The entropy module: one seeding contract."""

import pytest

from repro.lppa.entropy import alloc_rng, bidder_rng, derive_round_rngs
from repro.utils.rng import spawn_rng


def test_derive_round_rngs_matches_the_labelled_streams():
    user_rngs, alloc = derive_round_rngs("round-7", 4)
    assert len(user_rngs) == 4
    for i, rng in enumerate(user_rngs):
        expected = spawn_rng("round-7", "bidder", str(i))
        assert rng.random() == expected.random()
    assert alloc.random() == spawn_rng("round-7", "alloc").random()


def test_bidder_stream_is_independent_of_population_size():
    """A networked SU derives its stream alone; it must equal the stream the
    in-process derivation hands the same id, whatever n_users is."""
    lone = bidder_rng("round-9", 2)
    in_small, _ = derive_round_rngs("round-9", 3)
    in_large, _ = derive_round_rngs("round-9", 30)
    draws = [lone.random() for _ in range(5)]
    assert [in_small[2].random() for _ in range(5)] == draws
    assert [in_large[2].random() for _ in range(5)] == draws


def test_alloc_stream_differs_from_bidder_streams():
    assert alloc_rng("round-1").random() != bidder_rng("round-1", 0).random()


def test_fastsim_no_longer_re_exports_derive_round_rngs():
    """The deprecation shim is gone: the one home is repro.lppa.entropy."""
    import repro.lppa.fastsim as fastsim

    with pytest.raises(AttributeError):
        fastsim.derive_round_rngs
    assert "derive_round_rngs" not in fastsim.__all__


@pytest.mark.parametrize("entry", ["session", "fastsim"])
def test_round_entry_points_take_no_shared_rng(entry, tiny_db):
    """Every round is seeded by ``entropy``; the shared-stream ``rng=`` is gone."""
    import random

    from repro.auction.bidders import generate_users
    from repro.lppa.fastsim import run_fast_lppa
    from repro.lppa.session import run_lppa_auction

    users = generate_users(tiny_db, 3, random.Random(5))
    with pytest.raises(TypeError, match="rng"):
        if entry == "session":
            run_lppa_auction(
                users, tiny_db.coverage.grid, two_lambda=6, bmax=127, rng=random.Random(1)
            )
        else:
            run_fast_lppa(users, two_lambda=6, bmax=127, rng=random.Random(1))
