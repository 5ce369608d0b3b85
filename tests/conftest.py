"""Shared fixtures: small deterministic worlds reused across test modules.

Session-scoped where construction is expensive (coverage maps); tests must
treat them as read-only.
"""

import gc
import random

import pytest

from repro.auction.bidders import generate_users
from repro.geo.datasets import make_database
from repro.geo.grid import GridSpec


@pytest.fixture(scope="session")
def small_db():
    """Area 3 with 10 channels on the full 100x100 grid."""
    return make_database(3, n_channels=10)


@pytest.fixture(scope="session")
def small_users(small_db):
    """Thirty bidders on the small database (fixed seed)."""
    return generate_users(small_db, 30, random.Random(1234))


@pytest.fixture(scope="session")
def tiny_db():
    """Area 4 with 6 channels on a coarse 20x20 grid (fast attacks)."""
    return make_database(4, n_channels=6, grid=GridSpec(rows=20, cols=20, cell_km=3.75))


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return random.Random(99)


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled.

    Round entry points pause the collector (``collector_paused``); a pause
    that never ends would silently switch it off for every later test.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("test left the cyclic garbage collector disabled")
