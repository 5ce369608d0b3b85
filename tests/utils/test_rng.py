"""Deterministic label-addressed RNG streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import sha256 as reference_sha256
from repro.utils.rng import _seed_bytes, numpy_rng, spawn_rng, stable_seed


def test_stable_seed_is_stable():
    assert stable_seed("master", "a", "b") == stable_seed("master", "a", "b")


def test_labels_separate_streams():
    assert stable_seed("m", "a") != stable_seed("m", "b")
    assert stable_seed("m", "a", "b") != stable_seed("m", "ab")
    assert stable_seed("m1", "a") != stable_seed("m2", "a")


def test_seed_types():
    assert stable_seed(b"bytes") == stable_seed(b"bytes")
    assert stable_seed(42) == stable_seed(42)
    assert stable_seed("42") != stable_seed(42)
    with pytest.raises(TypeError):
        stable_seed(3.14)


def test_spawn_rng_reproducible():
    a = spawn_rng("m", "x")
    b = spawn_rng("m", "x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_numpy_rng_reproducible():
    a = numpy_rng("m", "x").normal(size=5)
    b = numpy_rng("m", "x").normal(size=5)
    assert (a == b).all()


def test_known_value_pinned():
    """Guards against accidental changes to the derivation scheme, which
    would silently reshuffle every experiment in EXPERIMENTS.md."""
    assert stable_seed("lppa-repro", "area3") == stable_seed("lppa-repro", "area3")
    assert stable_seed("x") == int.from_bytes(
        __import__("hashlib").sha256(b"x").digest()[:8], "big"
    )


# --- hashlib derivation == the in-repo SHA-256 reference -------------------


def _reference_stable_seed(seed, *labels):
    """The original derivation: streamed through the from-scratch SHA-256."""
    h = reference_sha256(_seed_bytes(seed))
    for label in labels:
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


seeds = st.one_of(
    st.integers(min_value=0, max_value=2**200),
    st.text(max_size=40),
    st.binary(max_size=80),
)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, labels=st.lists(st.text(max_size=20), max_size=5))
def test_stable_seed_matches_pure_sha256_reference(seed, labels):
    assert stable_seed(seed, *labels) == _reference_stable_seed(seed, *labels)


def test_stable_seed_literal_values_pinned():
    """Literal values: any change to the derivation reshuffles every
    experiment and every recorded benchmark digest."""
    assert stable_seed("lppa-repro", "area3") == 2921331895124980359
    assert stable_seed(42, "bidder", "7") == 17781965879593000867
    assert stable_seed(b"") == 16406829232824261652
