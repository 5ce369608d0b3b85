"""Sites that build masked sets without the per-digest length scan still reject.

``MaskedSet(...)`` scans every digest's length.  Where a site fixes every
digest's width by construction it checks that width once instead — per
mask shelf, or per padding call — and builds the set unscanned.  Each test
below feeds such a site what the scan used to catch there, and must raise
the same ``ValueError`` it always did: no check is dropped.
"""

import random

import pytest

from repro.crypto.cache import cache_disabled
from repro.prefix.membership import (
    MaskedSet,
    MaskShelf,
    mask_range,
    mask_specs,
    mask_value,
    pad_masked_set,
)

KEY = b"validate-once"


@pytest.mark.parametrize("digest_bytes", [0, 3, 33, 64])
@pytest.mark.parametrize("cached", [True, False])
def test_a_mask_spec_outside_the_hmac_width_is_rejected(digest_bytes, cached):
    specs = [
        (MaskShelf.family(KEY, 8, digest_bytes=digest_bytes), [5]),
        (MaskShelf.cover(KEY, 8, digest_bytes=digest_bytes), [(3, 200)]),
    ]
    if cached:
        with pytest.raises(ValueError):
            mask_specs(specs)
        with pytest.raises(ValueError):
            mask_value(KEY, 5, 8, digest_bytes=digest_bytes)
    else:
        with cache_disabled(), pytest.raises(ValueError):
            mask_specs(specs)


@pytest.mark.parametrize("digest_bytes", [4, 16, 32])
def test_mask_specs_widths_four_to_thirty_two_build_exact_sets(digest_bytes):
    with cache_disabled():
        (family,), (cover,) = mask_specs(
            [
                (MaskShelf.family(KEY, 8, digest_bytes=digest_bytes), [5]),
                (MaskShelf.cover(KEY, 8, digest_bytes=digest_bytes), [(3, 200)]),
            ]
        )
    for masked in (family, cover):
        assert masked.digest_bytes == digest_bytes
        assert {len(d) for d in masked.digests} == {digest_bytes}
        assert masked == MaskedSet(masked.digests, digest_bytes=digest_bytes)


def test_padding_a_genuine_set_of_another_width_is_rejected():
    genuine = mask_range(KEY, 10, 40, 8, digest_bytes=16)
    for digest_bytes in (8, 20):
        with pytest.raises(ValueError, match="digest_bytes length"):
            pad_masked_set(
                genuine, ceiling=14, digest_bytes=digest_bytes, rng=random.Random(1)
            )


def test_padding_a_raw_set_with_a_wrong_length_digest_is_rejected():
    raw = {b"a" * 16, b"b" * 15}
    for form in (set, frozenset):
        with pytest.raises(ValueError, match="digest_bytes length"):
            pad_masked_set(form(raw), ceiling=14, digest_bytes=16, rng=random.Random(1))


def test_padding_a_raw_set_below_four_bytes_is_rejected():
    with pytest.raises(ValueError):
        pad_masked_set({b"abc"}, ceiling=4, digest_bytes=3, rng=random.Random(1))


def test_padding_a_genuine_set_of_its_width_equals_the_checked_set():
    genuine = mask_range(KEY, 10, 40, 8, digest_bytes=16)
    padded = pad_masked_set(genuine, ceiling=14, digest_bytes=16, rng=random.Random(1))
    assert len(padded) == 14 and genuine.digests <= padded.digests
    assert {len(d) for d in padded.digests} == {16}
    assert padded == MaskedSet(padded.digests, digest_bytes=16)
