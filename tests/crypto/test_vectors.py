"""Published RFC 4231 HMAC-SHA256 vectors through the protocol's entry points.

`tests/crypto/test_sha256.py` and `test_hmac.py` pin the from-scratch
reference against NIST and RFC 4231; this module pins the scalar,
shared-key-batch and per-key-pairs entry points of
:mod:`repro.crypto.backend` to the same published answers.  The batch,
pairs and truncation tests run on both HMAC implementations the repository
carries: ``hashlib`` (the protocol's entry points) and ``pure`` (the
from-scratch reference driven through the same calling patterns — one
absorbed key state copied per message), so neither can drift from the
standard without a test naming it.
"""

from typing import List, Sequence, Tuple

import pytest

from repro.crypto.backend import hmac_digest, hmac_digest_batch, hmac_digest_pairs
from repro.crypto.hmac_impl import HMAC, hmac_sha256


def _reference_batch(key: bytes, msgs: Sequence[bytes]) -> List[bytes]:
    base = HMAC(key)
    out = []
    for m in msgs:
        h = base.copy()
        h.update(m)
        out.append(h.digest())
    return out


def _reference_pairs(items: Sequence[Tuple[bytes, bytes]]) -> List[bytes]:
    return [_reference_batch(key, [m])[0] for key, m in items]


# (scalar, batch, pairs) entry points of each implementation.
BACKENDS = {
    "hashlib": (hmac_digest, hmac_digest_batch, hmac_digest_pairs),
    "pure": (hmac_sha256, _reference_batch, _reference_pairs),
}

# RFC 4231 HMAC-SHA256 test cases 1-4, 6, 7 (full 256-bit outputs).
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger t"
        b"han block-size data. The key needs to be hashed before being use"
        b"d by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]

# RFC 4231 test case 5: output truncated to 128 bits — the same truncation
# discipline the masking layer's digest_bytes=16 wire format uses.
RFC4231_TRUNCATED = (
    b"\x0c" * 20,
    b"Test With Truncation",
    "a3b6167473100ee06e0c796c2955552b",
)


@pytest.mark.parametrize("key,message,expected", RFC4231)
def test_rfc4231_scalar(key, message, expected):
    assert hmac_digest(key, message).hex() == expected


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_rfc4231_batch_every_backend(backend):
    _, batch, _ = BACKENDS[backend]
    for key, message, expected in RFC4231:
        # Repeat each message so the batch path's state reuse shows.
        digests = batch(key, [message] * 3)
        assert [d.hex() for d in digests] == [expected] * 3


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_rfc4231_pairs_every_backend(backend):
    _, _, pairs = BACKENDS[backend]
    items = [(key, message) for key, message, _ in RFC4231]
    digests = pairs(items)
    assert [d.hex() for d in digests] == [expected for _, _, expected in RFC4231]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_rfc4231_truncated_case_every_backend(backend):
    scalar, batch, pairs = BACKENDS[backend]
    key, message, expected = RFC4231_TRUNCATED
    assert scalar(key, message)[:16].hex() == expected
    assert batch(key, [message])[0][:16].hex() == expected
    assert pairs([(key, message)])[0][:16].hex() == expected
