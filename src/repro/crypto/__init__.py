"""Cryptographic substrate built from scratch: SHA-256, HMAC, Speck64/128-CTR.

The paper's PPBS protocol only needs two primitives — a keyed hash whose
outputs the auctioneer can compare for equality but not invert (HMAC), and a
symmetric cipher for the TTP charging channel (key ``gc``).  Both are
implemented here without external dependencies.

The protocol computes HMAC on one path, :mod:`repro.crypto.backend`, which
runs the standard library's ``hmac``/``hashlib``.  The from-scratch
:mod:`repro.crypto.sha256` / :mod:`repro.crypto.hmac_impl` are the reference
that path is tested against, digest for digest.
"""

from repro.crypto.backend import hmac_digest, hmac_digest_batch, hmac_digest_pairs
from repro.crypto.cache import (
    MaskCache,
    cache_disabled,
    get_mask_cache,
    note_key_epoch,
)
from repro.crypto.hmac_impl import HMAC, hmac_sha256
from repro.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.keys import KeyRing, derive_key, generate_keyring
from repro.crypto.sha256 import SHA256, sha256
from repro.crypto.speck import Speck64128, ctr_decrypt, ctr_encrypt

__all__ = [
    "hmac_digest",
    "hmac_digest_batch",
    "hmac_digest_pairs",
    "MaskCache",
    "cache_disabled",
    "get_mask_cache",
    "note_key_epoch",
    "HMAC",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_paillier_keypair",
    "generate_prime",
    "is_probable_prime",
    "hmac_sha256",
    "KeyRing",
    "derive_key",
    "generate_keyring",
    "SHA256",
    "sha256",
    "Speck64128",
    "ctr_decrypt",
    "ctr_encrypt",
]
