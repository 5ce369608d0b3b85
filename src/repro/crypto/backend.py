"""The protocol's HMAC-SHA256 entry points: one key state, copied per message.

The repository ships its own SHA-256/HMAC (:mod:`repro.crypto.sha256`,
:mod:`repro.crypto.hmac_impl`) so the masking layer is auditable end to end,
and the test suite pins these functions to it digest for digest.  The
protocol itself computes every digest here, on the standard library's
``hmac``/``hashlib`` (OpenSSL's C core, over 200x faster than the
pure-Python reference): a 129-channel, 200-bidder auction performs millions
of HMAC invocations.

The masking layer batches whole prefix sets into :func:`hmac_digest_batch`
(one key) / :func:`hmac_digest_pairs` (a key per message); scalar callers
use :func:`hmac_digest`.  A batch absorbs the key's ipad and opad blocks
once, into two plain ``hashlib`` states, and copies both for each message.
Every digest is counted under the ``crypto.hmac`` metric when
:mod:`repro.obs` is collecting (these functions are the choke point all
masking flows through), and each batch call additionally counts
``crypto.hmac_batches``.
"""

from __future__ import annotations

import hashlib
import hmac as _stdlib_hmac
from itertools import groupby
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro import obs

__all__ = ["hmac_digest", "hmac_digest_batch", "hmac_digest_pairs"]


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_BLOCK = 64  # SHA-256 block size, the HMAC key length


def _batch(key: bytes, msgs: Iterable[bytes]) -> List[bytes]:
    # RFC 2104 over plain hashlib states: the padded key's inner and outer
    # blocks are absorbed once, and each message copies both states.
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner = hashlib.sha256(key.translate(_IPAD))
    outer = hashlib.sha256(key.translate(_OPAD))
    out = []
    for m in msgs:
        h = inner.copy()
        h.update(m)
        o = outer.copy()
        o.update(h.digest())
        out.append(o.digest())
    return out


def hmac_digest(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 digest of ``msg`` under ``key``."""
    obs.count("crypto.hmac")
    return _stdlib_hmac.new(key, msg, hashlib.sha256).digest()


def hmac_digest_batch(key: bytes, msgs: Sequence[bytes]) -> List[bytes]:
    """HMAC-SHA256 of every message under one key."""
    obs.count("crypto.hmac", len(msgs))
    obs.count("crypto.hmac_batches")
    return _batch(key, msgs)


def hmac_digest_pairs(items: Sequence[Tuple[bytes, bytes]]) -> List[bytes]:
    """HMAC-SHA256 of ``(key, msg)`` pairs; keys may differ per item.

    Consecutive same-key runs share one key state, which matches how the
    masking layer flattens per-channel sets into one request.
    """
    obs.count("crypto.hmac", len(items))
    obs.count("crypto.hmac_batches")
    out: List[bytes] = []
    for key, run in groupby(items, key=itemgetter(0)):
        out.extend(_batch(key, (m for _, m in run)))
    return out
