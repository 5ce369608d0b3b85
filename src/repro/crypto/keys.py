"""Key material generation and distribution (the TTP's bootstrap role).

Section IV of the paper assumes a periodically-available TTP that generates:

* ``g0``   — the HMAC key masking *location* prefixes (known to SUs + TTP);
* ``gb``   — the HMAC key of the *basic* bid submission protocol;
* ``gb_1 … gb_k`` — per-channel HMAC keys of the *advanced* scheme, so the
  auctioneer cannot compare ciphertexts across channels;
* ``gc``   — the TTP's symmetric key under which true bid values travel;
* ``rd``   — the secret additive offset applied to every bid (zero bids are
  spread uniformly over ``[0, rd]``);
* ``cr``   — the secret multiplicative expansion factor mapping bid ``x``
  into the range ``[cr*x, cr*(x+1)-1]`` so equal bids encrypt differently.

All of it is distributed to the bidders out of band and withheld from the
auctioneer.  :class:`KeyRing` is that bundle; :func:`generate_keyring` derives
it deterministically from a seed so experiments are reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.crypto.backend import hmac_digest, hmac_digest_batch

__all__ = ["KeyRing", "generate_keyring", "derive_key"]

_KEY_BYTES = 16


def derive_key(master: bytes, label: str) -> bytes:
    """Derive a 16-byte subkey from ``master`` for the given label.

    A tiny HKDF-expand-style derivation: one HMAC invocation keyed by the
    master secret over the ASCII label, truncated to the Speck/HMAC key size.
    Routed through :mod:`repro.crypto.backend`, like every other digest
    the protocol computes.
    """
    return hmac_digest(master, label.encode("ascii"))[:_KEY_BYTES]


@dataclass(frozen=True)
class KeyRing:
    """All secrets shared between the TTP and the bidders.

    The auctioneer never receives an instance of this class; the protocol
    endpoints in :mod:`repro.lppa` keep it on the SU/TTP side only.
    """

    g0: bytes
    gb: bytes
    gb_channels: List[bytes] = field(default_factory=list)
    gc: bytes = b""
    rd: int = 0
    cr: int = 1

    def __post_init__(self) -> None:
        if self.rd < 0:
            raise ValueError("rd offset must be non-negative")
        if self.cr < 1:
            raise ValueError("cr expansion factor must be >= 1")

    @property
    def n_channels(self) -> int:
        return len(self.gb_channels)

    def channel_key(self, channel: int) -> bytes:
        """HMAC key for the advanced scheme on the given channel index."""
        if not 0 <= channel < len(self.gb_channels):
            raise IndexError(
                f"channel {channel} outside 0..{len(self.gb_channels) - 1}"
            )
        return self.gb_channels[channel]

    def describe(self) -> Dict[str, object]:
        """Non-secret summary (key sizes and public-ish parameters only)."""
        return {
            "n_channels": self.n_channels,
            "rd": self.rd,
            "cr": self.cr,
            "key_bytes": _KEY_BYTES,
        }

    def live_keys(self) -> Tuple[bytes, ...]:
        """Every key byte-string in the ring, for selective cache eviction.

        Handed to :func:`repro.crypto.cache.note_key_epoch` so a partial
        rotation (the epoch service replaces only ``gc`` on membership
        change) drops only masked-digest entries of *retired* keys.
        """
        return (self.g0, self.gb, self.gc, *self.gb_channels)

    def rotate_gc(self, master: bytes, label: str) -> "KeyRing":
        """A new ring with ``gc`` re-derived for a fresh key epoch.

        The epoch service calls this on every membership change: the
        departed SU keeps its knowledge of the old ring, so the TTP key
        sealing future true-bid ciphertexts must rotate, while the masking
        keys (``g0``/``gb_*``) stay — masked digests are one-way, so a
        former member learns nothing new from them, and keeping them
        preserves every stationary SU's warm mask cache.  ``gc`` is
        size-neutral (Speck key, fixed ciphertext framing), so rotation
        never changes results or wire accounting.
        """
        return dataclasses.replace(self, gc=derive_key(master, label))

    def fingerprint(self) -> bytes:
        """Digest identifying this key epoch for cache invalidation.

        A one-way hash over all key material and disguise parameters; the
        TTP hands it to :func:`repro.crypto.cache.note_key_epoch` at every
        key (re)distribution so masked-digest caches of a previous epoch
        are dropped eagerly.  It stays on the SU/TTP side of the trust
        boundary, like the keys themselves.
        """
        h = hashlib.sha256(b"lppa/keyring/fingerprint/v1")
        for part in (self.g0, self.gb, self.gc, *self.gb_channels):
            h.update(struct.pack(">I", len(part)))
            h.update(part)
        h.update(struct.pack(">II", self.rd, self.cr))
        return h.digest()


def generate_keyring(
    seed: bytes,
    n_channels: int,
    *,
    rd: int = 4,
    cr: int = 8,
) -> KeyRing:
    """Deterministically generate the full TTP key ring from a seed.

    Parameters
    ----------
    seed:
        Master secret; experiments pass a fixed seed for reproducibility,
        a deployment would draw it from an OS CSPRNG.
    n_channels:
        Number of auctioned channels ``k`` (one advanced-scheme HMAC key per
        channel).
    rd:
        Secret additive offset; zero bids are mapped uniformly into
        ``[0, rd]``.  Must satisfy ``rd >= 1`` for the disguise to work.
    cr:
        Secret expansion factor; bid ``x`` is mapped uniformly into
        ``[cr*x, cr*(x+1)-1]`` before encryption so that identical bids do
        not produce identical prefix sets or ciphertexts.
    """
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if not seed:
        raise ValueError("seed must be non-empty bytes")
    labels = [
        "lppa/location/g0",
        "lppa/bid/gb",
        "lppa/ttp/gc",
        *(
            f"lppa/bid/gb_{struct.pack('>I', ch).hex()}"
            for ch in range(n_channels)
        ),
    ]
    # One batch through the backend: every subkey shares the master key.
    g0, gb, gc, *gb_channels = (
        d[:_KEY_BYTES]
        for d in hmac_digest_batch(seed, [lb.encode("ascii") for lb in labels])
    )
    return KeyRing(g0=g0, gb=gb, gb_channels=gb_channels, gc=gc, rd=rd, cr=cr)
