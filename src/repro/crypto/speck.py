"""Speck64/128 block cipher in CTR mode — the TTP's symmetric key ``gc``.

LPPA's charging protocol (PSD, section V.B) requires each bidder to attach a
copy of every bid encrypted under a symmetric key ``gc`` known only to the
TTP.  The auctioneer forwards the winning ciphertext to the TTP, which
decrypts it, strips the ``cr`` expansion and ``rd`` offset, and returns the
charge (or an *invalid winner* notification for a disguised zero).

Speck64/128 (Beaulieu et al., NSA 2013) is used because it is compact enough
to implement from scratch and its 64-bit block comfortably holds the 32-bit
expanded bid plus a per-message random nonce, which gives the
ciphertext-indistinguishability that the paper's ``cr`` trick relies on (the
auctioneer must not be able to match equal plaintext bids by equal
ciphertexts).
"""

from __future__ import annotations

import struct

__all__ = ["Speck64128", "ctr_encrypt", "ctr_decrypt"]

_MASK32 = 0xFFFFFFFF
_ROUNDS = 27  # Speck64/128


def _ror(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & _MASK32


def _rol(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


class Speck64128:
    """Speck with a 64-bit block and 128-bit key.

    The class exposes raw single-block ``encrypt_block``/``decrypt_block``
    plus the CTR-mode helpers used by the protocol.
    """

    block_size = 8
    key_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise ValueError(
                f"Speck64/128 needs a {self.key_size}-byte key, got {len(key)}"
            )
        # Key words l[2], l[1], l[0], k[0] little-endian per the Speck paper.
        k0, l0, l1, l2 = struct.unpack("<4I", key)
        self._round_keys = [k0]
        l = [l0, l1, l2]
        for i in range(_ROUNDS - 1):
            new_l = (self._round_keys[i] + _ror(l[i], 8)) & _MASK32
            new_l ^= i
            new_k = _rol(self._round_keys[i], 3) ^ new_l
            l.append(new_l)
            self._round_keys.append(new_k)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 8-byte block."""
        if len(block) != self.block_size:
            raise ValueError("Speck64 block must be 8 bytes")
        y, x = struct.unpack("<2I", block)
        # ROR(x, 8) and ROL(y, 3) inlined: a helper call per rotation is
        # most of the cost of 27 rounds in pure Python.  The rotation's
        # bits above 32 cannot reach the low 32 bits of the sum, so one
        # mask after the addition serves both.
        for k in self._round_keys:
            x = (((x >> 8) | (x << 24)) + y) & _MASK32 ^ k
            y = ((y << 3) | (y >> 29)) & _MASK32 ^ x
        return struct.pack("<2I", y, x)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 8-byte block."""
        if len(block) != self.block_size:
            raise ValueError("Speck64 block must be 8 bytes")
        y, x = struct.unpack("<2I", block)
        for k in reversed(self._round_keys):
            y ^= x
            y = ((y >> 3) | (y << 29)) & _MASK32
            x = ((x ^ k) - y) & _MASK32
            x = ((x << 8) | (x >> 24)) & _MASK32
        return struct.pack("<2I", y, x)

    def _keystream(self, nonce: bytes, n_bytes: int) -> bytes:
        if len(nonce) != 4:
            raise ValueError("CTR nonce must be 4 bytes")
        blocks = -(-n_bytes // self.block_size)
        stream = b"".join(
            self.encrypt_block(nonce + struct.pack("<I", counter))
            for counter in range(blocks)
        )
        return stream[:n_bytes]


def ctr_encrypt(cipher: Speck64128, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` under CTR mode with a caller-chosen nonce.

    The nonce must be unique per message under a given key; the protocol
    layer draws it from the bidder's RNG and prepends it to the ciphertext
    on the wire.
    """
    n = len(plaintext)
    stream = cipher._keystream(nonce, n)
    return (int.from_bytes(plaintext, "little") ^ int.from_bytes(stream, "little")).to_bytes(
        n, "little"
    )


def ctr_decrypt(cipher: Speck64128, nonce: bytes, ciphertext: bytes) -> bytes:
    """CTR decryption (identical to encryption)."""
    return ctr_encrypt(cipher, nonce, ciphertext)
