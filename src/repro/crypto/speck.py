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

Many blocks are enciphered at once by :meth:`Speck64128.encrypt_blocks`,
which runs the 27 rounds on *lanes*: block ``i`` is the 64-bit field
``i`` of one Python int, so one big-int operation advances every block.
Each 32-bit word sits in the low half of its lane; rotations spill only
into the high half (or the neighbour's high half), which is masked off
before the add, so no carry ever crosses into the next lane.  A CTR
batch (:func:`ctr_encrypt_batch`) sends every counter block of every
message through one such call; the scalar :meth:`~Speck64128.encrypt_block`
is the reference the lanes are tested against.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

__all__ = ["Speck64128", "ctr_encrypt", "ctr_decrypt", "ctr_encrypt_batch"]

_MASK32 = 0xFFFFFFFF
_ROUNDS = 27  # Speck64/128


_pack_counter = struct.Struct("<I").pack
_FIRST_COUNTER = _pack_counter(0)


def _ror(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & _MASK32


def _rol(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


class Speck64128:
    """Speck with a 64-bit block and 128-bit key.

    The class exposes raw single-block ``encrypt_block``/``decrypt_block``
    plus the lane-parallel ``encrypt_blocks`` the CTR helpers run on.
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
        # Lane count -> (lane mask, round keys replicated into every lane).
        self._lanes: Dict[int, Tuple[int, List[int]]] = {}

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

    def _lane_constants(self, n: int) -> Tuple[int, List[int]]:
        constants = self._lanes.get(n)
        if constants is None:
            ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * n, "little")
            constants = (_MASK32 * ones, [k * ones for k in self._round_keys])
            if len(self._lanes) < 64:
                self._lanes[n] = constants
        return constants

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """Encrypt consecutive 8-byte blocks, all lanes of one big int.

        Byte for byte what :meth:`encrypt_block` gives for each block.
        """
        n, rest = divmod(len(blocks), self.block_size)
        if rest:
            raise ValueError("Speck64 input must be a whole number of 8-byte blocks")
        if not n:
            return b""
        mask, keys = self._lane_constants(n)
        # Lane i holds block i little-endian: y in its low word, x above.
        packed = int.from_bytes(blocks, "little")
        y = packed & mask
        x = (packed >> 32) & mask
        for k in keys:
            x = ((((x >> 8) | (x << 24)) & mask) + y) & mask ^ k
            y = ((y << 3) | (y >> 29)) & mask ^ x
        return (y | (x << 32)).to_bytes(8 * n, "little")


def ctr_encrypt_batch(
    cipher: Speck64128, nonces: Sequence[bytes], payloads: Sequence[bytes]
) -> List[bytes]:
    """CTR-encrypt many messages, each under its own nonce, in one lane call.

    Message ``j`` uses counter blocks ``nonces[j] || 0, 1, ...``; every
    block of every message is enciphered by one :meth:`Speck64128.encrypt_blocks`
    call and the keystream is XORed onto all payloads at once.  Equal,
    message for message, to :func:`ctr_encrypt`, which is its one-message case.
    """
    if len(nonces) != len(payloads):
        raise ValueError("one nonce per payload required")
    counters: List[bytes] = []
    padded: List[bytes] = []
    for nonce, payload in zip(nonces, payloads):
        if len(nonce) != 4:
            raise ValueError("CTR nonce must be 4 bytes")
        size = len(payload)
        # Sealed bids are one block each; only longer payloads need the
        # per-block counter loop (a list comprehension per message would
        # triple this loop's cost).
        if size > 8:
            blocks = -(-size // 8)
            counters.extend([nonce + _pack_counter(c) for c in range(blocks)])
            padded.append(payload.ljust(8 * blocks, b"\0"))
        elif size:
            counters.append(nonce + _FIRST_COUNTER)
            padded.append(payload.ljust(8, b"\0"))
        else:
            padded.append(b"")
    stream = cipher.encrypt_blocks(b"".join(counters))
    mixed = (
        int.from_bytes(b"".join(padded), "little") ^ int.from_bytes(stream, "little")
    ).to_bytes(len(stream), "little")
    out = []
    offset = 0
    for payload, chunk in zip(payloads, padded):
        out.append(mixed[offset : offset + len(payload)])
        offset += len(chunk)
    return out


def ctr_encrypt(cipher: Speck64128, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` under CTR mode with a caller-chosen nonce.

    The nonce must be unique per message under a given key; the protocol
    layer draws it from the bidder's RNG and prepends it to the ciphertext
    on the wire.
    """
    return ctr_encrypt_batch(cipher, [nonce], [plaintext])[0]


def ctr_decrypt(cipher: Speck64128, nonce: bytes, ciphertext: bytes) -> bytes:
    """CTR decryption (identical to encryption)."""
    return ctr_encrypt(cipher, nonce, ciphertext)
