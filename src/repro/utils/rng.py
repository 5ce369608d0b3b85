"""Deterministic, label-addressed random streams.

Every stochastic component of the reproduction (terrain, transmitter
placement, SU placement, bid noise, zero-replacement coin flips, allocation
tie-breaks) draws from its own independent stream derived from a master seed
plus a human-readable label path.  This keeps experiments bit-reproducible
while ensuring that, e.g., changing the number of SUs does not perturb the
coverage maps.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Union

import numpy as np

__all__ = ["stable_seed", "spawn_rng", "numpy_rng", "fresh_rng"]

Seed = Union[int, str, bytes]


def _seed_bytes(seed: Seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, int):
        return seed.to_bytes((max(seed.bit_length(), 1) + 7) // 8, "big", signed=False)
    raise TypeError(f"unsupported seed type {type(seed)!r}")


def stable_seed(seed: Seed, *labels: str) -> int:
    """A 64-bit seed derived from ``seed`` and a label path.

    The first 8 bytes (big-endian) of SHA-256 over
    ``seed_bytes || "/" || label_1 || "/" || label_2 ...``.  A content hash
    rather than ``hash()`` keeps results stable across interpreter runs and
    versions.  The digest comes from ``hashlib``; it is bit-identical to the
    from-scratch :mod:`repro.crypto.sha256` reference (the test suite checks
    the two agree), which is ~200x slower and would dominate every
    per-round :func:`spawn_rng` call.
    """
    message = b"/".join([_seed_bytes(seed), *(label.encode("utf-8") for label in labels)])
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


def spawn_rng(seed: Seed, *labels: str) -> random.Random:
    """An independent ``random.Random`` for the given label path."""
    return random.Random(stable_seed(seed, *labels))


def numpy_rng(seed: Seed, *labels: str) -> np.random.Generator:
    """An independent NumPy ``Generator`` for the given label path."""
    return np.random.default_rng(stable_seed(seed, *labels))


def fresh_rng() -> random.Random:
    """A non-deterministic RNG that is safe to create inside forked workers.

    Seeds from ``os.urandom`` mixed with the current PID at *call* time, so
    two worker processes forked from the same parent can never share a
    stream — unlike the module-level ``random`` functions, whose global
    state is duplicated by ``fork``.  Every unseeded fallback routes through
    here: a round run with ``entropy=None`` draws its entropy label from a
    fresh RNG, and an ``rng=None`` campaign or range padding uses one.
    Deterministic runs pass an ``entropy`` label or a seeded RNG instead.
    """
    return random.Random(os.urandom(16) + os.getpid().to_bytes(8, "big"))
