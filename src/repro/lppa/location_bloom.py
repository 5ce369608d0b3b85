"""Bloom-filter private location submission (the Bloom scheme, section IV.A
analogue).

Instead of prefix families, each SU submits

* a keyed **cell token** for its own cell, and
* a **Bloom filter** over the tokens of every in-grid cell inside its
  interference box ``[m-d, m+d] x [n-d, n+d]`` (``d = 2λ - 1``, clamped to
  the grid like the PPBS range cover),

both under the shared location key ``kb = derive_key(g0, "bloom/location")``.
The auctioneer declares a conflict between SUs *i* and *j* when *j*'s filter
contains *i*'s token — the same one-directional test the PPBS membership
check uses, exact for in-grid cells up to the filter's false-positive rate.

The filter is sized so that false positives are negligible at auction scale:
``n_bits`` is the next power of two above ``32 * (2d+1)^2`` (4096 bits for
the standard ``2λ = 6``), with ``k = 7`` hash positions sliced keylessly
from the 16-byte token (positions ``i`` use token bytes ``2i..2i+4``).  At
that sizing the per-query false-positive probability is ~8e-6, so the Bloom
conflict graph matches the plaintext graph on every realistic population —
which the differential tests assert against PPBS.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.auction.conflict import ConflictGraph
from repro.crypto.backend import hmac_digest_batch
from repro.crypto.keys import derive_key
from repro.geo.grid import Cell, GridSpec
from repro.lppa.messages import U8_MAX, U32_MAX, CodecError, check_user_id

__all__ = [
    "BLOOM_LOCATION_TAG",
    "BloomFilter",
    "BloomLocationSubmission",
    "bloom_params",
    "build_bloom_conflict_graph",
    "cell_tokens",
    "decode_location_bloom",
    "encode_location_bloom",
    "submit_location_bloom",
    "submit_locations_bloom",
]

#: Leading payload byte of Bloom location submissions (PPBS uses ``b"L"``).
BLOOM_LOCATION_TAG = b"l"

#: Derivation label of the shared location key under ``g0``.
LOCATION_KEY_LABEL = "bloom/location"

_CELL_DOMAIN = b"bloom/cell"
_TOKEN_BYTES = 16
_N_HASHES = 7

# Framing of the encoded payload: tag + token length byte + filter
# parameters (n_bits u32, n_hashes u8); user id and the token/filter bodies
# are protocol payload.
LOCATION_FRAMING = 1 + 1 + 4 + 1


def _next_pow2(value: int) -> int:
    return 1 << max(0, value - 1).bit_length()


def bloom_params(two_lambda: int) -> Tuple[int, int, int]:
    """``(d, n_bits, n_hashes)`` for one interference half-width.

    ``n_bits`` targets ~32 bits per inserted cell — with ``k = 7`` hashes
    that puts the false-positive rate around ``8e-6`` per membership query,
    far below anything a CI-sized (or paper-sized) population can hit.
    """
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    d = two_lambda - 1
    cells = (2 * d + 1) ** 2
    return d, _next_pow2(32 * cells), _N_HASHES


def _positions(token: bytes, n_bits: int, n_hashes: int) -> List[int]:
    # Keyless slicing: the token is already a PRF output, so overlapping
    # 4-byte windows give independent-enough positions for a Bloom filter.
    return [
        int.from_bytes(token[2 * i : 2 * i + 4], "big") % n_bits
        for i in range(n_hashes)
    ]


@dataclass(frozen=True, slots=True)
class BloomFilter:
    """An immutable Bloom filter over cell tokens."""

    bits: bytes
    n_bits: int
    n_hashes: int

    def __post_init__(self) -> None:
        if self.n_bits <= 0 or self.n_bits % 8:
            raise ValueError("n_bits must be a positive multiple of 8")
        if len(self.bits) != self.n_bits // 8:
            raise ValueError("filter body does not match n_bits")
        if self.n_hashes < 1:
            raise ValueError("n_hashes must be >= 1")

    @classmethod
    def build(
        cls, tokens: Sequence[bytes], n_bits: int, n_hashes: int
    ) -> "BloomFilter":
        """Insert every token into a fresh ``n_bits``-wide filter."""
        bits = bytearray(n_bits // 8)
        for token in tokens:
            for pos in _positions(token, n_bits, n_hashes):
                bits[pos >> 3] |= 1 << (pos & 7)
        return cls(bits=bytes(bits), n_bits=n_bits, n_hashes=n_hashes)

    def contains(self, token: bytes) -> bool:
        """Membership test: no false negatives, tuned-away false positives."""
        return all(
            self.bits[pos >> 3] & (1 << (pos & 7))
            for pos in _positions(token, self.n_bits, self.n_hashes)
        )


@dataclass(frozen=True, slots=True)
class BloomLocationSubmission:
    """One SU's Bloom location message: own-cell token + range filter."""

    user_id: int
    cell_token: bytes
    range_filter: BloomFilter

    def __post_init__(self) -> None:
        if len(self.cell_token) < 4:
            raise ValueError("cell token must be at least 4 bytes")
        k = self.range_filter.n_hashes
        if 2 * (k - 1) + 4 > len(self.cell_token):
            raise ValueError("cell token too short for the filter's hash count")
        # The codec's field bounds (the hash count is bounded by the token).
        check_user_id(self.user_id)
        if len(self.cell_token) > U8_MAX:
            raise CodecError("cell token longer than the u8 length field")
        if self.range_filter.n_bits > U32_MAX:
            raise CodecError("filter n_bits exceeds the u32 field")

    def wire_bytes(self) -> int:
        """Protocol payload: user id + token + filter body."""
        return 4 + len(self.cell_token) + len(self.range_filter.bits)

    def framing_bytes(self) -> int:
        """Codec framing on top of the payload: tag, token length and the
        filter's bit-count and hash-count fields."""
        return LOCATION_FRAMING

    def wire_size(self) -> int:
        """Payload plus framing, mirroring the encoded byte length."""
        return self.wire_bytes() + self.framing_bytes()

    def trace_fields(self) -> Dict[str, int]:
        """The byte-accounting fields the flight recorder stores per message."""
        return {
            "su": self.user_id,
            "payload_bytes": self.wire_bytes(),
            "wire_size": self.wire_size(),
            "filter_bits": self.range_filter.n_bits,
        }


def _box_cells(cell: Cell, grid: GridSpec, d: int) -> List[Cell]:
    m, n = cell
    return [
        (mm, nn)
        for mm in range(max(0, m - d), min(grid.rows - 1, m + d) + 1)
        for nn in range(max(0, n - d), min(grid.cols - 1, n + d) + 1)
    ]


def _token_messages(cells: Sequence[Cell]) -> List[bytes]:
    return [_CELL_DOMAIN + struct.pack(">II", m, n) for m, n in cells]


def cell_tokens(cells: Sequence[Cell], g0: bytes) -> List[bytes]:
    """Keyed tokens of cells under ``g0``'s derived location key, batched."""
    kb = derive_key(g0, LOCATION_KEY_LABEL)
    return [
        digest[:_TOKEN_BYTES]
        for digest in hmac_digest_batch(kb, _token_messages(cells))
    ]


def submit_location_bloom(
    user_id: int,
    cell: Cell,
    g0: bytes,
    grid: GridSpec,
    two_lambda: int,
) -> BloomLocationSubmission:
    """Bidder side: token own cell, Bloom-filter the interference box."""
    grid.require(cell)
    d, n_bits, n_hashes = bloom_params(two_lambda)
    tokens = cell_tokens([cell] + _box_cells(cell, grid, d), g0)
    return BloomLocationSubmission(
        user_id=user_id,
        cell_token=tokens[0],
        range_filter=BloomFilter.build(tokens[1:], n_bits, n_hashes),
    )


def submit_locations_bloom(
    cells: Sequence[Cell],
    g0: bytes,
    grid: GridSpec,
    two_lambda: int,
) -> List[BloomLocationSubmission]:
    """All users' submissions through one token batch (in-process drivers).

    Token-identical to :func:`submit_location_bloom` per user; user ids are
    the dense slot indices, matching :func:`build_bloom_conflict_graph`.
    """
    d, n_bits, n_hashes = bloom_params(two_lambda)
    boxes = []
    flat: List[Cell] = []
    for cell in cells:
        grid.require(cell)
        box = _box_cells(cell, grid, d)
        boxes.append(len(box))
        flat.append(cell)
        flat.extend(box)
    tokens = cell_tokens(flat, g0)
    subs = []
    cursor = 0
    for i, box_len in enumerate(boxes):
        own = tokens[cursor]
        box_tokens = tokens[cursor + 1 : cursor + 1 + box_len]
        cursor += 1 + box_len
        subs.append(
            BloomLocationSubmission(
                user_id=i,
                cell_token=own,
                range_filter=BloomFilter.build(box_tokens, n_bits, n_hashes),
            )
        )
    return subs


def build_bloom_conflict_graph(
    submissions: Sequence[BloomLocationSubmission],
) -> ConflictGraph:
    """Auctioneer side: pairwise filter-membership tests -> conflict graph.

    Same contract as the PPBS builder: ``submissions[i].user_id`` must be
    the dense index ``i``, and one direction of the symmetric-box test
    suffices.
    """
    for idx, sub in enumerate(submissions):
        if sub.user_id != idx:
            raise ValueError(
                f"submissions must be dense: slot {idx} holds user {sub.user_id}"
            )
    edges = set()
    n = len(submissions)
    for i in range(n):
        si = submissions[i]
        for j in range(i + 1, n):
            if submissions[j].range_filter.contains(si.cell_token):
                edges.add((i, j))
    return ConflictGraph(n_users=n, edges=frozenset(edges))


def encode_location_bloom(submission: BloomLocationSubmission) -> bytes:
    """Serialize: tag | user u32 | token_len u8 | token | n_bits u32 |
    n_hashes u8 | filter body."""
    flt = submission.range_filter
    return b"".join(
        (
            BLOOM_LOCATION_TAG,
            struct.pack(">IB", submission.user_id, len(submission.cell_token)),
            submission.cell_token,
            struct.pack(">IB", flt.n_bits, flt.n_hashes),
            flt.bits,
        )
    )


def decode_location_bloom(data: bytes) -> BloomLocationSubmission:
    """Strict inverse of :func:`encode_location_bloom`."""
    if len(data) < 1 or data[:1] != BLOOM_LOCATION_TAG:
        raise CodecError("not a bloom location payload")
    try:
        if len(data) < 6:
            raise CodecError("truncated bloom location header")
        user_id, token_len = struct.unpack(">IB", data[1:6])
        if token_len < 4:
            raise CodecError("cell token must be at least 4 bytes")
        offset = 6
        token = data[offset : offset + token_len]
        if len(token) != token_len:
            raise CodecError("truncated cell token")
        offset += token_len
        if len(data) < offset + 5:
            raise CodecError("truncated filter parameters")
        n_bits, n_hashes = struct.unpack(">IB", data[offset : offset + 5])
        offset += 5
        if n_bits <= 0 or n_bits % 8:
            raise CodecError("filter n_bits must be a positive multiple of 8")
        if n_hashes < 1 or 2 * (n_hashes - 1) + 4 > token_len:
            raise CodecError("filter hash count does not fit the token")
        bits = data[offset : offset + n_bits // 8]
        if len(bits) != n_bits // 8:
            raise CodecError("truncated filter body")
        offset += n_bits // 8
        if offset != len(data):
            raise CodecError("trailing bytes after bloom location payload")
        return BloomLocationSubmission(
            user_id=user_id,
            cell_token=token,
            range_filter=BloomFilter(
                bits=bits, n_bits=n_bits, n_hashes=n_hashes
            ),
        )
    except CodecError:
        raise
    except (struct.error, ValueError) as exc:
        raise CodecError(str(exc)) from exc
