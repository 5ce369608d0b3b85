"""Grid-bucket spatial prefilter for the plaintext conflict graph only.

The paper's conflict predicate (:func:`repro.auction.conflict.cells_conflict`)
is local: users at cells ``(m_i, n_i)`` and ``(m_j, n_j)`` conflict iff
``|m_i - m_j| < 2λ`` and ``|n_i - n_j| < 2λ``.  Testing every unordered pair
is Θ(N²) — at 100k SUs that is ~5·10⁹ pair tests.  But the predicate can
only hold for users whose cells are close, so an ``ST_DWithin``-style
bucket index prunes almost every pair up front.

Bucketing argument (soundness)
------------------------------
Partition the plane into square buckets of side ``L = 2λ``:
``bucket(m, n) = (m // L, n // L)``.  Take any two cells in buckets whose
indices differ by ``>= 2`` on some axis, say ``m_i // L = a`` and
``m_j // L >= a + 2``.  Then ``m_i <= aL + L - 1`` and
``m_j >= (a + 2) L``, so ``m_j - m_i >= L + 1 > L > 2λ - 1``, i.e.
``|m_i - m_j| >= 2λ`` and the pair *cannot* conflict.  Contrapositive:
every conflicting pair lies in the same bucket or in axis-adjacent buckets
(index delta ``<= 1`` per axis).  :func:`candidate_pairs` therefore yields a
**superset** of the true conflict pairs — the exact predicate still decides
each candidate, so the resulting edge set is identical to the all-pairs
scan, never merely approximate.

Completeness of the enumeration: for each user ``i`` (in id order) the
generator collects every user ``j > i`` from the 3×3 bucket neighbourhood of
``i``'s bucket, so each unordered candidate pair ``(i, j)`` with ``i < j``
is yielded exactly once, in deterministic ``(i, j)``-sorted order.

Cost: bucketing is O(N); enumeration is O(N · k) where ``k`` is the
occupancy of a 3×3 neighbourhood.  At the evaluation's density (N ≈ grid
cells / 10, ``2λ = 6``) that is ~32 candidates per user — at 100k SUs the
pair count drops from ~5·10⁹ to ~1.6·10⁶.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.geo.grid import Cell

__all__ = ["bucket_of", "bucket_index", "candidate_pairs"]

#: A bucket address: cell coordinates integer-divided by the bucket side.
Bucket = Tuple[int, int]


def bucket_of(cell: Cell, two_lambda: int) -> Bucket:
    """The bucket containing ``cell``, for buckets of side ``2λ``."""
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    return (cell[0] // two_lambda, cell[1] // two_lambda)


def bucket_index(
    cells: Sequence[Cell], two_lambda: int
) -> Dict[Bucket, List[int]]:
    """Map each occupied bucket to the user ids located in it (id order)."""
    index: Dict[Bucket, List[int]] = {}
    for user, cell in enumerate(cells):
        index.setdefault(bucket_of(cell, two_lambda), []).append(user)
    return index


def candidate_pairs(
    cells: Sequence[Cell], two_lambda: int
) -> Iterator[Tuple[int, int]]:
    """All plausibly-conflicting unordered pairs, each yielded once.

    Yields ``(i, j)`` with ``i < j`` in ascending ``(i, j)`` order, covering
    every pair whose cells share a bucket or sit in adjacent buckets — a
    sound superset of the pairs satisfying the ``|Δ| < 2λ`` conflict
    predicate (see the module docstring for the argument).  Callers apply
    the exact predicate to each candidate; pairs not yielded are guaranteed
    non-conflicting.
    """
    index = bucket_index(cells, two_lambda)
    for i, cell in enumerate(cells):
        bm, bn = bucket_of(cell, two_lambda)
        later: List[int] = []
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                occupants = index.get((bm + dm, bn + dn))
                if occupants is None:
                    continue
                later.extend(j for j in occupants if j > i)
        later.sort()
        for j in later:
            yield (i, j)
