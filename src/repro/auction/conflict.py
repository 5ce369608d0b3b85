"""Interference conflict graphs.

The paper models each SU's interference range as a square of side ``2λ``
centred on the user: users ``i`` and ``j`` conflict iff

    |loc_x^i - loc_x^j| < 2λ   and   |loc_y^i - loc_y^j| < 2λ.

This module builds that graph from *plaintext* locations — the baseline the
auctioneer uses when privacy is off, and the reference against which the
private location submission protocol (:mod:`repro.lppa.location`) is checked
for exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.geo.buckets import candidate_pairs
from repro.geo.grid import Cell

__all__ = ["ConflictGraph", "build_conflict_graph", "cells_conflict"]


def cells_conflict(a: Cell, b: Cell, two_lambda: int) -> bool:
    """The paper's conflict predicate on integer (cell) coordinates."""
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    return abs(a[0] - b[0]) < two_lambda and abs(a[1] - b[1]) < two_lambda


@dataclass(frozen=True, init=False)
class ConflictGraph:
    """Adjacency over bidder ids; node ``i`` conflicts with ``neighbors(i)``.

    Built from ``edges``, any iterable of ``(u, v)`` pairs with
    ``0 <= u < v < n_users``, each pair at most once.  The graph is stored
    once, as each SU's ascending neighbour tuple (``rows``), and every
    reader reads a row in place.  Equality and hash compare
    ``(n_users, rows)``.
    """

    n_users: int
    rows: Tuple[Tuple[int, ...], ...]
    n_edges: int = field(compare=False)

    def __init__(self, n_users: int, edges: Iterable[Tuple[int, int]]) -> None:
        rows: List[List[int]] = [[] for _ in range(n_users)]
        n_edges = 0
        for u, v in edges:
            if not 0 <= u < v < n_users:
                if 0 <= min(u, v) and max(u, v) < n_users:
                    raise ValueError("edges must be stored as (u < v) pairs")
                raise ValueError(f"edge ({u}, {v}) references unknown user")
            rows[u].append(v)
            rows[v].append(u)
            n_edges += 1
        for u, row in enumerate(rows):
            row.sort()
            if len(set(row)) != len(row):
                raise ValueError(f"user {u} has a repeated edge")
        object.__setattr__(self, "n_users", n_users)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "n_edges", n_edges)

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The ``(u, v)`` pairs, ``u < v`` (derived from the rows)."""
        return frozenset(
            (u, v) for u, row in enumerate(self.rows) for v in row if u < v
        )

    def neighbors(self, user: int) -> Tuple[int, ...]:
        """``N(user)``, ascending: bidders that cannot share a channel with ``user``."""
        if not 0 <= user < self.n_users:
            raise ValueError(f"unknown user {user}")
        return self.rows[user]

    def are_conflicting(self, u: int, v: int) -> bool:
        """True when users ``u`` and ``v`` may not share a channel."""
        return 0 <= u < self.n_users and v in self.rows[u]


def build_conflict_graph(
    cells: Sequence[Cell], two_lambda: int
) -> ConflictGraph:
    """Plaintext conflict graph over users located at ``cells``.

    Tests only the grid-bucket candidates of
    :func:`repro.geo.buckets.candidate_pairs`, a superset of the
    conflicting pairs, so the graph equals the all-pairs scan's.
    """
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    edges = [
        (i, j)
        for i, j in candidate_pairs(cells, two_lambda)
        if cells_conflict(cells[i], cells[j], two_lambda)
    ]
    return ConflictGraph(n_users=len(cells), edges=edges)
