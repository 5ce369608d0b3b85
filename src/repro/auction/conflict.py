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

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Set, Tuple

from repro.geo.buckets import candidate_pairs
from repro.geo.grid import Cell

__all__ = ["ConflictGraph", "build_conflict_graph", "cells_conflict"]


def cells_conflict(a: Cell, b: Cell, two_lambda: int) -> bool:
    """The paper's conflict predicate on integer (cell) coordinates."""
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    return abs(a[0] - b[0]) < two_lambda and abs(a[1] - b[1]) < two_lambda


@dataclass(frozen=True)
class ConflictGraph:
    """Adjacency over bidder ids; node ``i`` conflicts with ``neighbors(i)``."""

    n_users: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < self.n_users and 0 <= v < self.n_users):
                raise ValueError(f"edge ({u}, {v}) references unknown user")
            if u >= v:
                raise ValueError("edges must be stored as (u < v) pairs")

    def neighbors(self, user: int) -> Set[int]:
        """``N(user)``: bidders that cannot share a channel with ``user``."""
        if not 0 <= user < self.n_users:
            raise ValueError(f"unknown user {user}")
        result = set()
        for u, v in self.edges:
            if u == user:
                result.add(v)
            elif v == user:
                result.add(u)
        return result

    def are_conflicting(self, u: int, v: int) -> bool:
        """True when users ``u`` and ``v`` may not share a channel."""
        if u == v:
            return False
        a, b = min(u, v), max(u, v)
        return (a, b) in self.edges

    def adjacency(self) -> Dict[int, Set[int]]:
        """Full adjacency map (precomputed once for hot loops)."""
        adj: Dict[int, Set[int]] = {i: set() for i in range(self.n_users)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @property
    def n_edges(self) -> int:
        return len(self.edges)


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
    edges = frozenset(
        (i, j)
        for i, j in candidate_pairs(cells, two_lambda)
        if cells_conflict(cells[i], cells[j], two_lambda)
    )
    return ConflictGraph(n_users=len(cells), edges=edges)
