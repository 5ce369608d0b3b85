"""Conflict-graph and reuse analytics.

Spectrum reusability — the paper's defining departure from classical
auctions — is bounded by the conflict graph's structure: a channel can be
shared by any *independent set* of bidders, and the minimum number of
channels needed to serve everyone is the graph's chromatic number.  This
module provides the standard graph-theoretic lenses (degree statistics,
greedy-colouring bounds, independence checks), plus a bridge to networkx
for anything heavier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.auction.conflict import ConflictGraph

__all__ = [
    "ConflictStats",
    "conflict_stats",
    "greedy_coloring",
    "is_independent_set",
    "to_networkx",
]


@dataclass(frozen=True)
class ConflictStats:
    """Degree and density statistics of a conflict graph."""

    n_users: int
    n_edges: int
    max_degree: int
    mean_degree: float
    density: float
    greedy_colors: int

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table emission."""
        return {
            "users": self.n_users,
            "edges": self.n_edges,
            "max_degree": self.max_degree,
            "mean_degree": round(self.mean_degree, 2),
            "density": round(self.density, 4),
            "greedy_colors": self.greedy_colors,
        }


def conflict_stats(graph: ConflictGraph) -> ConflictStats:
    """Summarise a conflict graph's structure."""
    degrees = [len(row) for row in graph.rows]
    n = graph.n_users
    possible = n * (n - 1) / 2 if n > 1 else 1
    return ConflictStats(
        n_users=n,
        n_edges=graph.n_edges,
        max_degree=max(degrees) if degrees else 0,
        mean_degree=sum(degrees) / n if n else 0.0,
        density=graph.n_edges / possible,
        greedy_colors=len(set(greedy_coloring(graph).values())),
    )


def greedy_coloring(graph: ConflictGraph) -> Dict[int, int]:
    """Largest-degree-first greedy colouring.

    The colour count upper-bounds the chromatic number, i.e. the number of
    channels that would suffice to serve *every* bidder simultaneously —
    the reuse ceiling Algorithm 3 is implicitly working against.
    """
    order = sorted(
        range(graph.n_users), key=lambda u: len(graph.neighbors(u)), reverse=True
    )
    colors: Dict[int, int] = {}
    for user in order:
        taken = {colors[v] for v in graph.neighbors(user) if v in colors}
        color = 0
        while color in taken:
            color += 1
        colors[user] = color
    return colors


def is_independent_set(graph: ConflictGraph, users: Sequence[int]) -> bool:
    """True when no two of the given users conflict (can share a channel)."""
    unique = list(dict.fromkeys(users))
    for i in range(len(unique)):
        for j in range(i + 1, len(unique)):
            if graph.are_conflicting(unique[i], unique[j]):
                return False
    return True


def to_networkx(graph: ConflictGraph):
    """The conflict graph as a ``networkx.Graph`` (for heavier analysis)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n_users))
    g.add_edges_from(graph.edges)
    return g
