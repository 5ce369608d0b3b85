"""Private Location Submission protocol (section IV.A).

Each SU masks its coordinates and interference ranges; the auctioneer
decides, for every pair (i, j),

    H_g0(G(loc_x^i)) ∩ H_g0(Q([loc_x^j - d, loc_x^j + d])) != ∅
    H_g0(G(loc_y^i)) ∩ H_g0(Q([loc_y^j - d, loc_y^j + d])) != ∅

and declares a conflict when both hold.  Since ``x_i ∈ [x_j - d, x_j + d]``
iff ``|x_i - x_j| <= d``, one direction of the test suffices and the result
is exactly the plaintext conflict graph — which the tests assert.

The auctioneer answers all N² questions at once from the masked conflict
index (DESIGN.md §9): the relation the pairwise tests compute, from the
masked sets alone, on every driver.

The paper's conflict predicate is the *strict* ``|Δ| < 2λ`` on integer
coordinates, so the submitted range uses half-width ``d = 2λ - 1``.
Coordinates are cell indices (non-negative integers, as the paper assumes).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.auction.conflict import ConflictGraph
from repro.geo.grid import Cell, GridSpec
from repro.lppa.messages import USER_ID_BYTES, LocationSubmission, check_location_shape
from repro.prefix.membership import (
    DEFAULT_DIGEST_BYTES,
    MaskShelf,
    mask_specs,
    reaches,
)
from repro.prefix.prefixes import bit_width_for
from repro.prefix.ranges import max_cover_size

__all__ = [
    "coordinate_width",
    "submit_location",
    "submit_locations",
    "build_private_conflict_graph",
]

_X_DOMAIN = b"lppa/loc/x"
_Y_DOMAIN = b"lppa/loc/y"



def coordinate_width(grid: GridSpec, two_lambda: int) -> int:
    """Bit width covering every coordinate plus the range overhang.

    Ranges extend up to ``2λ - 1`` beyond the largest coordinate; using a
    width that accommodates the overhang lets us skip clamping on the high
    side (clamping is still applied at 0 on the low side).
    """
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    return bit_width_for(max(grid.rows, grid.cols) - 1 + (two_lambda - 1))


def _submissions(
    user_ids: Sequence[int],
    cells: Sequence[Cell],
    g0: bytes,
    grid: GridSpec,
    two_lambda: int,
) -> List[LocationSubmission]:
    """The submissions of ``cells`` under ``user_ids``, from one mask batch.

    The four sets of every cell (x family, x range, y family, y range)
    come from four shelves of one :func:`mask_specs` call.  Every set
    holds at most ``max(w + 1, 2w - 2)`` digests of one width, so the codec
    bounds are checked once (:func:`check_location_shape`) and the
    submissions are made unchecked, with the sizes the batch knows.
    """
    for cell in cells:
        grid.require(cell)
    width = coordinate_width(grid, two_lambda)
    check_location_shape(user_ids, max(width + 1, max_cover_size(width)), DEFAULT_DIGEST_BYTES)
    d = two_lambda - 1
    requests: List[Tuple[MaskShelf, Sequence[Any]]] = []
    for domain, axis in ((_X_DOMAIN, 0), (_Y_DOMAIN, 1)):
        values = [cell[axis] for cell in cells]
        ranges = [(max(0, v - d), v + d) for v in values]
        requests.append((MaskShelf.family(g0, width, domain=domain), values))
        requests.append((MaskShelf.cover(g0, width, domain=domain), ranges))
    size = DEFAULT_DIGEST_BYTES
    return [
        LocationSubmission.of_parts(
            user_id,
            x_family,
            x_range,
            y_family,
            y_range,
            USER_ID_BYTES
            + size
            * (
                len(x_family.digests)
                + len(x_range.digests)
                + len(y_family.digests)
                + len(y_range.digests)
            ),
        )
        for user_id, x_family, x_range, y_family, y_range in zip(
            user_ids, *mask_specs(requests)
        )
    ]


def submit_location(
    user_id: int,
    cell: Cell,
    g0: bytes,
    grid: GridSpec,
    two_lambda: int,
) -> LocationSubmission:
    """Bidder side: mask own coordinates and interference ranges."""
    return _submissions([user_id], [cell], g0, grid, two_lambda)[0]


def submit_locations(
    cells: Sequence[Cell],
    g0: bytes,
    grid: GridSpec,
    two_lambda: int,
) -> List[LocationSubmission]:
    """All users' submissions through one mask batch (in-process drivers).

    Digest-identical to calling :func:`submit_location` per user — the SUs
    share ``g0``, so a whole population's location masking is one backend
    call.  User ids are the dense slot indices, matching what
    :func:`build_private_conflict_graph` expects.
    """
    return _submissions(range(len(cells)), cells, g0, grid, two_lambda)


def build_private_conflict_graph(
    submissions: Sequence[LocationSubmission],
) -> ConflictGraph:
    """Auctioneer side: masked conflict index -> conflict graph.

    ``submissions[i].user_id`` must equal ``i`` (the session layer enforces
    the dense numbering; pseudonymised ids are mapped before this point).
    Each axis indexes the ranges and probes each distinct family once
    (:func:`~repro.prefix.membership.reaches`); bit ``j`` of ``x_reach &
    y_reach`` for ``i``'s two families is set iff both of ``i``'s families
    meet ``j``'s ranges — the paper's pair test — and each pair ``i < j``
    is read from row ``i``.
    """
    for idx, sub in enumerate(submissions):
        if sub.user_id != idx:
            raise ValueError(
                f"submissions must be dense: slot {idx} holds user {sub.user_id}"
            )
    x_reach = reaches(
        [s.x_range for s in submissions], [s.x_family for s in submissions]
    )
    y_reach = reaches(
        [s.y_range for s in submissions], [s.y_family for s in submissions]
    )
    edges = []
    for i, sub in enumerate(submissions):
        above = (
            x_reach[sub.x_family.digests] & y_reach[sub.y_family.digests]
        ) >> (i + 1)
        while above:
            low = above & -above
            edges.append((i, i + low.bit_length()))
            above ^= low
    return ConflictGraph(n_users=len(submissions), edges=frozenset(edges))
