"""The conflict-graph side channel: localisation through known anchors.

LPPA must reveal the pairwise conflict bits — the auction cannot allocate
without them — and each bit is a *proximity oracle*: ``conflict(i, j)``
means ``|x_i - x_j| < 2λ`` and ``|y_i - y_j| < 2λ``.  An adversary who
knows the true locations of a few *anchor* users (its own sybils, or
users it identified elsewhere) can therefore box every other bidder:

* a conflict with anchor ``a`` confines the victim to the open
  ``(2λ-1)``-box around ``a``;
* a non-conflict *excludes* that box.

This attack is orthogonal to BCM/BPM (it uses no bids at all), is immune
to the zero disguises, and its accuracy is bounded only by the anchor
density — which is why the security notes class the conflict graph as a
deliberate, quantified leak rather than a flaw.  ID mixing does not help
within a round (the graph is per-round anyway); what limits it in practice
is that anchors must be *physically deployed* radios.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.auction.conflict import ConflictGraph
from repro.geo.grid import Cell, GridSpec

__all__ = ["colocation_attack", "anchor_boxes"]


def anchor_boxes(
    grid: GridSpec, anchor_cell: Cell, two_lambda: int
) -> np.ndarray:
    """Boolean mask of cells conflicting with a user at ``anchor_cell``."""
    if two_lambda < 1:
        raise ValueError("two_lambda must be >= 1")
    grid.require(anchor_cell)
    mask = np.zeros((grid.rows, grid.cols), dtype=bool)
    d = two_lambda - 1
    row_lo = max(0, anchor_cell[0] - d)
    row_hi = min(grid.rows, anchor_cell[0] + d + 1)
    col_lo = max(0, anchor_cell[1] - d)
    col_hi = min(grid.cols, anchor_cell[1] + d + 1)
    mask[row_lo:row_hi, col_lo:col_hi] = True
    return mask


def colocation_attack(
    grid: GridSpec,
    conflict: ConflictGraph,
    anchors: Dict[int, Cell],
    two_lambda: int,
) -> List[np.ndarray]:
    """Candidate masks for every user, from anchor conflict bits alone.

    ``anchors`` maps user indices to their known true cells.  For each
    non-anchor user the returned mask is the intersection of the conflict
    boxes of conflicting anchors and the complements of non-conflicting
    anchors' boxes; anchors themselves get their singleton cell.  Users
    are never excluded by their own row (the attacker knows who it is
    localising).
    """
    for anchor, cell in anchors.items():
        if not 0 <= anchor < conflict.n_users:
            raise ValueError(f"anchor {anchor} outside the population")
        grid.require(cell)

    boxes = {
        anchor: anchor_boxes(grid, cell, two_lambda)
        for anchor, cell in anchors.items()
    }
    masks: List[np.ndarray] = []
    for user in range(conflict.n_users):
        if user in anchors:
            mask = np.zeros((grid.rows, grid.cols), dtype=bool)
            mask[anchors[user]] = True
            masks.append(mask)
            continue
        mask = np.ones((grid.rows, grid.cols), dtype=bool)
        neighbors = conflict.neighbors(user)
        for anchor, box in boxes.items():
            if anchor in neighbors:
                mask &= box
            else:
                mask &= ~box
        masks.append(mask)
    return masks
