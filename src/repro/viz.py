"""Text rendering of maps, candidate regions and results.

Dependency-free visual output: ASCII panels for terminals (the examples use
these).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geo.coverage import CoverageMap
from repro.geo.grid import Cell

__all__ = ["render_mask", "render_coverage"]


def render_mask(
    mask: np.ndarray,
    true_cell: Optional[Cell] = None,
    *,
    step: int = 1,
    hit_char: str = "*",
    miss_char: str = ".",
    marker_char: str = "X",
) -> str:
    """ASCII view of a boolean cell mask, optionally marking the true cell.

    ``step`` downsamples: each output character covers a ``step x step``
    block and shows ``hit_char`` if any cell in the block is set.
    """
    if mask.ndim != 2 or mask.dtype != bool:
        raise ValueError("mask must be a 2-D boolean array")
    if step < 1:
        raise ValueError("step must be >= 1")
    rows = []
    for m in range(0, mask.shape[0], step):
        row = []
        for n in range(0, mask.shape[1], step):
            char = hit_char if mask[m:m + step, n:n + step].any() else miss_char
            if true_cell is not None and (
                m <= true_cell[0] < m + step and n <= true_cell[1] < n + step
            ):
                char = marker_char
            row.append(char)
        rows.append("".join(row))
    return "\n".join(rows)


def render_coverage(
    coverage_map: CoverageMap, channel: int, *, step: int = 1
) -> str:
    """ASCII view of one channel's protected coverage ('#') vs white space."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return render_mask(
        coverage_map.channels[channel].covered,
        step=step,
        hit_char="#",
        miss_char=".",
    )
