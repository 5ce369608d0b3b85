"""Rendering helpers."""

import numpy as np
import pytest

from repro.geo.datasets import make_coverage_map
from repro.geo.grid import GridSpec
from repro.viz import render_coverage, render_mask


def test_render_mask_shapes_and_marker():
    mask = np.zeros((6, 6), dtype=bool)
    mask[1, 1] = True
    art = render_mask(mask, true_cell=(4, 4))
    lines = art.split("\n")
    assert len(lines) == 6 and all(len(line) == 6 for line in lines)
    assert lines[1][1] == "*"
    assert lines[4][4] == "X"


def test_render_mask_downsampling():
    mask = np.zeros((6, 6), dtype=bool)
    mask[5, 5] = True
    art = render_mask(mask, step=3)
    lines = art.split("\n")
    assert len(lines) == 2 and len(lines[0]) == 2
    assert lines[1][1] == "*"


def test_render_mask_validation():
    with pytest.raises(ValueError):
        render_mask(np.zeros((3, 3)))  # not boolean
    with pytest.raises(ValueError):
        render_mask(np.zeros((3, 3), dtype=bool), step=0)


def test_render_coverage():
    cmap = make_coverage_map(4, n_channels=3,
                             grid=GridSpec(rows=20, cols=20, cell_km=3.75))
    art = render_coverage(cmap, 0, step=2)
    assert set(art) <= {"#", ".", "\n"}
    assert len(art.split("\n")) == 10

