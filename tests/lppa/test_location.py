"""Private location submission: exactness against the plaintext graph."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.conflict import build_conflict_graph
from repro.geo.grid import GridSpec
from repro.lppa.location import (
    build_private_conflict_graph,
    coordinate_width,
    submit_location,
)
from repro.lppa.location_bloom import (
    build_bloom_conflict_graph,
    submit_location_bloom,
)
from tests.lppa.oracles import pairwise_conflict_graph

G0 = b"location-key"
GRID = GridSpec(rows=32, cols=32, cell_km=1.0)


def _submissions(cells, two_lambda, grid=GRID):
    return [
        submit_location(i, cell, G0, grid, two_lambda)
        for i, cell in enumerate(cells)
    ]


def _private_graph(cells, two_lambda, grid=GRID):
    return build_private_conflict_graph(_submissions(cells, two_lambda, grid))


def test_coordinate_width_accounts_for_overhang():
    assert coordinate_width(GridSpec(rows=100, cols=100), 1) == 7
    assert coordinate_width(GridSpec(rows=100, cols=100), 29) == 7
    assert coordinate_width(GridSpec(rows=100, cols=100), 30) == 8
    with pytest.raises(ValueError):
        coordinate_width(GRID, 0)


def test_conflict_detected():
    graph = _private_graph([(5, 5), (7, 7)], two_lambda=4)
    assert graph.are_conflicting(0, 1)


def test_boundary_distance_is_not_a_conflict():
    """|dx| == 2λ must not conflict (the predicate is strict)."""
    graph = _private_graph([(0, 0), (4, 0)], two_lambda=4)
    assert not graph.are_conflicting(0, 1)
    graph = _private_graph([(0, 0), (3, 3)], two_lambda=4)
    assert graph.are_conflicting(0, 1)


def test_grid_edges_are_handled():
    """Clamping at zero must not produce spurious conflicts or misses."""
    cells = [(0, 0), (1, 1), (31, 31), (30, 29)]
    private = _private_graph(cells, two_lambda=3)
    plain = build_conflict_graph(cells, 3)
    assert private.edges == plain.edges


def test_dense_user_ids_enforced():
    for submit, build in (
        (submit_location, build_private_conflict_graph),
        (submit_location_bloom, build_bloom_conflict_graph),
    ):
        sub = submit(5, (0, 0), G0, GRID, 4)
        with pytest.raises(ValueError, match="slot 0 holds user 5"):
            build([sub])


def test_submission_rejects_cells_outside_grid():
    with pytest.raises(ValueError):
        submit_location(0, (32, 0), G0, GRID, 4)


@settings(max_examples=30, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=31),
            st.integers(min_value=0, max_value=31),
        ),
        min_size=2,
        max_size=20,
    ),
    two_lambda=st.integers(min_value=1, max_value=12),
)
def test_private_graph_equals_plaintext_graph(cells, two_lambda):
    """The central PPBS-location correctness claim: the masked index gives
    the plaintext graph, and the paper's all-pairs masked scan."""
    submissions = _submissions(cells, two_lambda)
    graph = build_private_conflict_graph(submissions)
    assert graph == build_conflict_graph(cells, two_lambda)
    assert graph == pairwise_conflict_graph(submissions)
