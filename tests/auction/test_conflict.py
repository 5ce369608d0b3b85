"""Conflict predicate and graph construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auction.conflict import ConflictGraph, build_conflict_graph, cells_conflict


def test_predicate_is_strict():
    """|dx| < 2λ on both axes — boundary distance does NOT conflict."""
    assert cells_conflict((0, 0), (3, 3), 4)
    assert not cells_conflict((0, 0), (4, 0), 4)
    assert not cells_conflict((0, 0), (0, 4), 4)
    assert cells_conflict((5, 5), (5, 5), 1)


def test_predicate_symmetry():
    assert cells_conflict((2, 9), (7, 5), 6) == cells_conflict((7, 5), (2, 9), 6)


def test_predicate_requires_both_axes():
    assert not cells_conflict((0, 0), (1, 10), 4)  # y too far
    assert not cells_conflict((0, 0), (10, 1), 4)  # x too far


def test_predicate_validates_two_lambda():
    with pytest.raises(ValueError):
        cells_conflict((0, 0), (0, 0), 0)


def test_graph_construction():
    cells = [(0, 0), (2, 2), (50, 50), (51, 51)]
    graph = build_conflict_graph(cells, 4)
    assert graph.are_conflicting(0, 1)
    assert graph.are_conflicting(2, 3)
    assert not graph.are_conflicting(0, 2)
    assert graph.neighbors(0) == (1,)
    assert graph.neighbors(2) == (3,)
    assert graph.n_edges == 2


def test_self_is_never_a_conflict():
    graph = build_conflict_graph([(0, 0), (0, 0)], 4)
    assert not graph.are_conflicting(0, 0)
    assert graph.are_conflicting(0, 1)  # co-located users do conflict


def test_graph_validation():
    with pytest.raises(ValueError):
        ConflictGraph(n_users=2, edges=frozenset({(1, 0)}))  # not u < v
    with pytest.raises(ValueError):
        ConflictGraph(n_users=2, edges=frozenset({(0, 2)}))  # unknown user
    with pytest.raises(ValueError):
        ConflictGraph(n_users=2, edges=[(0, 1), (0, 1)])  # repeated pair
    with pytest.raises(ValueError):
        ConflictGraph(n_users=1, edges=frozenset()).neighbors(1)


@settings(max_examples=50, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=2,
        max_size=12,
    ),
    two_lambda=st.integers(min_value=1, max_value=10),
)
def test_graph_equals_pairwise_predicate(cells, two_lambda):
    graph = build_conflict_graph(cells, two_lambda)
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            assert graph.are_conflicting(i, j) == cells_conflict(
                cells[i], cells[j], two_lambda
            )
        row = graph.neighbors(i)
        assert list(row) == sorted(row)
        assert set(row) == {
            j
            for j in range(len(cells))
            if j != i and cells_conflict(cells[i], cells[j], two_lambda)
        }
    assert graph.n_edges == len(graph.edges)
    assert ConflictGraph(len(cells), graph.edges) == graph
