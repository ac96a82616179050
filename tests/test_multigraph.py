from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from fvskit.multigraph import (
    MultiGraph,
    connected_components,
    induced,
    is_forest,
    minus,
    rooted_forest,
)

from conftest import mg


def test_empty():
    g = MultiGraph()
    assert g.n == 0 and g.m == 0
    assert g.vertices() == []
    assert list(g.edges()) == []


def test_add_edge_and_multiplicity():
    g = mg(3, [(0, 1), (0, 1), (1, 2)])
    assert g.m == 3
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 0) == 2
    assert g.degree(0) == 2 and g.degree(1) == 3


def test_loop_counts_twice_in_degree():
    g = mg(2, [(0, 0), (0, 1)])
    assert g.degree(0) == 3
    assert g.m == 2
    assert g.loops_at(0) == 1


def test_remove_vertex_updates_m():
    g = mg(4, [(0, 1), (0, 1), (0, 0), (2, 3)])
    g.remove_vertex(0)
    assert g.m == 1
    assert g.n == 3
    assert not g.has_vertex(0)


def test_set_multiplicity_zero_deletes():
    g = mg(2, [(0, 1), (0, 1), (0, 1)])
    g.set_multiplicity(0, 1, 2)
    assert g.m == 2
    g.set_multiplicity(0, 1, 0)
    assert g.m == 0
    assert g.neighbors(0) == []


def test_add_vertex_auto_id():
    g = mg(2, [])
    assert g.add_vertex() == 2
    assert g.add_vertex(10) == 10
    assert g.add_vertex() == 11
    with pytest.raises(ValueError):
        g.add_vertex(-1)


def test_edges_iteration_sorted_and_canonical():
    g = mg(4, [(3, 1), (1, 3), (2, 2), (0, 3)])
    assert list(g.edges()) == [(0, 3, 1), (1, 3, 2), (2, 2, 1)]
    assert sorted(g.edge_lines()) == sorted([(0, 3), (1, 3), (1, 3), (2, 2)])


def test_induced_and_minus():
    g = mg(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    h = induced(g, [0, 1, 2])
    assert h.n == 3 and h.m == 2
    h2 = minus(g, {0})
    assert h2.n == 4 and h2.m == 3
    assert minus(g, {99}) == g  # unknown ids are ignored
    with pytest.raises(KeyError):
        induced(g, [0, 99])


def test_connected_components_ordering():
    g = mg(6, [(4, 5), (0, 1)])
    assert connected_components(g) == [[0, 1], [2], [3], [4, 5]]


def test_rooted_forest_preorder_and_parents():
    # components rooted at their smallest vertex, in root order; children
    # visited in id order, each subtree finished before the next sibling
    g = mg(8, [(5, 1), (1, 7), (1, 3), (3, 0), (4, 6)])
    order, parent = rooted_forest(g)
    assert order == [0, 3, 1, 5, 7, 2, 4, 6]
    assert parent == {0: None, 3: 0, 1: 3, 5: 1, 7: 1, 2: None, 4: None, 6: 4}


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 1)],
    [(0, 1), (1, 2), (1, 2)],
    [(0, 1), (1, 2), (0, 2)],
])
def test_rooted_forest_rejects_cycles(edges):
    with pytest.raises(ValueError):
        rooted_forest(mg(3, edges))


@pytest.mark.parametrize("edges,expect", [
    ([], True),
    ([(0, 1), (1, 2)], True),
    ([(0, 1), (1, 2), (0, 2)], False),
    ([(0, 0)], False),
    ([(0, 1), (0, 1)], False),
])
def test_is_forest(edges, expect):
    assert is_forest(mg(3, edges)) is expect


def test_eq_and_copy():
    g = mg(3, [(0, 1), (1, 2), (1, 2)])
    h = g.copy()
    assert g == h
    h.add_edge(0, 2)
    assert g != h


def test_pickle_roundtrip():
    g = mg(4, [(0, 1), (2, 2), (1, 3), (1, 3)])
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.m == g.m


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=25))
def test_degree_sum_is_twice_m(edges):
    g = MultiGraph.from_edges(range(8), edges)
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m


# loops and parallel edges included; drop may name ids outside the graph
multigraph_edges = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20)


@given(multigraph_edges, st.sets(st.integers(0, 8)))
def test_minus_and_induced_match_a_rebuild_from_the_kept_edges(edges, drop):
    g = MultiGraph.from_edges(range(7), edges)
    before = g.copy()
    keep = [v for v in g.vertices() if v not in drop]
    expect = MultiGraph.from_edges(
        keep, [(u, v) for u, v in g.edge_lines() if u not in drop and v not in drop])
    for h in (minus(g, drop), induced(g, keep)):
        assert h == expect and h.m == expect.m
        h.add_edge(0, 0)
        h.add_vertex(7)
        if keep:
            h.remove_vertex(keep[0])
        assert g == before and g.m == before.m


@given(multigraph_edges)
def test_is_forest_iff_edges_count_vertices_minus_components(edges):
    g = MultiGraph.from_edges(range(7), edges)
    assert is_forest(g) == (g.m == g.n - len(connected_components(g)))
