from fractions import Fraction

import pytest

from pcsf.graph import (Graph, GraphError, UnionFind, component_labels, components,
                        cut_edges, edge_connectivity, is_forest, min_cut,
                        minimum_spanning_tree)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_graph_rejects_bad_edges():
    g = Graph(2, [])
    with pytest.raises(GraphError):
        g.add_edge(0, 0)
    with pytest.raises(GraphError):
        g.add_edge(0, 5)


def test_parallel_edges_have_distinct_ids():
    g = Graph(2, [(0, 1), (0, 1)])
    assert g.num_edges == 2
    assert g.edges[0] == g.edges[1] == (0, 1)


def test_union_find():
    uf = UnionFind(4)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.connected(0, 1)
    assert not uf.connected(0, 2)


def test_min_cut_triangle_exact():
    g = triangle()
    cap = {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    value, side = min_cut(g, cap, 0, 2)
    assert value == Fraction(2, 3)
    assert 0 in side and 2 not in side


def test_min_cut_respects_capacities():
    # path 0-1-2 with a bottleneck in the middle
    g = Graph(3, [(0, 1), (1, 2)])
    value, side = min_cut(g, {0: Fraction(5), 1: Fraction(2, 7)}, 0, 2)
    assert value == Fraction(2, 7)
    assert side == {0, 1}


def test_min_cut_zero_capacity_edge_disconnects():
    g = Graph(2, [(0, 1)])
    value, side = min_cut(g, {}, 0, 1)
    assert value == 0
    assert side == {0}


def test_components_and_labels():
    g = Graph(4, [(0, 1), (2, 3)])
    comps = components(g, {0, 1})
    assert comps == [{0, 1}, {2, 3}]
    labels = component_labels(g, {0})
    assert labels[0] == labels[1]
    assert labels[2] != labels[0]
    assert labels[2] == 2 and labels[3] == 3


def test_mst_tie_break_by_edge_id():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    tree = minimum_spanning_tree(g, {e: Fraction(1) for e in range(3)})
    assert tree == {0, 1}


def test_mst_disconnected_raises():
    g = Graph(3, [(0, 1)])
    with pytest.raises(GraphError):
        minimum_spanning_tree(g, {0: 1})


def test_is_forest_and_cut_edges():
    g = triangle()
    assert is_forest(g, {0, 1})
    assert not is_forest(g, {0, 1, 2})
    assert cut_edges(g, {0}) == {0, 2}


def test_edge_connectivity():
    assert edge_connectivity(triangle()) == 2
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert edge_connectivity(g) == 3
    assert edge_connectivity(Graph(3, [(0, 1)])) == 0
