"""The forest machinery against slow exact oracles: the DFS forest
enumerator against brute force over all edge subsets and against the
matrix-tree theorem, and Kruskal's spanning forest in any edge order."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsf import decomposition as dec
from pcsf.exact import ScaleCapError, enumerate_forests
from pcsf.graph import Graph, component_labels, is_forest, spanning_forest
from pcsf.layered import build_layered

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def multigraphs(draw, max_edges=8):
    """Random multigraphs on 2..5 nodes: parallel edges allowed, no loops."""
    n = draw(st.integers(2, 5))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph(n, draw(st.lists(edge, max_size=max_edges)))


def spanning_trees(g):
    return [t for t, _ in enumerate_forests(g) if len(t) == g.num_nodes - 1]


def determinant(matrix):
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


@PROPERTY
@given(st.data())
def test_enumerate_forests_matches_brute_force(data):
    g = data.draw(multigraphs())
    pairs = data.draw(st.lists(st.tuples(st.integers(0, g.num_nodes - 1),
                                         st.integers(0, g.num_nodes - 1)), max_size=6))
    result = enumerate_forests(g, pairs)
    forests = [forest for forest, _ in result]
    assert len(set(forests)) == len(forests)
    brute = {frozenset(f) for k in range(g.num_edges + 1)
             for f in combinations(range(g.num_edges), k) if is_forest(g, f)}
    assert set(forests) == brute
    for forest, miss in result:
        labels = component_labels(g, forest)
        assert miss == {i for i, (s, t) in enumerate(pairs) if labels[s] != labels[t]}


@PROPERTY
@given(multigraphs())
def test_spanning_tree_count_matches_matrix_tree_theorem(g):
    laplacian = [[0] * g.num_nodes for _ in range(g.num_nodes)]
    for u, v in g.edges:
        laplacian[u][u] += 1
        laplacian[v][v] += 1
        laplacian[u][v] -= 1
        laplacian[v][u] -= 1
    reduced = [row[1:] for row in laplacian[1:]]
    assert len(spanning_trees(g)) == determinant(reduced)


@PROPERTY
@given(st.data())
def test_spanning_forest_any_order_spans_components(data):
    g = data.draw(multigraphs())
    order = data.draw(st.permutations(range(g.num_edges)))
    forest = spanning_forest(g, order)
    assert is_forest(g, forest)
    assert component_labels(g, forest) == component_labels(g, range(g.num_edges))


def test_spanning_trees_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert sorted(sorted(t) for t in spanning_trees(g)) == [[0, 1], [0, 2], [1, 2]]


def test_spanning_trees_k4_count():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert len(spanning_trees(g)) == 16  # Cayley: 4^2


def test_spanning_trees_cap():
    # a 3-regular base with 21 edges, one past the enumerator's cap
    base = Graph(14, [(i, (i + 1) % 14) for i in range(14)] + [(i, i + 7) for i in range(7)])
    lc = build_layered(base, m=1, k=0)
    with pytest.raises(ScaleCapError):
        dec.explicit_gap_distribution(lc, Fraction(9, 4))
