from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsf import graph
from pcsf.graph import (Graph, GraphError, UnionFind, block_cut_forest, component_labels,
                        cut_edges, edge_connectivity, is_forest, min_cut,
                        minimum_spanning_tree, scale_capacities)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 5)])


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
    cap = scale_capacities(g, {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)})
    flow, side, _ = min_cut(g, cap, 0, 2)
    assert Fraction(flow, cap.scale) == Fraction(2, 3)
    assert 0 in side and 2 not in side


def test_min_cut_respects_capacities():
    # path 0-1-2 with a bottleneck in the middle
    g = Graph(3, [(0, 1), (1, 2)])
    cap = scale_capacities(g, {0: Fraction(5), 1: Fraction(2, 7)})
    flow, side, back = min_cut(g, cap, 0, 2)
    assert cap.scale == 7 and flow == 2  # the value 2/7, in sevenths
    assert side == back == {0, 1}
    # with a goal the flow stops once it reaches it; above the cut value
    # the call answers as without one
    assert min_cut(g, cap, 0, 2, goal=2) == (2, None, None)
    assert min_cut(g, cap, 0, 2, goal=3) == (2, {0, 1}, {0, 1})
    assert min_cut(g, cap, 0, 2, goal=0) == (0, None, None)


def test_min_cut_zero_capacity_edge_disconnects():
    g = Graph(2, [(0, 1)])
    value, side, back = min_cut(g, scale_capacities(g, {}), 0, 1)
    assert value == 0
    assert side == back == {0}


def test_min_cut_rejects_bad_endpoints():
    g = triangle()
    with pytest.raises(GraphError):
        min_cut(g, scale_capacities(g, {}), 1, 1)
    with pytest.raises(GraphError):
        min_cut(g, scale_capacities(g, {}), 0, 3)


def test_min_cut_rejects_negative_capacity():
    g = triangle()
    with pytest.raises(GraphError, match="negative"):
        scale_capacities(g, {0: Fraction(1), 1: Fraction(-1, 2)})


def test_min_cut_rejects_float_capacities():
    # 0.1 and 1/3 as floats are binary fractions, which would scale by 2^55
    # and give a cut value that is none of the capacities meant
    g = Graph(3, [(0, 1), (1, 2)])
    for bad in ({0: 0.1, 1: 1 / 3}, {0: 1, 1: 2.0}, {0: Fraction(1, 2), 1: True}):
        with pytest.raises(GraphError, match="not an int or a Fraction"):
            scale_capacities(g, bad)
    cap = scale_capacities(g, {0: 1, 1: Fraction(1, 3)})
    assert Fraction(min_cut(g, cap, 0, 2)[0], cap.scale) == Fraction(1, 3)


def test_min_cut_rejects_unknown_edge_id():
    g = triangle()
    for eid in (3, -1):
        with pytest.raises(GraphError, match="unknown edge"):
            scale_capacities(g, {0: Fraction(1), eid: Fraction(1)})


def test_min_cut_rejects_capacities_of_another_edge_count():
    scaled = scale_capacities(Graph(3, [(0, 1), (1, 2)]), {0: Fraction(1, 2)})
    assert scaled.scale == 2 and scaled.arcs == [1, 1, 0, 0]
    with pytest.raises(GraphError, match="cover 2 edges, the graph has 3"):
        min_cut(triangle(), scaled, 0, 2)


@st.composite
def flow_networks(draw):
    """A multigraph on 2..7 nodes, rational capacities with mixed
    denominators (some edges 0 or absent), distinct s and t, and a need
    that is None or a rational in [0, 4]."""
    n = draw(st.integers(2, 7))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    g = Graph(n, draw(st.lists(edge, max_size=12)))
    value = st.one_of(st.just(0), st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)))
    cap = {}
    for eid in range(g.num_edges):
        c = draw(st.one_of(st.none(), value))
        if c is not None:
            cap[eid] = c
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    need = draw(st.one_of(st.none(), st.builds(Fraction, st.integers(0, 8), st.integers(1, 2))))
    return g, cap, s, t, need


def brute_force_cuts(g, cap, s, t):
    """cap(delta(S)) for every node set S with s in S and t not in S."""
    rest = [v for v in range(g.num_nodes) if v not in (s, t)]
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            side = {s, *extra}
            yield sum(cap.get(e, 0) for e in cut_edges(g, side)), side


@st.composite
def block_trees(draw):
    """Three to five small blocks glued at cut vertices (an edge, two
    parallel edges or a triangle, each hung off a node drawn so far) and
    capacities as in flow_networks; then two to four queries (s, t, need)
    from one s in the first block, most with one need, so that most cross
    several blocks and share hops."""
    edges = []
    n = 1
    for _ in range(draw(st.integers(3, 5))):
        glue = n - 1 - draw(st.integers(0, n - 1))  # mostly a node of the last block
        nodes = [glue] + list(range(n, n + draw(st.integers(1, 2))))
        n = nodes[-1] + 1
        if len(nodes) == 3:
            edges += list(zip(nodes, nodes[1:] + nodes[:1]))
        else:
            edges += [tuple(nodes)] * draw(st.integers(1, 2))
    g = Graph(n, edges)
    value = st.one_of(st.just(0), st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)))
    cap = {}
    for eid in range(g.num_edges):
        c = draw(st.one_of(st.none(), value))
        if c is not None:
            cap[eid] = c
    s = draw(st.integers(0, max(edges[0])))
    need = draw(st.sampled_from([Fraction(k, 2) for k in range(5)]))
    far = st.integers(0, n - 1).map(lambda k: n - 1 - k).filter(lambda t: t != s)
    targets = draw(st.lists(far, min_size=2, max_size=4))
    return g, cap, [(s, t, draw(st.sampled_from([need, need, None]))) for t in targets]


def goal_of(need, scale):
    """The least int flow >= need in units of 1/scale (None for None)."""
    return None if need is None else -(-need.numerator * scale // need.denominator)


def check_min_cuts(g, cap, queries):
    """Each query (s, t, need) against brute force, all under one scaled
    ``cap`` (so later queries reuse its kept flows) and, with need set,
    against the answer to its goal under a fresh one and the whole-graph
    flows'."""
    scaled = scale_capacities(g, cap)
    for s, t, need in queries:
        cuts = list(brute_force_cuts(g, cap, s, t))
        best = min(value for value, _ in cuts)
        value, side, back = min_cut(g, scaled, s, t)
        assert Fraction(value, scaled.scale) == best
        assert s in side and t not in side
        assert sum(cap.get(e, 0) for e in cut_edges(g, side)) == best
        assert all(side <= other for v, other in cuts if v == best)
        # the maximal s-side: the union of all minimum ones, itself one
        assert back == set().union(*(other for v, other in cuts if v == best))
        assert (value, side, back) == reference_cuts(g, scaled, s, t)
        if need is not None:
            goal = goal_of(need, scaled.scale)
            early = min_cut(g, scaled, s, t, goal=goal)
            assert early == min_cut(g, scale_capacities(g, cap), s, t, goal=goal)
            assert early == reference_cuts(g, scaled, s, t, goal)
            if best >= need:
                assert early[1] is None and need <= Fraction(early[0], scaled.scale) <= best
            else:
                assert early == (value, side, back)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(flow_networks(), block_trees())
def test_min_cut_matches_brute_force(case, tree):
    g, cap, s, t, need = case
    check_min_cuts(g, cap, [(s, t, need)])
    check_min_cuts(*tree)


def reference_min_cut(g, cap, s, t, goal=None):
    """Edmonds-Karp over the whole graph with no block restriction: the
    loop min_cut ran before it learned block-cut forests."""
    res = list(cap.arcs)
    flow = 0
    while goal is None or flow < goal:
        pred = {s: None}
        queue = deque([s])
        while queue and t not in pred:
            for arc, w in g.adj[queue.popleft()]:
                if res[arc] and w not in pred:
                    pred[w] = arc
                    if w == t:
                        break
                    queue.append(w)
        if t not in pred:
            return flow, set(pred)
        path = []
        node = t
        while node != s:
            path.append(pred[node])
            node = g.edges[pred[node] >> 1][pred[node] & 1]
        bott = min(res[arc] for arc in path)
        for arc in path:
            res[arc] -= bott
            res[arc ^ 1] += bott
        flow += bott
    return flow, None


def reference_cuts(g, cap, s, t, goal=None):
    """reference_min_cut's (flow, side) and the maximal s-side: V minus
    the minimal t-side, which a second whole-graph flow, from t to s,
    labels (both None when the flow reached goal)."""
    flow, side = reference_min_cut(g, cap, s, t, goal)
    if side is None:
        return flow, None, None
    return flow, side, set(range(g.num_nodes)) - reference_min_cut(g, cap, t, s)[1]


@st.composite
def block_graphs(draw):
    """A multigraph made of blocks: cycles with chords glued at cut
    vertices, pendant trees, parallel edges, a second component and maybe
    an isolated node, with node ids and edge order shuffled."""
    edges = []
    n = 1
    for _ in range(draw(st.integers(1, 4))):
        nodes = [draw(st.integers(0, n - 1))] + list(range(n, n + draw(st.integers(1, 3))))
        n = nodes[-1] + 1
        edges += list(zip(nodes, nodes[1:] + nodes[:1] if len(nodes) > 2 else nodes[1:]))
        for a, b in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                                  .filter(lambda e: e[0] != e[1]), max_size=2)):
            edges.append((a, b))
    for _ in range(draw(st.integers(0, 3))):  # pendant trees
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    for eid in draw(st.lists(st.integers(0, len(edges) - 1), max_size=2)):
        edges.append(edges[eid])  # parallel edges
    size = draw(st.integers(0, 3))  # a second component: an edge or a triangle
    if size >= 2:
        rest = list(range(n, n + size))
        edges += list(zip(rest, rest[1:] + rest[:1] if size > 2 else rest[1:]))
        n += size
    n += draw(st.integers(0, 1))  # an isolated node
    perm = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(perm[u], perm[v]) for u, v in edges]))
    return Graph(n, edges)


@st.composite
def block_networks(draw):
    """block_graphs with capacities, s, t and need as in flow_networks:
    some capacities 0 or absent."""
    g = draw(block_graphs())
    value = st.one_of(st.just(0), st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)))
    cap = {}
    for eid in range(g.num_edges):
        c = draw(st.one_of(st.none(), value))
        if c is not None:
            cap[eid] = c
    s, t = draw(st.lists(st.integers(0, g.num_nodes - 1), min_size=2, max_size=2, unique=True))
    need = draw(st.one_of(st.none(), st.builds(Fraction, st.integers(0, 8), st.integers(1, 2))))
    return g, cap, s, t, need


@settings(derandomize=True, max_examples=400, deadline=None)
@given(block_networks())
def test_min_cut_in_blocks_matches_unrestricted_reference(case):
    g, cap, s, t, need = case
    scaled = scale_capacities(g, cap)
    value, side, back = min_cut(g, scaled, s, t)
    assert (value, side, back) == reference_cuts(g, scaled, s, t)
    if need is not None:
        goal = goal_of(need, scaled.scale)
        assert min_cut(g, scaled, s, t, goal=goal) == reference_cuts(g, scaled, s, t, goal)
    if g.num_nodes <= 8:
        cuts = list(brute_force_cuts(g, cap, s, t))
        best = min(v for v, _ in cuts)
        assert Fraction(value, scaled.scale) == best
        assert all(side <= other for v, other in cuts if v == best)
        assert back == set().union(*(other for v, other in cuts if v == best))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(block_graphs(), flow_networks().map(lambda case: case[0])))
def test_block_cut_forest_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    forest = block_cut_forest(g)
    num_blocks = len(forest.exits)
    blocks = [set() for _ in range(num_blocks)]
    for eid, (u, v) in enumerate(g.edges):
        blocks[forest.edge_block[eid]] |= {u, v}
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.num_nodes))
    assert sorted(map(sorted, blocks)) == sorted(map(sorted, nx.biconnected_components(h)))
    cut_vertices = {v for v in range(g.num_nodes) if forest.node_tree[v] >= num_blocks}
    assert cut_vertices == set(nx.articulation_points(h)) == set(forest.cut_vertex)
    assert all(forest.node_tree[v] == num_blocks + j for j, v in enumerate(forest.cut_vertex))
    # each node's tree node: its own if a cut vertex, its one block, or -1 if isolated
    for v in range(g.num_nodes):
        if v not in cut_vertices:
            owner = [b for b in range(num_blocks) if v in blocks[b]]
            assert owner == ([forest.node_tree[v]] if g.adj[v] else [])
    # tree edges join each cut vertex to exactly the blocks holding it, and
    # parent and depth root one tree per component that has an edge
    tree_edges = {frozenset((forest.node_tree[v], b)) for v in cut_vertices
                  for b in range(num_blocks) if v in blocks[b]}
    links = {frozenset((a, p)) for a, p in enumerate(forest.parent) if p >= 0}
    assert links == tree_edges
    assert all(forest.depth[a] == (0 if p < 0 else forest.depth[p] + 1)
               for a, p in enumerate(forest.parent))
    roots = sum(p < 0 for p in forest.parent)
    assert roots == nx.number_connected_components(h.subgraph(
        [v for v in range(g.num_nodes) if g.adj[v]]))
    # local numbers by first appearance along each block's edges, in
    # edge-id order; one shape id per numbered edge list (none for one block)
    numbered = [[] for _ in range(num_blocks)]
    for eid, (u, v) in enumerate(g.edges):
        numbered[forest.edge_block[eid]] += [u, v]
    if num_blocks == 1:
        assert forest.local == forest.shape == ()
        return
    for b, ends in enumerate(numbered):
        assert list(forest.local[b]) == list(dict.fromkeys(ends))
        assert sorted(forest.local[b].values()) == list(range(len(blocks[b])))
    edges = [tuple(forest.local[b][v] for v in ends) for b, ends in enumerate(numbered)]
    assert all((forest.shape[a] == forest.shape[b]) == (edges[a] == edges[b])
               for a in range(num_blocks) for b in range(num_blocks))


def test_block_cut_forest_of_a_path_with_parallel_edges():
    # 0=1-2, 3 isolated: blocks {0,1} (two parallel edges) and {1,2}
    g = Graph(4, [(0, 1), (1, 2), (1, 0)])
    forest = block_cut_forest(g)
    assert forest.edge_block[0] == forest.edge_block[2] != forest.edge_block[1]
    assert forest.node_tree[1] == 2 and forest.node_tree[3] == -1
    assert sorted(forest.exits[forest.edge_block[1]]) == [1, 4]  # 1->0 twice
    assert sorted(forest.exits[forest.edge_block[0]]) == [2]  # 1->2


def test_min_cut_leaves_the_capacities_as_they_were():
    # 2-0-1-3 and the cycle 0-1-4: the cut 0-1 lies in the block {0, 1, 4}
    # and closes the arcs 0->2 and 1->3
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 0)])
    cap = scale_capacities(g, {0: Fraction(1, 2), 1: 1, 2: 1, 3: Fraction(1, 3), 4: 1})
    assert cap.scale == 6  # so the cut value 5/6 is the flow 5
    arcs = list(cap.arcs)
    for goal, answer in ((None, (5, {0, 2, 4}, {0, 2, 4})),  # full flow
                         (3, (3, None, None)),  # early stop at 1/2
                         # violated at 1: closed arcs reopened
                         (6, (5, {0, 2, 4}, {0, 2, 4}))):
        assert min_cut(g, cap, 0, 1, goal) == answer
        assert cap.arcs == arcs


def counted_flows(monkeypatch):
    """The (s, t) of every flow graph._flow runs from now on."""
    flows = []
    run = graph._flow
    monkeypatch.setattr(graph, "_flow", lambda g, cap, s, t, *rest:
                        flows.append((s, t)) or run(g, cap, s, t, *rest))
    return flows


def test_block_hops_follow_the_cut_vertices(monkeypatch):
    # 0-1-2 and the triangle 2-3-4, 5-6 apart, 7 isolated
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (5, 6)])
    unit = {eid: 1 for eid in range(g.num_edges)}
    flows = counted_flows(monkeypatch)
    searches = []
    search = graph._shortest_path_tree
    monkeypatch.setattr(graph, "_shortest_path_tree",
                        lambda *args: searches.append(args) or search(*args))

    def flows_of(s, t, goal=1, cap=None):
        flows.clear()
        searches.clear()
        answer = min_cut(g, cap or scale_capacities(g, unit), s, t, goal)
        return answer, flows[:]

    # with goal set, a path across several blocks is checked hop by hop;
    # the unit bridges 0-1 and 1-2 have one shape, so they share a hop
    assert flows_of(0, 3) == ((1, None, None), [(0, 1), (2, 3)])
    assert flows_of(4, 1) == ((1, None, None), [(4, 2), (2, 1)])
    assert flows_of(1, 2) == ((1, None, None), [(1, 2)])  # one block
    assert flows_of(3, 4) == ((1, None, None), [(3, 4)])
    # different trees; no edge: back is V minus t's component
    assert flows_of(0, 5) == ((0, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 7}), [(0, 5)])
    assert flows_of(7, 0) == ((0, {7}, {5, 6, 7}), [(7, 0)])
    # a hop short of goal runs the whole flow for the sides, and only the
    # whole flow labels them: two searches each; no goal, no hops
    assert flows_of(0, 3, 2) == ((1, {0}, {0, 1, 5, 6, 7}), [(0, 1), (0, 3)])
    assert len(searches) == 4
    assert flows_of(0, 3, None) == ((1, {0}, {0, 1, 5, 6, 7}), [(0, 3)])
    # the hops are kept with the capacities: 0-4 only runs its last hop
    cap = scale_capacities(g, unit)
    flows_of(0, 3, cap=cap)
    assert flows_of(0, 4, cap=cap) == ((1, None, None), [(2, 4)])
    # keyed (block id, local u, local v, goal): the triangle numbers 2, 3,
    # 4 as 0, 1, 2, and the three unit bridges share one id
    bridge, triangle = (cap.blocks[g.blocks.edge_block[eid]] for eid in (0, 2))
    assert [cap.blocks[g.blocks.edge_block[eid]] for eid in (1, 5)] == [bridge, bridge]
    assert sorted(cap.hops) == sorted([(bridge, 0, 1, 1), (triangle, 0, 1, 1),
                                       (triangle, 0, 2, 1)])


def test_a_kept_flow_below_goal_never_answers():
    # 0-1-2 with capacity 0 on 0-1: the query 2-0 keeps its short hop 1-0,
    # and the one-block query 1-0 must still run its whole flow for the side
    g = Graph(3, [(0, 1), (1, 2)])
    cap = scale_capacities(g, {0: 0, 1: 1})
    assert min_cut(g, cap, 2, 0, goal=1) == (0, {1, 2}, {1, 2})
    assert min_cut(g, cap, 1, 0, goal=1) == (0, {1, 2}, {1, 2})


def test_blocks_are_built_once():
    # 2-0-1-3: three blocks, so the cut 0-1 closes the arcs 0->2 and 1->3
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    unit = {eid: 1 for eid in range(3)}
    assert min_cut(g, scale_capacities(g, unit), 0, 1) == (1, {0, 2}, {0, 2})
    assert g.blocks is g.blocks
    # with 2-3 the cycle 0-1-3-2 is one block, so nothing is closed and the
    # cut finds the second path
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    unit[3] = 1
    assert min_cut(g, scale_capacities(g, unit), 0, 1) == (2, {0}, {0, 2, 3})
    assert g.blocks == block_cut_forest(g) and len(g.blocks.exits) == 1


def test_components_and_labels():
    g = Graph(4, [(0, 1), (2, 3)])
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
