"""Exact-arithmetic graph primitives: flows/cuts, connectivity, spanning forests.

Everything here runs over Fractions (or ints); there is no floating-point
path.  Edges carry stable integer ids so parallel edges are well-defined;
tie-breaking is always by smallest edge id, then smallest node id.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


class GraphError(ValueError):
    pass


class Graph:
    """Undirected multigraph with integer node indices and edge ids 0..m-1."""

    def __init__(self, num_nodes: int, edges):
        self.num_nodes = num_nodes
        self.edges = []  # edge id -> (u, v)
        self.adj = [[] for _ in range(num_nodes)]  # node -> [(edge id, other)]
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> int:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise GraphError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        eid = len(self.edges)
        self.edges.append((u, v))
        self.adj[u].append((eid, v))
        self.adj[v].append((eid, u))
        return eid

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, node: int) -> int:
        return len(self.adj[node])

    def __repr__(self):
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, u: int) -> int:
        root = u
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[u] != root:
            self.parent[u], u = root, self.parent[u]
        return root

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        return True

    def connected(self, u: int, v: int) -> bool:
        return self.find(u) == self.find(v)


def min_cut(g: Graph, cap, s: int, t: int):
    """Minimum s-t cut under nonnegative capacities, exactly.

    ``cap`` maps edge id -> capacity (Fraction/int); missing ids count as 0.
    Returns ``(value, side)`` where ``side`` is the set of nodes on the
    s-side of a minimum cut.  Max-flow by shortest augmenting paths
    (Edmonds-Karp), which terminates for rational capacities.
    """
    if not (0 <= s < g.num_nodes and 0 <= t < g.num_nodes):
        raise GraphError(f"cut endpoints out of range: ({s}, {t})")
    if s == t:
        raise GraphError("min_cut requires s != t")
    # residual capacities per edge and direction: flow[eid] signed u->v
    flow = {}
    value = Fraction(0)

    def residual(eid, frm):
        u, v = g.edges[eid]
        c = Fraction(cap.get(eid, 0))
        f = flow.get(eid, Fraction(0))
        return c - f if frm == u else c + f

    while True:
        # BFS for an augmenting path with positive residual capacity
        pred = {s: None}
        queue = deque([s])
        while queue and t not in pred:
            u = queue.popleft()
            for eid, w in g.adj[u]:
                if w not in pred and residual(eid, u) > 0:
                    pred[w] = (eid, u)
                    queue.append(w)
        if t not in pred:
            break
        # bottleneck
        bott = None
        node = t
        while pred[node] is not None:
            eid, u = pred[node]
            r = residual(eid, u)
            bott = r if bott is None or r < bott else bott
            node = u
        node = t
        while pred[node] is not None:
            eid, u = pred[node]
            a, b = g.edges[eid]
            flow[eid] = flow.get(eid, Fraction(0)) + (bott if u == a else -bott)
            node = u
        value += bott
    side = set(pred)
    return value, side


def edge_connectivity(g: Graph) -> int:
    """Global edge connectivity with unit capacities; 0 if disconnected."""
    if g.num_nodes <= 1:
        return 0
    comps = components(g, set(range(g.num_edges)))
    if len(comps) > 1:
        return 0
    unit = {eid: Fraction(1) for eid in range(g.num_edges)}
    best = None
    # fixing s=0 suffices: some min cut separates node 0 from something
    for t in range(1, g.num_nodes):
        value, _ = min_cut(g, unit, 0, t)
        if best is None or value < best:
            best = value
    return int(best)


def components(g: Graph, f) -> list:
    """Connected components of (V, f) as a list of node sets.

    ``f`` is a set of edge ids; classes are ordered by smallest member.
    """
    uf = UnionFind(g.num_nodes)
    for eid in sorted(f):
        u, v = g.edges[eid]
        uf.union(u, v)
    groups = {}
    for node in range(g.num_nodes):
        groups.setdefault(uf.find(node), []).append(node)
    comps = [set(nodes) for nodes in groups.values()]
    comps.sort(key=min)
    return comps


def component_labels(g: Graph, f) -> list:
    """Node -> component label array for (V, f); labels are root min-nodes."""
    uf = UnionFind(g.num_nodes)
    for eid in f:
        u, v = g.edges[eid]
        uf.union(u, v)
    label = {}
    out = [0] * g.num_nodes
    for node in range(g.num_nodes):
        root = uf.find(node)
        if root not in label:
            label[root] = node
        out[node] = label[root]
    return out


def spanning_forest(g: Graph, order) -> set:
    """Kruskal: scan the edge ids in ``order``, keeping each edge that joins
    two components of the edges kept so far."""
    uf = UnionFind(g.num_nodes)
    forest = set()
    for eid in order:
        if uf.union(*g.edges[eid]):
            forest.add(eid)
    return forest


def minimum_spanning_tree(g: Graph, weights) -> set:
    """Kruskal MST; deterministic tie-break by smallest edge id."""
    order = sorted(range(g.num_edges), key=lambda eid: (Fraction(weights.get(eid, 0)), eid))
    tree = spanning_forest(g, order)
    if len(tree) != g.num_nodes - 1:
        raise GraphError("graph is disconnected; no spanning tree")
    return tree


def is_forest(g: Graph, f) -> bool:
    uf = UnionFind(g.num_nodes)
    for eid in f:
        u, v = g.edges[eid]
        if not uf.union(u, v):
            return False
    return True


def cut_edges(g: Graph, side) -> set:
    """delta(side): edge ids with exactly one endpoint in ``side``."""
    side = set(side)
    return {eid for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)}
