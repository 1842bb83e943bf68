"""Exact-arithmetic graph primitives: flows/cuts, connectivity, spanning forests.

Everything here runs over Fractions (or ints); there is no floating-point
path.  Edges carry stable integer ids so parallel edges are well-defined;
tie-breaking is always by smallest edge id, then smallest node id.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple


class GraphError(ValueError):
    pass


class Graph:
    """Undirected multigraph with integer node indices and edge ids 0..m-1,
    built once from its edge list.

    ``adj[node]`` lists ``(arc, other)`` for each incident edge, where arc
    2*eid runs u->v and arc 2*eid+1 runs v->u for ``edges[eid] == (u, v)``:
    ``arc >> 1`` is the edge id and ``edges[arc >> 1][arc & 1]`` the tail.
    """

    def __init__(self, num_nodes: int, edges):
        self.num_nodes = num_nodes
        self.edges = []  # edge id -> (u, v)
        self.adj = [[] for _ in range(num_nodes)]  # node -> [(arc, other)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            self.edges.append((u, v))
            self.adj[u].append((2 * eid, v))
            self.adj[v].append((2 * eid + 1, u))

    @functools.cached_property
    def blocks(self) -> BlockCutForest:
        """``block_cut_forest(self)``, built on first use."""
        return block_cut_forest(self)

    @functools.cached_property
    def routes(self) -> dict:
        """The routes of ``min_cut``'s flows through ``blocks``, filled by
        ``_route`` as cuts ask for them."""
        return {}

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


class BlockCutForest(NamedTuple):
    """The blocks (biconnected components) of a graph and their block-cut
    forest.  Tree nodes 0..B-1 are the blocks, numbered as ``edge_block``
    gives them; tree nodes B.. are the cut vertices.

    ``edge_block[eid]`` is the block of each edge, ``node_tree[v]`` the tree
    node of graph node v (its own if v is a cut vertex, else its one block,
    -1 if v has no edge), ``parent`` and ``depth`` root each tree at its
    first node, ``exits[b]`` lists the arcs out of block b: the arcs at
    b's cut vertices along edges of other blocks, and ``cut_vertex[j]`` is
    the graph node of tree node B+j.  ``local[b]`` numbers b's nodes in
    order of first appearance along its edges, taken in edge-id order, and
    blocks with the same numbered edge lists share a ``shape[b]``; both
    are empty for a graph of one block."""

    edge_block: list
    node_tree: list
    parent: list
    depth: list
    exits: list
    cut_vertex: list
    local: list
    shape: list


def block_cut_forest(g: Graph) -> BlockCutForest:
    """Blocks by an iterative Hopcroft-Tarjan depth-first search, then the
    forest of blocks and cut vertices.  Parallel edges share a block."""
    n = g.num_nodes
    edge_block = [-1] * g.num_edges
    order = [-1] * n  # discovery index, -1 while unvisited
    low = [0] * n
    edge_stack = []
    num_blocks = 0
    count = 0
    for root in range(n):
        if order[root] >= 0 or not g.adj[root]:
            continue
        order[root] = low[root] = count
        count += 1
        stack = [(root, -1, iter(g.adj[root]))]  # (node, edge it was entered by, arcs left)
        while stack:
            v, entry, arcs = stack[-1]
            for arc, w in arcs:
                eid = arc >> 1
                if eid == entry:
                    continue
                if order[w] < 0:  # tree edge: descend
                    edge_stack.append(eid)
                    order[w] = low[w] = count
                    count += 1
                    stack.append((w, eid, iter(g.adj[w])))
                    break
                if order[w] < order[v]:  # back edge to an ancestor
                    edge_stack.append(eid)
                    low[v] = min(low[v], order[w])
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= order[u]:  # u separates v's subtree: pop its block
                    while True:
                        e = edge_stack.pop()
                        edge_block[e] = num_blocks
                        if e == entry:
                            break
                    num_blocks += 1

    node_tree = [-1] * n  # for now, the first block met at each node
    cut_blocks = {}  # cut vertex -> its blocks
    for eid, ends in enumerate(g.edges):
        b = edge_block[eid]
        for v in ends:
            if node_tree[v] < 0:
                node_tree[v] = b
            elif node_tree[v] != b:
                cut_blocks.setdefault(v, {node_tree[v]}).add(b)
    tree_adj = [[] for _ in range(num_blocks)]
    exits = [[] for _ in range(num_blocks)]
    cut_vertex = sorted(cut_blocks)
    for v in cut_vertex:
        node_tree[v] = len(tree_adj)
        tree_adj.append(sorted(cut_blocks[v]))
        for b in tree_adj[-1]:
            tree_adj[b].append(node_tree[v])
            exits[b] += [arc for arc, _ in g.adj[v] if edge_block[arc >> 1] != b]

    parent = [-1] * len(tree_adj)
    depth = [-1] * len(tree_adj)
    for root in range(len(tree_adj)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            a = queue.popleft()
            for b in tree_adj[a]:
                if depth[b] < 0:
                    parent[b], depth[b] = a, depth[a] + 1
                    queue.append(b)
    local = shape = ()  # a lone block has no other to share flows with
    if num_blocks > 1:
        local = [{} for _ in range(num_blocks)]
        shapes = [[] for _ in range(num_blocks)]  # block -> its numbered edges
        for eid, ends in enumerate(g.edges):
            num = local[edge_block[eid]]
            shapes[edge_block[eid]].append(tuple(num.setdefault(v, len(num)) for v in ends))
        ids = {}
        shape = [ids.setdefault(tuple(edges), len(ids)) for edges in shapes]
    return BlockCutForest(edge_block, node_tree, parent, depth, exits, cut_vertex, local, shape)


def _tree_path(forest: BlockCutForest, a: int, b: int) -> list:
    """The tree nodes from a to b in ``forest``, in order; empty when a or
    b is -1 (a node with no edge) or they lie in different trees."""
    if a < 0 or b < 0:
        return []
    parent, depth = forest.parent, forest.depth
    up, down = [a], [b]
    while a != b:
        if depth[a] < depth[b]:
            b = parent[b]
            down.append(b)
        else:
            a = parent[a]
            if a < 0:
                return []
            up.append(a)
    return up + down[-2::-1]


def _route(g: Graph, nodes: tuple) -> tuple:
    """The route of a flow in ``g`` between the two tree nodes ``nodes``
    of ``g.blocks``, kept in ``g.routes``: ``(blocks, inner, closed)``,
    the blocks on their tree path in order, the cut vertices between
    consecutive ones, and the arcs out of those blocks into blocks off the
    path.  All three are empty when the path is."""
    forest = g.blocks
    path = _tree_path(forest, *nodes)
    num_blocks = len(forest.exits)
    blocks = tuple(a for a in path if a < num_blocks)
    inner = tuple(forest.cut_vertex[a - num_blocks] for a in path[1:-1] if a >= num_blocks)
    closed = tuple(arc for blk in blocks for arc in forest.exits[blk]
                   if forest.edge_block[arc >> 1] not in blocks)
    route = g.routes[nodes] = (blocks, inner, closed)
    return route


class ScaledCapacities(NamedTuple):
    """Capacities of a graph's edges in units of 1/scale: ``arcs[a]`` is
    the int capacity of arc a (both arcs of an edge carry it).
    ``blocks[b]`` is an id block b shares with the blocks of its shape and
    capacities in edge order (empty for a graph of one block).  ``hops``
    maps ``(id, local u, local v, goal)`` for each flow that ``min_cut``
    has run in one block to that u-v flow, stopped at ``goal``; it is the
    only field that changes, and since the capacities are fixed, a kept
    flow holds for as long as they live."""

    arcs: list
    scale: int
    blocks: list
    hops: dict


def scale_capacities(g: Graph, cap) -> ScaledCapacities:
    """Check and scale ``cap`` (edge id -> nonnegative int or Fraction,
    missing ids 0) to ints by the lcm of its denominators, and number the
    blocks of ``g`` by shape and capacities."""
    m = g.num_edges
    ratios = []
    for eid, c in cap.items():
        if not 0 <= eid < m:
            raise GraphError(f"capacity given for unknown edge id {eid!r}")
        if type(c) is not int and type(c) is not Fraction:  # a float is not exact
            raise GraphError(f"capacity {c!r} on edge {eid} is not an int or a Fraction")
        num, den = c.as_integer_ratio()
        if num < 0:
            raise GraphError(f"negative capacity {c} on edge {eid}")
        ratios.append((eid, num, den))
    scale = math.lcm(*{den for _, _, den in ratios})
    arcs = [0] * (2 * m)
    for eid, num, den in ratios:
        arcs[2 * eid] = arcs[2 * eid + 1] = num * (scale // den)
    forest = g.blocks
    blocks = []
    if forest.shape:
        caps = [[shape] for shape in forest.shape]
        for eid, blk in enumerate(forest.edge_block):
            caps[blk].append(arcs[2 * eid])
        ids = {}
        blocks = [ids.setdefault(tuple(c), len(ids)) for c in caps]
    return ScaledCapacities(arcs, scale, blocks, {})


def min_cut(g: Graph, cap, s: int, t: int, goal=None):
    """Minimum s-t cut under nonnegative rational capacities, exactly.

    ``cap`` is ``scale_capacities(g, c)`` for a capacity map ``c``, so
    that several cuts under the same capacities check and scale them
    once.  Returns ``(flow, side, back)``: ``flow`` is an int, the cut
    value in units of 1/``cap.scale``, ``side`` is the set of nodes
    reachable from s in the final residual graph and ``back`` is V minus
    the nodes that reach t in it: the minimal and the maximal s-side of a
    minimum cut, the same for every maximum flow (Picard and Queyranne
    1980).

    With ``goal`` set (an int in the same units), the flow stops as soon
    as it reaches ``goal`` and ``(flow, None, None)`` is returned, flow >=
    goal: no cut below ``goal`` exists.  Otherwise the call returns the
    same as without ``goal``.

    The flows (``_flow``) are confined to the blocks on the s-t path of
    ``g.blocks`` by closing the arcs out of them (``_route``); a search
    never enters those blocks from outside, so it labels them in the same
    order and finds the same paths.  With ``goal`` set, each hop between
    consecutive cut vertices on the path first runs in its own block.
    Every augmenting s-t path crosses the hops in turn, so the s-t flow
    stops where the least hop's flow stops; only a hop short of ``goal``
    makes the whole flow run, for the sides.  On a path of one block the
    hop is the whole flow, so it labels the sides itself.  A flow confined
    to one block sees only its arcs, in edge-id order, so in a graph of
    several blocks it is kept in ``cap.hops`` under the block's id in
    ``cap.blocks`` and serves every block alike.  Each flow works in its
    own residual list, so ``cap.hops`` and ``g.routes`` are all that a
    call changes.
    """
    n = g.num_nodes
    if not (0 <= s < n and 0 <= t < n):
        raise GraphError(f"cut endpoints out of range: ({s}, {t})")
    if s == t:
        raise GraphError("min_cut requires s != t")
    if len(cap.arcs) != 2 * len(g.edges):
        raise GraphError(f"scaled capacities cover {len(cap.arcs) // 2} edges, "
                         f"the graph has {g.num_edges}")
    forest = g.blocks
    if not forest.shape:  # at most one block: no arc to close, no flow to keep
        return _flow(g, cap, s, t, goal, (), True)
    nodes = (forest.node_tree[s], forest.node_tree[t])  # the route depends on these alone
    blocks, inner, closed = g.routes.get(nodes) or _route(g, nodes)
    if goal is not None and blocks:
        local, ids, hops = forest.local, cap.blocks, cap.hops
        u, least = s, None
        for v, blk in zip((*inner, t), blocks):
            num = local[blk]
            key = (ids[blk], num[u], num[v], goal)
            flow = hops.get(key)
            if flow is None:
                flow, side, back = _flow(g, cap, u, v, goal, forest.exits[blk], len(blocks) == 1)
                if side is not None:  # a lone block's flow fell short: it has the sides
                    return flow, side, back
                hops[key] = flow
            if flow < goal:
                break
            if least is None or flow < least:
                least = flow
            u = v
        else:
            return least, None, None
    # a path that leaves the path's blocks at a cut vertex can only come
    # back through it, so every simple s-t path stays inside them
    return _flow(g, cap, s, t, goal, closed, True)


def _flow(g: Graph, cap: ScaledCapacities, s: int, t: int, goal, closed, label):
    """Edmonds-Karp (shortest augmenting paths) from s to t on its own
    copy of the int residuals ``cap.arcs`` with the arcs ``closed`` shut,
    stopping once the flow reaches ``goal`` (None: never).  Returns
    ``(flow, side, back)``: both are None when the flow reached goal or
    ``label`` is false, else side holds the nodes that a last search from
    s labels with ``closed`` reopened, and back all nodes but those that
    reach t."""
    res = list(cap.arcs)
    for arc in closed:
        res[arc] = 0
    flow = 0
    while goal is None or flow < goal:
        pred = _shortest_path_tree(g.adj, res, s, t)
        if t not in pred:
            if not label:
                return flow, None, None
            if closed:  # no flow crossed them: reopen and search everything
                for arc in closed:
                    res[arc] = cap.arcs[arc]
                pred = _shortest_path_tree(g.adj, res, s, t)
            reach, stack = {t}, [t]  # the nodes with a residual path to t
            while stack:
                for arc, w in g.adj[stack.pop()]:
                    if res[arc ^ 1] and w not in reach:  # w reaches the popped node
                        reach.add(w)
                        stack.append(w)
            return flow, set(pred), set(range(g.num_nodes)) - reach
        path = []
        node = t
        while node != s:
            arc = pred[node]
            path.append(arc)
            node = g.edges[arc >> 1][arc & 1]
        bott = min(res[arc] for arc in path)
        for arc in path:
            res[arc] -= bott
            res[arc ^ 1] += bott
        flow += bott
    return flow, None, None


def _shortest_path_tree(adj, res, s, t) -> dict:
    """Breadth-first search from s over arcs with positive residual; stops
    as soon as t is labelled.  Returns node -> arc it was reached by."""
    pred = {s: None}
    queue = deque([s])
    while queue:
        for arc, w in adj[queue.popleft()]:
            if res[arc] and w not in pred:
                pred[w] = arc
                if w == t:
                    return pred
                queue.append(w)
    return pred


def edge_connectivity(g: Graph) -> int:
    """Global edge connectivity with unit capacities; 0 if disconnected."""
    if g.num_nodes <= 1:
        return 0
    if len(set(component_labels(g, range(g.num_edges)))) > 1:
        return 0
    unit = scale_capacities(g, dict.fromkeys(range(g.num_edges), 1))
    # fixing s=0 suffices: some min cut separates node 0 from something;
    # unit capacities have scale 1, so each flow is the cut value
    return min(min_cut(g, unit, 0, t)[0] for t in range(1, g.num_nodes))


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
