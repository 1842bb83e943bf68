"""The layered graph H^(k): recursive subdivide-and-attach construction.

The base graph P (l-regular, l-edge-connected, n nodes) is subdivided so
every edge becomes a path with m internal nodes, giving H.  H^(0) = H;
H^(i) attaches a fresh copy of H to every degree-2 node of H^(i-1),
identifying the copy's root branch node with it.  The full instance puts a
terminal pair on every branch-node pair inside a copy and a pair
(r0, v) for every degree-2 node v of the final graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph
from .instance import InstanceError, PcsfInstance, FracSolution, ScaleCapError, regular_degree
from .rational import INF

NODE_CAP = 500_000


@dataclass
class PathGroup:
    """Subdivided image of one base-graph edge inside one copy."""

    base_edge: int
    nodes: list             # the m internal (subdivision) nodes, in path order
    edges: list             # the m+1 edge ids along the path


@dataclass
class Copy:
    id: int
    level: int
    root: int               # global node id the copy is rooted at
    branch_nodes: list      # global ids of the n branch-node images; [0] is the root
    groups: list = field(default_factory=list)   # PathGroup per base edge

    @property
    def edge_ids(self):
        out = []
        for grp in self.groups:
            out.extend(grp.edges)
        return out

    @property
    def subdivision_nodes(self):
        out = []
        for grp in self.groups:
            out.extend(grp.nodes)
        return out


@dataclass
class LayeredConstruction:
    base: Graph
    n: int                  # |V(P)|
    l: int                  # degree / edge connectivity of P
    m: int                  # internal nodes per subdivided edge
    k: int                  # recursion depth
    graph: Graph
    r0: int
    copies: list

    def degree2_nodes(self):
        """Degree-2 nodes of the final graph: level-k subdivision nodes."""
        out = []
        for copy in self.copies:
            if copy.level == self.k:
                out.extend(copy.subdivision_nodes)
        return out

    def copy_of_root(self, node: int):
        """The copy rooted at ``node``, or None."""
        for copy in self.copies:
            if copy.root == node and copy.id != 0:
                return copy
        if node == self.r0:
            return self.copies[0]
        return None

    def same_copy_pairs(self):
        """All unordered branch-node pairs within each copy, copy by copy."""
        pairs = []
        for copy in self.copies:
            branch = copy.branch_nodes
            for a in range(len(branch)):
                for b in range(a + 1, len(branch)):
                    pairs.append((branch[a], branch[b]))
        return pairs

    def root_pairs(self):
        return [(self.r0, v) for v in self.degree2_nodes()]


def build_layered(base: Graph, m: int, k: int) -> LayeredConstruction:
    """Construct H^(k) from a validated base graph, with its copies."""
    if m < 1:
        raise InstanceError("subdivision count m must be >= 1")
    if k < 0:
        raise InstanceError("depth k must be >= 0")
    l = regular_degree(base)
    n = base.num_nodes

    nodes_h = n + m * base.num_edges
    # total node count: each attachment adds nodes_h - 1 nodes
    total = nodes_h
    frontier = m * base.num_edges
    for _ in range(k):
        total += frontier * (nodes_h - 1)
        frontier = frontier * (m * base.num_edges)
    if total > NODE_CAP:
        raise ScaleCapError(f"layered construction needs {total} nodes, cap {NODE_CAP}")

    copies = []
    edges = []  # edge id -> (u, v)
    ids = iter(range(total))  # node ids, handed out in order

    def attach_copy(root_global, level):
        """One subdivided copy of P; base node 0 maps to ``root_global``."""
        if root_global is None:
            branch = [next(ids) for _ in range(n)]
        else:
            branch = [root_global] + [next(ids) for _ in range(n - 1)]
        copy = Copy(id=len(copies), level=level, root=branch[0], branch_nodes=branch)
        copies.append(copy)
        for be, (a, b) in enumerate(base.edges):
            internal = [next(ids) for _ in range(m)]
            chain = [branch[a]] + internal + [branch[b]]
            edge_ids = list(range(len(edges), len(edges) + m + 1))
            edges.extend(zip(chain, chain[1:]))
            copy.groups.append(PathGroup(base_edge=be, nodes=internal, edges=edge_ids))
        return copy

    root_copy = attach_copy(None, 0)
    frontier_copies = [root_copy]
    for level in range(1, k + 1):
        next_frontier = []
        for copy in frontier_copies:
            for v in copy.subdivision_nodes:
                next_frontier.append(attach_copy(v, level))
        frontier_copies = next_frontier

    return LayeredConstruction(base=base, n=n, l=l, m=m, k=k, graph=Graph(total, edges),
                               r0=root_copy.root, copies=copies)


def layered_pairs(lc: LayeredConstruction):
    """Pair list shared by layered_instance and canonical_point."""
    return lc.same_copy_pairs() + lc.root_pairs()


def layered_instance(lc: LayeredConstruction) -> PcsfInstance:
    """Unit PCSF instance on H^(k): cost 1 on every edge, infinite penalties
    on same-copy pairs, penalty 1 on (r0, degree-2) pairs."""
    pairs = layered_pairs(lc)
    n_same = len(lc.same_copy_pairs())
    cost_map = {eid: Fraction(1) for eid in range(lc.graph.num_edges)}
    pen = {i: (INF if i < n_same else Fraction(1)) for i in range(len(pairs))}
    return PcsfInstance(lc.graph, cost_map, pairs, pen)


def canonical_point(lc: LayeredConstruction, mode: str) -> FracSolution:
    """The canonical fractional point: x = 1/l, z in {0, threshold}.

    gap mode (requires l=3): z = 1/3 on (r0, degree-2) pairs.
    lmp mode: z = 1 - 2/l on those pairs.  Same-copy pairs get z = 0.
    """
    if mode == "gap":
        if lc.l != 3:
            raise InstanceError("gap mode requires a 3-regular base")
        thresh = Fraction(1, 3)
    elif mode == "lmp":
        thresh = 1 - Fraction(2, lc.l)
    else:
        raise InstanceError(f"unknown canonical point mode {mode!r}")
    n_same = len(lc.same_copy_pairs())
    n_pairs = n_same + len(lc.degree2_nodes())
    x = {eid: Fraction(1, lc.l) for eid in range(lc.graph.num_edges)}
    z = {i: (Fraction(0) if i < n_same else thresh) for i in range(n_pairs)}
    return FracSolution(x=x, z=z)
