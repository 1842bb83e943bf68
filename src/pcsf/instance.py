"""PCSF instance model, fractional points, and their text file formats."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import Graph, edge_connectivity
from .rational import (Infinite, format_rational, parse_field, parse_penalty, parse_rational,
                       read_records)


class InstanceError(ValueError):
    pass


class ScaleCapError(RuntimeError):
    """An input is past a size cap of an exact routine."""


class PcsfInstance:
    """Graph + rational edge costs + terminal pairs + penalties.

    A penalty of INF means the pair must be connected (standard Steiner
    forest behaviour for that pair).
    """

    def __init__(self, graph: Graph, costs, pairs, penalties, node_names=None):
        self.graph = graph
        self.costs = {eid: Fraction(c) for eid, c in costs.items()}
        self.pairs = [tuple(p) for p in pairs]
        self.penalties = {
            i: (p if isinstance(p, Infinite) else Fraction(p)) for i, p in penalties.items()
        }
        self.node_names = node_names or [str(i) for i in range(graph.num_nodes)]
        self._validate()

    def _validate(self):
        for eid in range(self.graph.num_edges):
            if eid not in self.costs:
                raise InstanceError(f"edge {eid} has no cost")
            if self.costs[eid] < 0:
                raise InstanceError(f"negative cost on edge {eid}")
        seen = set()
        for i, (s, t) in enumerate(self.pairs):
            if s == t:
                raise InstanceError(f"pair {i} has equal endpoints")
            if not (0 <= s < self.graph.num_nodes and 0 <= t < self.graph.num_nodes):
                raise InstanceError(f"pair {i} endpoint out of range")
            key = frozenset((s, t))
            if key in seen:
                raise InstanceError(f"duplicate pair {{{s},{t}}}")
            seen.add(key)
            pen = self.penalties.get(i)
            if pen is None:
                raise InstanceError(f"pair {i} has no penalty")
            if not isinstance(pen, Infinite) and pen < 0:
                raise InstanceError(f"negative penalty on pair {i}")

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def is_infinite(self, i: int) -> bool:
        return isinstance(self.penalties[i], Infinite)

    def objective(self, x, z) -> Fraction:
        total = sum((self.costs[e] * x.get(e, Fraction(0)) for e in range(self.graph.num_edges)),
                    Fraction(0))
        for i in range(self.num_pairs):
            zi = z.get(i, Fraction(0))
            if zi:
                if self.is_infinite(i):
                    raise InstanceError(f"nonzero z on infinite-penalty pair {i}")
                total += self.penalties[i] * zi
        return total

    def structurally_equal(self, other) -> bool:
        return (self.graph.num_nodes == other.graph.num_nodes
                and self.graph.edges == other.graph.edges
                and self.costs == other.costs
                and self.pairs == other.pairs
                and self.penalties == other.penalties)


@dataclass
class FracSolution:
    """Rational point (x, z) for (PCSF-LP); z is indexed by pair id."""

    x: dict = field(default_factory=dict)
    z: dict = field(default_factory=dict)


# --- file formats -------------------------------------------------------

def write_instance(inst: PcsfInstance, path):
    with open(path, "w") as fh:
        fh.write("pcsf 1\n")
        for eid, (u, v) in enumerate(inst.graph.edges):
            fh.write(f"edge {inst.node_names[u]} {inst.node_names[v]} "
                     f"{format_rational(inst.costs[eid])}\n")
        for i, (s, t) in enumerate(inst.pairs):
            fh.write(f"pair {inst.node_names[s]} {inst.node_names[t]} "
                     f"{format_rational(inst.penalties[i])}\n")


def read_instance(path) -> PcsfInstance:
    """Instance from a ``pcsf 1`` file of ``edge u v cost`` and ``pair s t
    penalty`` lines; nodes are named by strings and numbered by first
    appearance."""
    records = read_records(path)
    where, header = next(records, (str(path), None))
    if header != ["pcsf", "1"]:
        raise InstanceError(f"{where}: expected 'pcsf 1' header")
    ids = {}
    edges, costs, pairs, penalties = [], {}, [], {}
    for where, fields in records:
        if fields[0] not in ("edge", "pair") or len(fields) != 4:
            raise InstanceError(f"{where}: malformed line: {' '.join(fields)!r}")
        kind, u, v, value = fields
        u, v = ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids))
        if kind == "edge":
            costs[len(edges)] = parse_field(where, parse_rational, value)
            edges.append((u, v))
        else:
            penalties[len(pairs)] = parse_field(where, parse_penalty, value)
            pairs.append((u, v))
    return PcsfInstance(Graph(len(ids), edges), costs, pairs, penalties,
                        node_names=list(ids))


def write_frac_solution(sol: FracSolution, path):
    with open(path, "w") as fh:
        for eid in sorted(sol.x):
            fh.write(f"x {eid} {format_rational(sol.x[eid])}\n")
        for i in sorted(sol.z):
            fh.write(f"z {i} {format_rational(sol.z[i])}\n")


def read_frac_solution(path) -> FracSolution:
    sol = FracSolution()
    for where, fields in read_records(path):
        if len(fields) != 3 or fields[0] not in ("x", "z"):
            raise InstanceError(f"{where}: malformed line: {' '.join(fields)!r}")
        values = sol.x if fields[0] == "x" else sol.z
        idx = parse_field(where, int, fields[1])
        if idx in values:
            raise InstanceError(f"{where}: second value for {fields[0]} {idx}")
        values[idx] = parse_field(where, parse_rational, fields[2])
    return sol


# --- base graphs --------------------------------------------------------

def _complete_graph(q: int) -> Graph:
    return Graph(q, [(u, v) for u in range(q) for v in range(u + 1, q)])


def _prism_graph() -> Graph:
    # K3 x K2: two triangles joined by a perfect matching
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Graph(6, edges)


def make_base(kind: str, path=None) -> Graph:
    """Build and validate a regular, maximally edge-connected base graph.

    ``kind`` is one of ``k4``, ``complete(q)``, ``prism``, ``from_file``;
    ``path`` is read with ``from_file`` and refused with any other kind.
    The result is checked to be l-regular and l-edge-connected where l is
    the common degree; a violation is reported with the offending node.
    """
    kind = kind.strip().lower()
    if path is not None and kind != "from_file":
        raise InstanceError(f"a base file is read only by the from_file base, not {kind!r}")
    if kind == "k4":
        g = _complete_graph(4)
    elif kind.startswith("complete(") and kind.endswith(")"):
        q = int(kind[len("complete("):-1])
        if q < 4:
            raise InstanceError("complete(q) requires q >= 4")
        g = _complete_graph(q)
    elif kind == "prism":
        g = _prism_graph()
    elif kind == "from_file":
        if path is None:
            raise InstanceError("from_file base requires a path")
        inst = read_instance(path)
        g = inst.graph
    else:
        raise InstanceError(f"unknown base kind: {kind!r}")

    degree = regular_degree(g)
    conn = edge_connectivity(g)
    if conn != degree:
        raise InstanceError(f"base graph not {degree}-edge-connected "
                            f"(edge connectivity {conn})")
    return g


def regular_degree(g: Graph) -> int:
    """The common degree of a base graph's nodes."""
    if g.num_nodes == 0:
        raise InstanceError("base graph has no nodes")
    degree = g.degree(0)
    for node in range(g.num_nodes):
        if g.degree(node) != degree:
            raise InstanceError(f"base graph not regular: node {node} has degree "
                                f"{g.degree(node)}, expected {degree}")
    return degree
