"""Distributions over forests: dominating convex decompositions by column
generation with exact integer pricing, the explicit replicated-tree
distribution on the layered graph, witness-node / chain tracing, and the
closed-form bound curves for the limit arguments.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from . import simplex
from .cutlp import check_feasible
from .exact import DEFAULT_IP_EDGE_CAP, ENUM_EDGE_CAP, enumerate_forests, solve_ip
from .graph import Graph, component_labels, is_forest, minimum_spanning_tree, spanning_forest
from .instance import FracSolution, InstanceError, PcsfInstance
from .layered import LayeredConstruction, canonical_point, layered_pairs
from .rational import (INF, format_rational, parse_field, parse_rational, rational_json,
                       read_records)
from .rounding import forest_solution


class DecompositionError(RuntimeError):
    pass


# --- distributions ------------------------------------------------------

@dataclass
class ForestDistribution:
    """Convex combination of forests: list of (edge-id frozenset, weight)."""

    entries: list

    def __post_init__(self):
        self.entries = _merge_entries(self.entries)

    def validate(self, graph: Graph):
        total = Fraction(0)
        for forest, weight in self.entries:
            unknown = sorted(e for e in forest if not 0 <= e < graph.num_edges)
            if unknown:
                raise InstanceError(f"distribution names edges outside the graph: {unknown}")
            if weight < 0:
                raise InstanceError("negative weight in distribution")
            if not is_forest(graph, forest):
                raise InstanceError("support set contains a cycle")
            total += weight
        if total != 1:
            raise InstanceError(f"weights sum to {total}, not 1")

    def edge_marginals(self):
        out = {}
        for forest, weight in self.entries:
            for e in forest:
                out[e] = out.get(e, Fraction(0)) + weight
        return out

    def pair_probs(self, graph: Graph, pairs):
        out = {i: Fraction(0) for i in range(len(pairs))}
        for forest, weight in self.entries:
            labels = component_labels(graph, forest)
            for i, (s, t) in enumerate(pairs):
                if labels[s] == labels[t]:
                    out[i] += weight
        return out


def _merge_entries(entries):
    merged = {}
    for forest, weight in entries:
        forest = frozenset(forest)
        weight = Fraction(weight)
        if weight == 0:
            continue
        merged[forest] = merged.get(forest, Fraction(0)) + weight
    return sorted(merged.items(), key=lambda fw: sorted(fw[0]))


def write_distribution(dist: ForestDistribution, path):
    with open(path, "w") as fh:
        for forest, weight in dist.entries:
            fh.write(f"forest {format_rational(weight)}\n")
            for e in sorted(forest):
                fh.write(f"e {e}\n")


def read_distribution(path) -> ForestDistribution:
    entries = []
    for where, fields in read_records(path):
        if fields[0] == "forest" and len(fields) == 2:
            entries.append((set(), parse_field(where, parse_rational, fields[1])))
        elif fields[0] == "e" and len(fields) == 2 and entries:
            entries[-1][0].add(parse_field(where, int, fields[1]))
        else:
            raise InstanceError(f"{where}: malformed line: {' '.join(fields)!r}")
    return ForestDistribution(entries)


@dataclass
class DualWitness:
    """Optimal dual of the decomposition LP: prices (d, rho) and level gamma.

    Every integral solution of the priced instance costs at least
    ``gamma_dual``.
    """

    d: dict
    rho: dict
    gamma_dual: Fraction
    inst: PcsfInstance
    zero_edges: frozenset      # edges with x* = 0, excluded from pricing
    forced_pairs: frozenset    # pairs with target z = 0, priced as must-connect


@dataclass
class DistributionReport:
    mode: str
    scale: Fraction
    marginals: dict
    pair_probs: dict
    passes: bool
    edge_failures: list = field(default_factory=list)
    pair_failures: list = field(default_factory=list)

    def to_json(self):
        return {
            "mode": self.mode,
            "scale": rational_json(self.scale),
            "passes": self.passes,
            "marginals": {str(e): rational_json(v) for e, v in sorted(self.marginals.items())},
            "pair_probs": {str(i): rational_json(v) for i, v in sorted(self.pair_probs.items())},
            "edge_failures": [[e, format_rational(have), format_rational(want)]
                              for e, have, want in self.edge_failures],
            "pair_failures": [[i, format_rational(have), format_rational(want)]
                              for i, have, want in self.pair_failures],
        }


def verify_distribution(subject, dist: ForestDistribution, scale, mode: str,
                        point: FracSolution = None) -> DistributionReport:
    """Check a distribution against the dominance targets.

    gap mode (scale alpha): Pr[e in F] <= alpha*x_e and
    Pr[u ~ v] >= 1 - alpha*z_uv.  lmp mode (scale beta):
    Pr[e in F] <= beta*x_e and Pr[u ~ v] >= 1 - z_uv.
    """
    graph = subject.graph
    if isinstance(subject, LayeredConstruction):
        pairs = layered_pairs(subject)
        if point is None:
            point = canonical_point(subject, mode)
    else:
        pairs = subject.pairs
        if point is None:
            raise InstanceError("verify_distribution on an instance needs a point")
    if mode not in ("gap", "lmp"):
        raise InstanceError(f"unknown mode {mode!r}")
    scale = Fraction(scale)
    dist.validate(graph)

    marginals = dist.edge_marginals()
    pair_probs = dist.pair_probs(graph, pairs)

    edge_failures = []
    for e in range(graph.num_edges):
        have = marginals.get(e, Fraction(0))
        want = scale * point.x.get(e, Fraction(0))
        if have > want:
            edge_failures.append((e, have, want))

    pair_failures = []
    for i in range(len(pairs)):
        zi = point.z.get(i, Fraction(0))
        want = 1 - (scale * zi if mode == "gap" else zi)
        if pair_probs[i] < want:
            pair_failures.append((i, pair_probs[i], want))

    return DistributionReport(mode=mode, scale=scale, marginals=marginals,
                              pair_probs=pair_probs,
                              passes=not edge_failures and not pair_failures,
                              edge_failures=edge_failures, pair_failures=pair_failures)


# --- explicit distribution on the layered graph -------------------------

def explicit_gap_distribution(lc: LayeredConstruction, alpha) -> ForestDistribution:
    """Replicated subdivided base trees (weight (3-alpha)/T each) plus one
    fixed spanning tree of the whole graph (weight alpha-2).

    The "arbitrary" global spanning tree is pinned to the minimum spanning
    tree under unit weights with id tie-breaks, for reproducibility.
    """
    alpha = Fraction(alpha)
    if not 2 <= alpha <= 3:
        raise InstanceError("alpha must lie in [2, 3]")
    if lc.l != 3:
        raise InstanceError("explicit distribution requires a 3-regular base")
    trees = [t for t, _ in enumerate_forests(lc.base) if len(t) == lc.base.num_nodes - 1]
    entries = []
    tree_weight = (3 - alpha) / len(trees)
    for tree in trees:
        forest = set()
        for copy in lc.copies:
            for be in tree:
                forest.update(copy.groups[be].edges)
        entries.append((frozenset(forest), tree_weight))
    gtree = minimum_spanning_tree(lc.graph, {e: Fraction(1) for e in range(lc.graph.num_edges)})
    entries.append((frozenset(gtree), alpha - 2))
    return ForestDistribution(entries)


# --- column generation: dominating convex decompositions ----------------

Column = namedtuple("Column", "forest miss")  # global edge ids, missed pair ids


def _greedy_price(inst: PcsfInstance, sub: Graph, eplus, d, rho, forced):
    """Cheap pricing heuristic: min-weight spanning forest of the support,
    then drop paid edges whenever the separated penalties are cheaper."""
    weights = {j: d.get(eplus[j], Fraction(0)) for j in range(sub.num_edges)}
    chosen = spanning_forest(sub, sorted(range(sub.num_edges), key=lambda j: (weights[j], j)))

    def crossing_pairs(kept, removed):
        labels = component_labels(sub, kept - {removed})
        return [i for i, (s, t) in enumerate(inst.pairs) if labels[s] != labels[t]]

    base_miss = set(crossing_pairs(chosen, None))
    while True:
        best_gain, best_j, best_miss = Fraction(0), None, None
        for j in sorted(chosen, key=lambda j: (-weights[j], j)):
            if weights[j] == 0:
                continue
            miss = crossing_pairs(chosen, j)
            if any(i in forced for i in miss):
                continue
            gain = weights[j] - sum(rho.get(i, Fraction(0))
                                    for i in miss if i not in base_miss)
            if gain > best_gain:
                best_gain, best_j, best_miss = gain, j, set(miss)
        if best_j is None:
            break
        chosen.discard(best_j)
        base_miss = best_miss
    value = (sum(weights[j] for j in chosen)
             + sum(rho.get(i, Fraction(0)) for i in base_miss))
    forest = frozenset(eplus[j] for j in chosen)
    return value, Column(forest, frozenset(base_miss))


def _price(inst: PcsfInstance, sub: Graph, eplus, d, rho, forced, pool, edge_cap, cutoff):
    # a heuristic column priced below the cutoff is enough to keep the
    # column generation moving; the exact solve only certifies termination
    value, col = _greedy_price(inst, sub, eplus, d, rho, forced)
    if value < cutoff:
        return value, col
    costs = {j: d.get(eplus[j], Fraction(0)) for j in range(sub.num_edges)}
    pens = {i: (INF if i in forced else rho.get(i, Fraction(0)))
            for i in range(inst.num_pairs)}
    priced = PcsfInstance(sub, costs, inst.pairs, pens)
    # the cutoff makes pricing a decision: exact below it, else terminate
    sol = solve_ip(priced, edge_cap=edge_cap, pool=pool, cutoff=cutoff)
    forest = frozenset(eplus[j] for j in sol.forest)
    return sol.objective, Column(forest, frozenset(sol.disconnected))


def _dominance_master(columns, eplus, x, zrows, scaled, scale_z):
    """Solve the dominance LP over ``columns``: weights lam_q >= 0 with

        sum_q lam_q [e in F_q]  <= x_e    (s*x_e when ``scaled``)
        sum_q lam_q [i missed]  <= z_i    (s*z_i when ``scale_z``)

    for every support edge e and every row (i, z_i) of ``zrows``.  Scaled:
    min s with sum lam = 1 (the alpha and beta LPs).  Unscaled: max sum lam
    <= 1 (the feasibility LP), solved as min -sum lam.

    Returns (value, weights, d, rho, level): the optimal dual prices the
    edges by d and the rows' pairs by rho, and a column improves the LP iff
    its priced cost falls below ``level``.
    """
    ncols = len(columns)  # the scale s, when present, is variable ncols
    members = [[q for q, col in enumerate(columns) if e in col.forest] for e in eplus]
    members += [[q for q, col in enumerate(columns) if i in col.miss] for i, _ in zrows]
    targets = [(x[e], scaled) for e in eplus] + [(zi, scale_z) for _, zi in zrows]
    rows, rhs = [], []
    for qs, (target, on_scale) in zip(members, targets):
        row = dict.fromkeys(qs, Fraction(1))
        if on_scale:
            row[ncols] = -target
        rows.append(row)
        rhs.append(Fraction(0) if on_scale else target)
    rows.append(dict.fromkeys(range(ncols), Fraction(1)))
    rhs.append(Fraction(1))
    senses = ["<="] * (len(rows) - 1) + ["=" if scaled else "<="]
    if scaled:
        sol = simplex.solve_min(ncols + 1, [Fraction(0)] * ncols + [Fraction(1)],
                                rows, senses, rhs)
    else:
        sol = simplex.solve_min(ncols, [Fraction(-1)] * ncols, rows, senses, rhs)
    d = {e: -sol.duals[r] for r, e in enumerate(eplus)}
    rho = {i: -sol.duals[len(eplus) + r] for r, (i, _) in enumerate(zrows)}
    # reduced cost of a column: its own cost (0 scaled, -1 unscaled) plus
    # its priced cost minus the dual of the weight row
    level = sol.duals[-1] + (0 if scaled else 1)
    value = sol.objective if scaled else -sol.objective
    return value, sol.x[:ncols], d, rho, level


def _dominate(inst: PcsfInstance, x, z, scaled: bool, scale_z: bool, method: str,
              edge_cap: int):
    """Dominance LP of ``_dominance_master`` over the forests of supp(x),
    by column generation with exact pricing (or over every forest, with
    ``method="enumerate"``).  ``x`` and ``z`` give a target per edge and
    per pair.  Pairs with z = 0 must be connected by every column; a pair
    row exists for each z > 0 (only z < 1 when unscaled, where z >= 1
    cannot bind).  Returns (value, distribution, dual witness).
    """
    eplus = [e for e in range(inst.graph.num_edges) if x[e] > 0]
    sub = Graph(inst.graph.num_nodes, [inst.graph.edges[e] for e in eplus])
    forced = frozenset(i for i, zi in z.items() if zi == 0)
    zrows = [(i, zi) for i, zi in sorted(z.items()) if zi > 0 and (scaled or zi < 1)]

    forest = spanning_forest(inst.graph, eplus)
    start = Column(frozenset(forest), frozenset(forest_solution(inst, forest).disconnected))
    if start.miss & forced:
        raise DecompositionError(
            f"pairs {sorted(start.miss & forced)} cannot be connected within the support of x")
    if scaled and not scale_z:
        bad = [i for i, zi in zrows if i in start.miss and zi < 1]
        if bad:
            raise DecompositionError(
                f"z cannot dominate any mixture: pairs {bad} unconnectable but z* < 1")

    if method == "enumerate":
        forests = enumerate_forests(sub, inst.pairs, edge_cap=min(edge_cap, ENUM_EDGE_CAP))
        columns = [Column(frozenset(eplus[j] for j in forest), miss)
                   for forest, miss in forests if not miss & forced]
        value, weights, d, rho, level = _dominance_master(columns, eplus, x, zrows,
                                                          scaled, scale_z)
    elif method == "cg":
        columns = [start]
        pool = []
        while True:
            value, weights, d, rho, level = _dominance_master(columns, eplus, x, zrows,
                                                              scaled, scale_z)
            priced, col = _price(inst, sub, eplus, d, rho, forced, pool, edge_cap, level)
            if priced >= level:
                break
            columns.append(col)
    else:
        raise InstanceError(f"unknown method {method!r}")

    dist = ForestDistribution([(col.forest, w) for col, w in zip(columns, weights) if w > 0])
    witness = DualWitness(d=d, rho=rho, gamma_dual=level, inst=inst,
                          zero_edges=frozenset(range(inst.graph.num_edges)) - set(eplus),
                          forced_pairs=forced)
    return value, dist, witness


def _decompose_min(inst: PcsfInstance, point: FracSolution, scale_z: bool,
                   method: str, edge_cap: int):
    violated = check_feasible(inst, point)
    if violated is not None:
        raise InstanceError(f"point is infeasible: {violated}")
    x_star = {e: point.x.get(e, Fraction(0)) for e in range(inst.graph.num_edges)}
    z_star = {i: point.z.get(i, Fraction(0)) for i in range(inst.num_pairs)}
    return _dominate(inst, x_star, z_star, scaled=True, scale_z=scale_z,
                     method=method, edge_cap=edge_cap)


def min_alpha(inst: PcsfInstance, point: FracSolution, method: str = "cg",
              edge_cap: int = DEFAULT_IP_EDGE_CAP):
    """Smallest alpha with a convex combination of integral solutions
    dominated coordinatewise by alpha*(x, z)."""
    return _decompose_min(inst, point, scale_z=True, method=method, edge_cap=edge_cap)


def min_beta(inst: PcsfInstance, point: FracSolution, method: str = "cg",
             edge_cap: int = DEFAULT_IP_EDGE_CAP):
    """Smallest beta with a mixture dominated by (beta*x, z): only the edge
    side is scaled, the z side must fit under z* as-is."""
    return _decompose_min(inst, point, scale_z=False, method=method, edge_cap=edge_cap)


@dataclass
class FeasibilityResult:
    value: Fraction
    dist: ForestDistribution | None
    witness: DualWitness | None


def feasibility_at_beta(inst: PcsfInstance, point: FracSolution, beta) -> FeasibilityResult:
    """Does a mixture dominated by (beta*x, z) exist?  The packing LP: max
    total weight of a sub-convex mixture dominated by (beta*x, z); value 1
    means a full distribution exists and the optimal dual is a certificate
    otherwise."""
    beta = Fraction(beta)
    if beta < 0:
        raise InstanceError("beta must be nonnegative")
    x_target = {e: beta * point.x.get(e, Fraction(0))
                for e in range(inst.graph.num_edges)}
    z_target = {i: point.z.get(i, Fraction(0)) for i in range(inst.num_pairs)}
    value, dist, witness = _dominate(inst, x_target, z_target, scaled=False,
                                     scale_z=False, method="cg", edge_cap=DEFAULT_IP_EDGE_CAP)
    return FeasibilityResult(value=value, dist=dist if value == 1 else None, witness=witness)


def witness_costs_from_dual(w: DualWitness, mode: str = "gap", beta=None) -> PcsfInstance:
    """Instance realizing the certified bound: costs d, penalties rho
    (divided by beta in lmp mode).  Every integral solution then costs at
    least gamma_dual while the fractional point costs at most 1."""
    if all(v == 0 for v in w.d.values()) and all(v == 0 for v in w.rho.values()):
        raise InstanceError("degenerate all-zero dual; no witness instance")
    costs = {e: w.d.get(e, Fraction(0)) for e in range(w.inst.graph.num_edges)}
    floor = max(w.gamma_dual, Fraction(0))
    for e in w.zero_edges:
        # x* = 0 edges were excluded from pricing; price them at the dual
        # level so no integral solution can undercut gamma through them
        costs[e] = floor
    if mode == "gap":
        pens = {i: (INF if i in w.forced_pairs else w.rho.get(i, Fraction(0)))
                for i in range(w.inst.num_pairs)}
    elif mode == "lmp":
        if beta is None:
            raise InstanceError("lmp mode needs beta")
        beta = Fraction(beta)
        if beta <= 0:
            raise InstanceError(f"lmp witness needs beta > 0 to divide rho by, got {beta}")
        pens = {i: (INF if i in w.forced_pairs else w.rho.get(i, Fraction(0)) / beta)
                for i in range(w.inst.num_pairs)}
    else:
        raise InstanceError(f"unknown mode {mode!r}")
    return PcsfInstance(w.inst.graph, costs, w.inst.pairs, pens,
                        node_names=w.inst.node_names)


# --- support trimming and the witness-node / chain machinery ------------

def trim_support(lc: LayeredConstruction, dist: ForestDistribution) -> ForestDistribution:
    """Within each copy, delete forest edges lying in components that touch
    no branch node of that copy (they can never help connectivity)."""
    copy_edges = {copy.id: set(copy.edge_ids) for copy in lc.copies}
    entries = []
    for forest, weight in dist.entries:
        kept = set(forest)
        for copy in lc.copies:
            restricted = kept & copy_edges[copy.id]
            if not restricted:
                continue
            labels = component_labels(lc.graph, restricted)
            good = {labels[b] for b in copy.branch_nodes}
            for e in restricted:
                if labels[lc.graph.edges[e][0]] not in good:
                    kept.discard(e)
        entries.append((frozenset(kept), weight))
    return ForestDistribution(entries)


def _restricted_degree(graph: Graph, restricted, v):
    return sum(1 for arc, _ in graph.adj[v] if arc >> 1 in restricted)


def find_witness_node(lc: LayeredConstruction, dist: ForestDistribution, copy,
                      event=None):
    """Degree-2 node of ``copy`` that is rarely a leaf and whose path group
    is often fully present, conditioned on ``event`` (predicate on the
    support forest).  Returns (node, stats)."""
    copy_edges = set(copy.edge_ids)
    cond = [(forest, weight) for forest, weight in dist.entries
            if event is None or event(forest)]
    wsum = sum((w for _, w in cond), Fraction(0))
    if wsum == 0:
        raise DecompositionError("conditioning event has probability 0")

    for forest, _ in cond:
        labels = component_labels(lc.graph, forest & copy_edges)
        if len({labels[b] for b in copy.branch_nodes}) != 1:
            raise DecompositionError(
                f"a support forest does not induce a tree on copy {copy.id}; "
                "trim the support first")

    best_grp, best_contain = None, None
    for grp in copy.groups:
        ge = frozenset(grp.edges)
        contain = sum((w for forest, w in cond if ge <= forest), Fraction(0)) / wsum
        if best_contain is None or contain > best_contain:
            best_grp, best_contain = grp, contain

    best_node, best_leaf = None, None
    for v in best_grp.nodes:
        leaf = sum((w for forest, w in cond
                    if _restricted_degree(lc.graph, forest & copy_edges, v) == 1),
                   Fraction(0)) / wsum
        if best_leaf is None or leaf < best_leaf:
            best_node, best_leaf = v, leaf

    m = lc.m
    stats = {
        "group": best_grp.base_edge,
        "containment": best_contain,
        "containment_threshold": Fraction(2 * (m - 1), 3 * m),
        "leaf_prob": best_leaf,
        "leaf_threshold": Fraction(2, m),
        "ok": (best_contain >= Fraction(2 * (m - 1), 3 * m)
               and best_leaf <= Fraction(2, m)),
    }
    return best_node, stats


def chain_trace(lc: LayeredConstruction, dist: ForestDistribution, alpha):
    """Descend the recursion: witness node per level, conditioning each step
    on the previous node being disconnected from the root.

    Step 1 is checked against p_1 <= alpha/3 + 2/m; every later step
    against p_{j+1} <= alpha/3 + 2/m - 2/3 + (2/3) p_j + 2/(3m).  Failures
    are reported in the step records, not raised: a distribution violating
    the marginal premises is a counterexample, not an error.
    """
    alpha = Fraction(alpha)
    dist.validate(lc.graph)
    dist = trim_support(lc, dist)
    labels = {forest: component_labels(lc.graph, forest) for forest, _ in dist.entries}
    r0 = lc.r0

    def connect_prob(v):
        return sum((w for forest, w in dist.entries if labels[forest][v] == labels[forest][r0]),
                   Fraction(0))

    m = lc.m
    steps = []
    copy = lc.copies[0]
    event = None
    prev_p = None
    while True:
        node, stats = find_witness_node(lc, dist, copy, event)
        p = connect_prob(node)
        if prev_p is None:
            bound = alpha / 3 + Fraction(2, m)
        else:
            bound = (alpha / 3 + Fraction(2, m) - Fraction(2, 3)
                     + Fraction(2, 3) * prev_p + Fraction(2, 3 * m))
        steps.append({"node": node, "prob": p, "bound": bound,
                      "ok": p <= bound, "stats": stats})
        nxt = lc.copy_of_root(node)
        if nxt is None:
            break
        miss = sum((w for forest, w in dist.entries
                    if labels[forest][node] != labels[forest][r0]), Fraction(0))
        if miss == 0:
            break
        event = (lambda forest, v=node: labels[forest][v] != labels[forest][r0])
        copy, prev_p = nxt, p
    return steps


# --- closed-form bound curves -------------------------------------------

def bound_alpha(n: int, k: int) -> Fraction:
    """Exact solution of 1 - a/3 = ((a-2)/3 + 8/(3n))*s + t with
    s = sum_{i<=k} (2/3)^i and t = (2/3)^{k+1}: the finite-depth lower
    bound whose n,k limit is 9/4."""
    if n < 1 or k < 0:
        raise InstanceError("bound_alpha needs n >= 1, k >= 0")
    r = Fraction(2, 3)
    s = sum((r ** i for i in range(k + 1)), Fraction(0))
    t = r ** (k + 1)
    return (3 - 3 * t + 2 * s - Fraction(8) * s / n) / (s + 1)


def bound_beta(l: int, n: int = None, k: int = None) -> Fraction:
    """Finite-depth lower bound on the Lagrangean-multiplier-preserving
    scale, asymptotically 4 - 4/l.

    Derived from the same recursion as bound_alpha with ratio 2/3 replaced
    by 2/l and the per-step additive terms a/3 -> b/l, 2/m + 2/(3m) ->
    2(l+1)/(l n): solving 2/l = ((b-2)/l + 2(l+1)/(l n))*s + t with
    s = sum_{i<=k} (2/l)^i and t = (2/l)^{k+1} gives
    b = 2 + l*(2/l - t)/s - 2(l+1)/n.  As n,k grow this tends to
    2 + 2(l-2)/l = 4 - 4/l, the value returned when neither is given.
    """
    if l < 3:
        raise InstanceError("bound_beta needs l >= 3")
    if (n is None) != (k is None):
        raise InstanceError("bound_beta needs both n and k, or neither")
    if n is None:
        return 4 - Fraction(4, l)
    if n < 1 or k < 0:
        raise InstanceError("bound_beta needs n >= 1, k >= 0")
    r = Fraction(2, l)
    s = sum((r ** i for i in range(k + 1)), Fraction(0))
    t = r ** (k + 1)
    return 2 + l * (Fraction(2, l) - t) / s - Fraction(2 * (l + 1)) / n

