"""Exact PCSF optimum at desk scale: branch and bound plus an enumeration
oracle.  Used directly for gap measurement and as the pricing engine of
the decomposition module."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cutlp import LpInfeasibleError, solve_cut_lp
from .graph import component_labels, spanning_forest
from .instance import PcsfInstance, ScaleCapError
from .rounding import IntegralSolution, forest_solution

DEFAULT_IP_EDGE_CAP = 40
ENUM_EDGE_CAP = 20


def solve_ip(inst: PcsfInstance, edge_cap: int = DEFAULT_IP_EDGE_CAP,
             pool=None, cutoff=None) -> IntegralSolution:
    """Exact optimum by branch and bound with cut-LP bounds.

    Each node's bound comes from the cut LP with forced-in edges free and
    forced-out edges deleted; branching is on the fractional edge closest
    to 1/2 (ties by smallest id).

    With ``cutoff``, subtrees whose bound reaches the cutoff are pruned:
    the result is still the exact optimum whenever its objective lies
    below the cutoff, which is all a pricing caller needs.
    """
    if inst.graph.num_edges > edge_cap:
        raise ScaleCapError(f"solve_ip cap exceeded: {inst.graph.num_edges} > {edge_cap}")
    reach = component_labels(inst.graph, set(range(inst.graph.num_edges)))
    for i, (s, t) in enumerate(inst.pairs):
        if inst.is_infinite(i) and reach[s] != reach[t]:
            raise LpInfeasibleError(f"infinite-penalty pair {i} is disconnected")

    if pool is None:
        pool = []
    best = None  # IntegralSolution
    best_key = None

    def consider(edges):
        nonlocal best, best_key
        sol = forest_solution(inst, spanning_forest(inst.graph, sorted(edges)))
        key = (sol.objective, tuple(sorted(sol.forest)))
        if best is None or key < best_key:
            best, best_key = sol, key

    # greedy start: connect everything connectable, and also try the empty forest
    consider(set(range(inst.graph.num_edges)))
    if not any(inst.is_infinite(i) for i in range(inst.num_pairs)):
        consider(set())

    # with nonnegative costs and penalties, some optimum contains any fixed
    # maximal forest of the zero-cost edges (extend it by edges of an optimum:
    # cost cannot grow, connectivity cannot shrink), so pin those edges up
    # front and drop the zero-cost edges that would close cycles with them
    zero = [eid for eid in range(inst.graph.num_edges) if inst.costs[eid] == 0]
    zero_in = spanning_forest(inst.graph, zero)
    zero_out = set(zero) - zero_in

    stack = [(frozenset(zero_in), frozenset(zero_out))]
    while stack:
        forced_in, forced_out = stack.pop()
        try:
            res = solve_cut_lp(inst, pool=pool, forced_in=forced_in, forced_out=forced_out)
        except LpInfeasibleError:
            continue
        fixed_cost = sum(inst.costs[e] for e in forced_in)
        bound = res.value + fixed_cost
        limit = best.objective if best is not None else None
        if cutoff is not None and (limit is None or cutoff < limit):
            limit = cutoff
        if limit is not None and bound >= limit:
            # an equal-value LP optimum may still be integral; harvest it
            if best is not None and bound == best.objective and \
                    _integral(res.solution.x, forced_in, forced_out):
                consider(forced_in | {e for e, v in res.solution.x.items() if v == 1})
            continue
        if _integral(res.solution.x, forced_in, forced_out):
            consider(forced_in | {e for e, v in res.solution.x.items() if v == 1})
            continue
        branch = _branch_edge(res.solution.x, forced_in, forced_out)
        # explore the "in" side first: tends to reach incumbents sooner
        stack.append((forced_in, forced_out | {branch}))
        stack.append((forced_in | {branch}, forced_out))
    return best


def _integral(x, forced_in, forced_out) -> bool:
    return all(v == 0 or v == 1 for e, v in x.items()
               if e not in forced_in and e not in forced_out)


def _branch_edge(x, forced_in, forced_out):
    best_e, best_gap = None, None
    for e, v in sorted(x.items()):
        if e in forced_in or e in forced_out or v == 0 or v == 1:
            continue
        gap = abs(v - Fraction(1, 2))
        if best_gap is None or gap < best_gap:
            best_e, best_gap = e, gap
    return best_e


def enumerate_forests(graph, pairs=(), edge_cap: int = ENUM_EDGE_CAP):
    """All acyclic edge subsets, by DFS over the edge ids (each edge is first
    left out, then taken), as ``(forest, miss)``: ``miss`` holds the ids of
    the ``pairs`` whose endpoints lie in different trees of the forest.  The
    union-find of the taken edges unites by size and never compresses paths,
    so a union is undone exactly on backtrack."""
    if graph.num_edges > edge_cap:
        raise ScaleCapError(f"enumerate cap exceeded: {graph.num_edges} > {edge_cap}")
    parent = list(range(graph.num_nodes))
    size = [1] * graph.num_nodes
    pairs = list(enumerate(pairs))
    out = []

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    def extend(next_eid, chosen):
        if next_eid == graph.num_edges:
            out.append((frozenset(chosen),
                        frozenset(i for i, (s, t) in pairs if find(s) != find(t))))
            return
        extend(next_eid + 1, chosen)
        u, v = graph.edges[next_eid]
        ru, rv = find(u), find(v)
        if ru != rv:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            chosen.append(next_eid)
            extend(next_eid + 1, chosen)
            chosen.pop()
            size[ru] -= size[rv]
            parent[rv] = rv

    extend(0, [])
    return out


def enumerate_ip(inst: PcsfInstance):
    """Exhaustive optimum: (optimal value, all optimal solutions).  Forests are
    compared in ints, scaled by the lcm of every finite value's denominator."""
    hard = frozenset(i for i in range(inst.num_pairs) if inst.is_infinite(i))
    pens = [0 if i in hard else inst.penalties[i] for i in range(inst.num_pairs)]
    scale = lcm(*(v.denominator for v in [*inst.costs.values(), *pens]))
    costs = [int(inst.costs[e] * scale) for e in range(inst.graph.num_edges)]
    pens = [int(p * scale) for p in pens]
    best, optima = None, []
    for forest, miss in enumerate_forests(inst.graph, inst.pairs):
        if not hard.isdisjoint(miss):
            continue
        value = sum(costs[e] for e in forest) + sum(pens[i] for i in miss)
        if best is None or value < best:
            best, optima = value, [forest]
        elif value == best:
            optima.append(forest)
    if best is None:
        raise LpInfeasibleError("no feasible forest (infinite-penalty pair disconnected)")
    solutions = sorted((forest_solution(inst, f) for f in optima),
                       key=lambda s: tuple(sorted(s.forest)))
    return Fraction(best, scale), solutions


def gap(inst: PcsfInstance):
    """(lp, ip, ratio) with ratio = ip / lp, exactly; ratio 1 when both 0."""
    lp = solve_cut_lp(inst).value
    ip = solve_ip(inst).objective
    ratio = Fraction(1) if lp == 0 else ip / lp
    return lp, ip, ratio
