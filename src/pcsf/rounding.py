"""Rounding algorithms: moat-growing Steiner forest, threshold rounding,
best-of-thresholds, and the two-value mixing scheme with its mu bound."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cutlp import check_feasible
from .graph import GraphError, UnionFind, component_labels
from .instance import FracSolution, InstanceError, PcsfInstance


class RoundingBoundError(RuntimeError):
    """A rounding result exceeded its proven ratio bound."""


@dataclass
class IntegralSolution:
    forest: set
    disconnected: set            # pair indices left unconnected
    cost: Fraction
    penalty: Fraction
    objective: Fraction | None   # None when an infinite-penalty pair is cut off
    ratio_bound: Fraction | None = None  # the proven ratio a rounding checked it against


def forest_solution(inst: PcsfInstance, forest) -> IntegralSolution:
    """Evaluate an acyclic edge set against the instance."""
    uf = UnionFind(inst.graph.num_nodes)
    for eid in forest:
        u, v = inst.graph.edges[eid]
        if not uf.union(u, v):
            raise InstanceError("edge set contains a cycle")
    disconnected = {i for i, (s, t) in enumerate(inst.pairs) if not uf.connected(s, t)}
    cost = sum((inst.costs[e] for e in forest), Fraction(0))
    feasible = not any(inst.is_infinite(i) for i in disconnected)
    penalty = sum((inst.penalties[i] for i in disconnected if not inst.is_infinite(i)),
                  Fraction(0))
    return IntegralSolution(forest=set(forest), disconnected=disconnected, cost=cost,
                            penalty=penalty,
                            objective=(cost + penalty) if feasible else None)


def gw_steiner_forest(inst: PcsfInstance, required) -> set:
    """Primal-dual 2-approximate Steiner forest on the required pair ids.

    Synchronized moat growing with exact rational event times, followed by
    reverse deletion; ties broken by smallest edge id.
    """
    required = sorted(set(required))
    if not required:
        return set()
    g = inst.graph
    uf = UnionFind(g.num_nodes)
    load = {eid: Fraction(0) for eid in range(g.num_edges)}
    order = []

    def activity():
        act = {}
        for i in required:
            s, t = inst.pairs[i]
            rs, rt = uf.find(s), uf.find(t)
            if rs != rt:
                act[rs] = 1
                act[rt] = 1
        return act

    while True:
        act = activity()
        if not act:
            break
        best = None  # (delta, eid)
        frontier = []
        for eid, (u, v) in enumerate(g.edges):
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                continue
            rate = act.get(ru, 0) + act.get(rv, 0)
            if rate == 0:
                continue
            frontier.append((eid, rate))
            delta = (inst.costs[eid] - load[eid]) / rate
            if best is None or (delta, eid) < best:
                best = (delta, eid)
        if best is None:
            raise GraphError("required pair endpoints lie in different graph components")
        delta, chosen = best
        for eid, rate in frontier:
            load[eid] += delta * rate
        u, v = g.edges[chosen]
        uf.union(u, v)
        order.append(chosen)

    # reverse delete: drop any edge whose removal keeps required pairs connected
    forest = list(order)
    for eid in reversed(order):
        trial = [e for e in forest if e != eid]
        labels = component_labels(g, trial)
        if all(labels[inst.pairs[i][0]] == labels[inst.pairs[i][1]] for i in required):
            forest = trial
    return set(forest)


def _guaranteed(name, sol: IntegralSolution, factor, inst: PcsfInstance,
                point: FracSolution) -> IntegralSolution:
    """``sol`` with ``ratio_bound`` set to ``factor``, once its objective is
    checked to be at most ``factor`` times the point's value."""
    bound = factor * inst.objective(point.x, point.z)
    if sol.objective is None or sol.objective > bound:
        raise RoundingBoundError(
            f"{name} rounding exceeded its guarantee: {sol.objective} > {bound}")
    sol.ratio_bound = factor
    return sol


def threshold_round(inst: PcsfInstance, point: FracSolution, theta=Fraction(1, 3)) -> IntegralSolution:
    """Connect the pairs with z below the threshold, pay for the rest.

    The returned objective provably stays within max(2/(1-theta), 1/theta)
    of the point's value; the bound is checked on every run.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise InstanceError("threshold must lie strictly between 0 and 1")
    violated = check_feasible(inst, point)
    if violated is not None:
        raise InstanceError(f"point is infeasible: {violated}")
    required = {i for i in range(inst.num_pairs)
                if point.z.get(i, Fraction(0)) < theta}
    sol = forest_solution(inst, gw_steiner_forest(inst, required))
    return _guaranteed("threshold", sol, max(2 / (1 - theta), 1 / theta), inst, point)


def best_threshold_round(inst: PcsfInstance, point: FracSolution):
    """Best fixed threshold among the point's distinct z-values (plus 1/3)."""
    candidates = {Fraction(1, 3)}
    candidates.update(v for v in point.z.values() if 0 < v < 1)
    best = None
    best_theta = None
    for theta in sorted(candidates):
        sol = threshold_round(inst, point, theta)
        if best is None or sol.objective < best.objective:
            best, best_theta = sol, theta
    return best, best_theta


def two_value_round(inst: PcsfInstance, point: FracSolution, p) -> IntegralSolution:
    """Two-valued mixing: connect-the-zeros versus connect-everything.

    For z taking only the values 0 and gamma, returns the cheaper of the
    two candidate solutions; the objective is at most
    max((2-2p*gamma)/(1-gamma), p/gamma) times the point's value.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InstanceError("mixing weight p must lie in [0, 1]")
    gamma = two_value_gamma(point)
    zero_pairs = {i for i in range(inst.num_pairs) if point.z.get(i, Fraction(0)) == 0}
    pay = forest_solution(inst, gw_steiner_forest(inst, zero_pairs))
    connect = forest_solution(inst, gw_steiner_forest(inst, range(inst.num_pairs)))
    sol = pay if pay.objective <= connect.objective else connect
    return _guaranteed("two-value", sol, max((2 - 2 * p * gamma) / (1 - gamma), p / gamma),
                       inst, point)


def two_value_gamma(point: FracSolution) -> Fraction:
    """The one nonzero value gamma of a two-valued point, 0 < gamma < 1/2."""
    values = {v for v in point.z.values() if v != 0}
    if len(values) != 1:
        raise InstanceError("point is not two-valued: z must take values {0, gamma}")
    gamma = values.pop()
    if not 0 < gamma < Fraction(1, 2):
        raise InstanceError("two-value rounding needs 0 < gamma < 1/2")
    return gamma


def mu_bound(gamma):
    """Closed-form mixing bound: mu = 2/(2g^2 - g + 1) at p* = 2g/(2g^2 - g + 1)."""
    gamma = Fraction(gamma)
    if not 0 < gamma < Fraction(1, 2):
        raise InstanceError("mu_bound requires 0 < gamma < 1/2")
    den = 2 * gamma * gamma - gamma + 1
    return Fraction(2) / den, 2 * gamma / den

