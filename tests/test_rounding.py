import random
from fractions import Fraction

import pytest

from pcsf.cutlp import solve_lp
from pcsf.graph import Graph
from pcsf.instance import FracSolution, InstanceError, PcsfInstance
from pcsf.rational import INF
from pcsf import rounding
from pcsf.rounding import (RoundingBoundError, best_threshold_round,
                           forest_solution, gw_steiner_forest, mu_bound,
                           threshold_round, two_value_gamma, two_value_round)


def triangle_instance(penalty=Fraction(1)):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(3)}, [(0, 2)], {0: penalty})


def random_instance(rng):
    n = rng.randint(3, 7)
    edges, seen = [], set()
    nodes = list(range(n))
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((j, i))
        seen.add(frozenset((j, i)))
    while rng.random() < 0.6 and len(edges) < 12:
        u, v = rng.sample(nodes, 2)
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    g = Graph(n, edges)
    costs = {e: Fraction(rng.randint(1, 6)) for e in range(len(edges))}
    pairs, pseen = [], set()
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(nodes, 2)
        if frozenset((u, v)) in pseen:
            continue
        pseen.add(frozenset((u, v)))
        pairs.append((u, v))
    pens = {i: Fraction(rng.randint(1, 8)) for i in range(len(pairs))}
    return PcsfInstance(g, costs, pairs, pens)


def test_forest_solution_counts_penalties():
    inst = triangle_instance(penalty=Fraction(5))
    sol = forest_solution(inst, set())
    assert sol.objective == 5 and sol.disconnected == {0}
    sol = forest_solution(inst, {2})
    assert sol.objective == 1 and not sol.disconnected
    with pytest.raises(InstanceError):
        forest_solution(inst, {0, 1, 2})  # cycle


def test_forest_solution_infinite_pair_cut_off():
    g = Graph(2, [(0, 1)])
    inst = PcsfInstance(g, {0: Fraction(1)}, [(0, 1)], {0: INF})
    sol = forest_solution(inst, set())
    assert sol.objective is None


def test_gw_connects_required_pairs():
    inst = triangle_instance()
    forest = gw_steiner_forest(inst, {0})
    assert forest_solution(inst, forest).disconnected == set()
    assert gw_steiner_forest(inst, set()) == set()


def test_gw_two_approx_on_randoms():
    rng = random.Random(5)
    for _ in range(100):
        inst = random_instance(rng)
        # force-connect every pair: compare against the Steiner forest LP
        forced = PcsfInstance(inst.graph, inst.costs, inst.pairs,
                              {i: INF for i in range(inst.num_pairs)})
        lp = solve_lp(forced).value
        forest = gw_steiner_forest(forced, range(forced.num_pairs))
        cost = sum(forced.costs[e] for e in forest)
        assert cost <= 2 * lp


def test_threshold_round_guarantee():
    inst = triangle_instance(penalty=Fraction(2))
    res = solve_lp(inst)
    sol = threshold_round(inst, res.solution)
    assert sol.objective <= 3 * res.value
    assert sol.ratio_bound == 3  # max(2/(1 - 1/3), 1/(1/3))


def test_threshold_round_rejects_bad_input():
    inst = triangle_instance()
    point = FracSolution(x={e: Fraction(1, 3) for e in range(3)}, z={0: Fraction(1, 3)})
    with pytest.raises(InstanceError):
        threshold_round(inst, point, theta=Fraction(0))
    bad = FracSolution(x={e: Fraction(0) for e in range(3)}, z={0: Fraction(0)})
    with pytest.raises(InstanceError):
        threshold_round(inst, bad)  # infeasible point


def test_best_threshold_round():
    inst = triangle_instance(penalty=Fraction(2))
    point = FracSolution(x={e: Fraction(1, 2) for e in range(3)}, z={0: Fraction(1, 2)})
    sol, theta = best_threshold_round(inst, point)
    assert sol.objective is not None
    assert theta in {Fraction(1, 3), Fraction(1, 2)}
    assert sol.ratio_bound == max(2 / (1 - theta), 1 / theta)


def test_two_value_round():
    # two pairs: one with z = 0 (must connect), one with z = gamma
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = PcsfInstance(g, {e: Fraction(1) for e in range(4)},
                        [(0, 1), (0, 2)], {0: Fraction(3), 1: Fraction(3)})
    point = FracSolution(x={e: Fraction(1, 2) for e in range(4)},
                         z={0: Fraction(0), 1: Fraction(1, 3)})
    sol = two_value_round(inst, point, Fraction(3, 4))
    value = inst.objective(point.x, point.z)
    assert sol.objective <= Fraction(9, 4) * value
    assert sol.ratio_bound == Fraction(9, 4) and two_value_gamma(point) == Fraction(1, 3)


def test_two_value_round_validation():
    inst = triangle_instance()
    point = FracSolution(x={e: Fraction(1, 3) for e in range(3)}, z={0: Fraction(1, 3)})
    with pytest.raises(InstanceError):
        two_value_round(inst, point, Fraction(3, 2))  # p outside [0, 1]
    flat = FracSolution(x={e: Fraction(1) for e in range(3)}, z={0: Fraction(0)})
    with pytest.raises(InstanceError):
        two_value_round(inst, flat, Fraction(3, 4))  # z not two-valued


def test_threshold_round_raises_when_over_bound(monkeypatch):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    inst = PcsfInstance(g, {0: Fraction(10), 1: Fraction(10), 2: Fraction(1)},
                        [(0, 2)], {0: Fraction(100)})
    point = FracSolution(x={0: Fraction(0), 1: Fraction(0), 2: Fraction(1)}, z={0: Fraction(0)})
    # the long way round costs 20, over the guarantee 3 * 1
    monkeypatch.setattr(rounding, "gw_steiner_forest", lambda inst, required: {0, 1})
    with pytest.raises(RoundingBoundError):
        threshold_round(inst, point)


def test_two_value_round_raises_when_over_bound(monkeypatch):
    # the 4-cycle of test_two_value_round plus a costly chord with x = 0
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    costs = {e: Fraction(1) for e in range(4)}
    costs[4] = Fraction(100)
    inst = PcsfInstance(g, costs, [(0, 1), (0, 2)], {0: Fraction(3), 1: Fraction(3)})
    point = FracSolution(x={0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2),
                            3: Fraction(1, 2), 4: Fraction(0)},
                         z={0: Fraction(0), 1: Fraction(1, 3)})
    # both candidates take the chord: objective >= 100 > (9/4) * 3
    monkeypatch.setattr(rounding, "gw_steiner_forest", lambda inst, required: {4})
    with pytest.raises(RoundingBoundError):
        two_value_round(inst, point, Fraction(3, 4))


def test_mu_bound_values():
    assert mu_bound(Fraction(1, 3)) == (Fraction(9, 4), Fraction(3, 4))
    assert mu_bound(Fraction(1, 4)) == (Fraction(16, 7), Fraction(4, 7))
    with pytest.raises(InstanceError):
        mu_bound(Fraction(1, 2))

