import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsf import graph
from pcsf.cutlp import LpInfeasibleError
from pcsf.exact import (ScaleCapError, enumerate_forests, enumerate_ip, gap,
                        solve_ip)
from pcsf.graph import Graph, is_forest
from pcsf.instance import PcsfInstance, make_base
from pcsf.layered import build_layered, layered_instance
from pcsf.rational import INF
from pcsf.rounding import forest_solution


def triangle_instance(penalty=Fraction(1)):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(3)}, [(0, 2)], {0: penalty})


def c4_double_pair():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(4)},
                        [(0, 2), (1, 3)], {0: INF, 1: INF})


def random_instance(rng, max_extra=8):
    n = rng.randint(3, 6)
    edges, seen = [], set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((j, i))
        seen.add(frozenset((j, i)))
    for _ in range(max_extra):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in seen and len(edges) < 14:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    g = Graph(n, edges)
    costs = {e: Fraction(rng.randint(0, 5)) for e in range(len(edges))}
    pairs, pseen = [], set()
    for _ in range(rng.randint(1, 4)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) in pseen:
            continue
        pseen.add(frozenset((u, v)))
        pairs.append((u, v))
    pens = {}
    for i in range(len(pairs)):
        pens[i] = INF if rng.random() < 0.25 else Fraction(rng.randint(0, 7))
    return PcsfInstance(g, costs, pairs, pens)


def test_enumerate_forests_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    forests = enumerate_forests(g)
    assert len(forests) == 7  # empty, 3 singles, 3 two-edge trees


def test_enumerate_cap():
    g = Graph(30, [(i, i + 1) for i in range(29)])
    with pytest.raises(ScaleCapError):
        enumerate_forests(g)
    with pytest.raises(ScaleCapError):
        solve_ip(PcsfInstance(g, {e: Fraction(1) for e in range(29)}, [], {}),
                 edge_cap=10)


def test_triangle_ip():
    sol = solve_ip(triangle_instance(penalty=Fraction(1, 2)))
    assert sol.objective == Fraction(1, 2) and not sol.forest
    sol = solve_ip(triangle_instance(penalty=Fraction(10)))
    assert sol.objective == 1 and len(sol.forest) == 1


def test_c4_gap():
    lp, ip, ratio = gap(c4_double_pair())
    assert (lp, ip, ratio) == (2, 3, Fraction(3, 2))


def test_infeasible_ip():
    g = Graph(4, [(0, 1), (2, 3)])
    inst = PcsfInstance(g, {0: Fraction(1), 1: Fraction(1)}, [(0, 2)], {0: INF})
    with pytest.raises(LpInfeasibleError):
        solve_ip(inst)
    with pytest.raises(LpInfeasibleError):
        enumerate_ip(inst)


def test_solve_ip_matches_enumeration():
    rng = random.Random(23)
    for _ in range(100):
        inst = random_instance(rng)
        best, _ = enumerate_ip(inst)
        assert solve_ip(inst).objective == best


def brute_force_ip(inst):
    """Every acyclic edge subset evaluated in Fractions by forest_solution."""
    sols = [forest_solution(inst, f) for k in range(inst.graph.num_edges + 1)
            for f in combinations(range(inst.graph.num_edges), k) if is_forest(inst.graph, f)]
    sols = [sol for sol in sols if sol.objective is not None]
    if not sols:
        raise LpInfeasibleError("no feasible forest")
    best = min(sol.objective for sol in sols)
    return best, sorted((sol for sol in sols if sol.objective == best),
                        key=lambda sol: sorted(sol.forest))


rationals = st.builds(Fraction, st.integers(0, 12), st.integers(1, 6))


@st.composite
def instances(draw):
    """Multigraphs on 2..6 nodes with up to 9 edges; costs and penalties of
    mixed denominators 1..6, zeros included; some penalties infinite."""
    n = draw(st.integers(2, 6))
    nodes = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]), max_size=9))
    pairs = draw(st.lists(st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1]),
                          max_size=4, unique_by=frozenset))
    costs = {e: draw(rationals) for e in range(len(edges))}
    pens = {i: draw(st.one_of(st.just(INF), rationals)) for i in range(len(pairs))}
    return PcsfInstance(Graph(n, edges), costs, pairs, pens)


def summary(sols):
    return [(sorted(s.forest), s.disconnected, s.cost, s.penalty, s.objective) for s in sols]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(instances())
def test_enumerate_ip_matches_brute_force(inst):
    try:
        want_value, want = brute_force_ip(inst)
    except LpInfeasibleError:
        with pytest.raises(LpInfeasibleError):
            enumerate_ip(inst)
        return
    value, sols = enumerate_ip(inst)
    assert value == want_value and isinstance(value, Fraction)
    assert summary(sols) == summary(want)


def test_enumerate_ip_lists_all_optima():
    inst = c4_double_pair()
    best, sols = enumerate_ip(inst)
    assert best == 3
    assert len(sols) == 4  # the four 3-edge paths around the cycle
    assert all(len(s.forest) == 3 for s in sols)


def test_shared_pool_speeds_resolve():
    inst = c4_double_pair()
    pool = []
    a = solve_ip(inst, pool=pool)
    b = solve_ip(inst, pool=pool)
    assert a.objective == b.objective == 3


def test_solve_ip_builds_the_block_cut_forest_once(monkeypatch):
    # every branch-and-bound node separates cuts on the same graph
    inst = layered_instance(build_layered(make_base("k4"), m=1, k=0))
    built = []
    build = graph.block_cut_forest
    monkeypatch.setattr(graph, "block_cut_forest", lambda g: built.append(g) or build(g))
    solve_ip(inst)
    assert built == [inst.graph]
