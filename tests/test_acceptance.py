"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
numeric claim is exact unless a tolerance is stated in the check itself.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from pcsf import decomposition as dec
from pcsf.cutlp import check_feasible, solve_lp, verify_vertex
from pcsf.exact import enumerate_ip, gap, solve_ip
from pcsf.gadget import gadget_tight_family, pcst_gadget_instance
from pcsf.graph import Graph
from pcsf.instance import FracSolution, PcsfInstance, make_base
from pcsf.layered import build_layered, canonical_point, layered_instance
from pcsf.rational import INF
from pcsf.rounding import gw_steiner_forest, mu_bound, threshold_round, two_value_round


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:2d} ({desc}): FAIL")
                raise
            print(f"\ncriterion {num:2d} ({desc}): PASS")
        return inner
    return wrap


def triangle_instance(penalty=Fraction(1)):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(3)}, [(0, 2)], {0: penalty})


def c4_double_pair():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(4)},
                        [(0, 2), (1, 3)], {0: INF, 1: INF})


def random_instance(rng, max_edges, allow_inf=True):
    n = rng.randint(3, 6)
    edges, seen = [], set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((j, i))
        seen.add(frozenset((j, i)))
    for _ in range(10):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in seen and len(edges) < max_edges:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    g = Graph(n, edges)
    costs = {e: Fraction(rng.randint(0, 5)) for e in range(len(edges))}
    pairs, pseen = [], set()
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) in pseen:
            continue
        pseen.add(frozenset((u, v)))
        pairs.append((u, v))
    pens = {}
    for i in range(len(pairs)):
        if allow_inf and rng.random() < 0.25:
            pens[i] = INF
        else:
            pens[i] = Fraction(rng.randint(1, 7))
    return PcsfInstance(g, costs, pairs, pens)


@criterion(1, "gadget extreme point, k=6")
def test_criterion_1():
    t0 = time.time()
    inst, point = pcst_gadget_instance(6)
    report = verify_vertex(inst, point, gadget_tight_family(inst, 6))
    assert report.is_feasible
    assert report.all_tight
    assert report.unique
    assert report.rank == report.dimension == inst.graph.num_edges + inst.num_pairs
    assert all(v > 0 for v in point.x.values())
    assert max(list(point.x.values()) + list(point.z.values())) == Fraction(1, 3)
    assert time.time() - t0 < 60


@criterion(2, "canonical point feasibility")
def test_criterion_2():
    for k in (0, 1):
        t0 = time.time()
        lc = build_layered(make_base("k4"), m=4, k=k)
        inst = layered_instance(lc)
        point = canonical_point(lc, "gap")
        assert check_feasible(inst, point) is None
        if k == 1:
            assert time.time() - t0 < 120
    lc5 = build_layered(make_base("complete(5)"), m=2, k=0)
    inst5 = layered_instance(lc5)
    assert check_feasible(inst5, canonical_point(lc5, "lmp")) is None


@criterion(3, "explicit distribution at 9/4, depth 1")
def test_criterion_3():
    t0 = time.time()
    lc = build_layered(make_base("k4"), m=4, k=1)
    dist = dec.explicit_gap_distribution(lc, Fraction(9, 4))
    assert len(dist.entries) == 17
    report = dec.verify_distribution(lc, dist, Fraction(9, 4), "gap")
    assert report.passes
    assert all(v <= Fraction(3, 4) for v in report.marginals.values())
    n_same = len(lc.same_copy_pairs())
    for i, prob in report.pair_probs.items():
        if i < n_same:
            assert prob == 1
        else:
            assert prob >= Fraction(1, 4)
    assert time.time() - t0 < 300


@criterion(4, "two-value mixing bound")
def test_criterion_4():
    assert mu_bound(Fraction(1, 3)) == (Fraction(9, 4), Fraction(3, 4))
    assert mu_bound(Fraction(1, 4))[0] == Fraction(16, 7)
    # cross-check: float grid + local refinement of min over p of
    # max((2-2pg)/(1-g), p/g) agrees with the closed form within 1e-9
    for g in (1 / 3, 1 / 4):
        best_p, best_v = None, None
        lo, hi, steps = 0.0, 1.0, 2000
        for _ in range(6):
            for i in range(steps + 1):
                p = lo + (hi - lo) * i / steps
                v = max((2 - 2 * p * g) / (1 - g), p / g if g else float("inf"))
                if best_v is None or v < best_v:
                    best_p, best_v = p, v
            span = (hi - lo) / steps
            lo, hi = max(0.0, best_p - 2 * span), min(1.0, best_p + 2 * span)
        mu, p_star = mu_bound(Fraction(g).limit_denominator(10))
        assert abs(best_v - float(mu)) < 1e-9
        assert abs(best_p - float(p_star)) < 1e-6


@criterion(5, "closed-form bound curves")
def test_criterion_5():
    assert dec.bound_alpha(4, 1) == Fraction(5, 8)
    # the deviation at (10^6, 100) is exactly (9t/4 + 8s/n)/(s+1) ~ 6e-6;
    # see test_criterion_5_strict_tolerance for the stricter claim
    dev = Fraction(9, 4) - dec.bound_alpha(10**6, 100)
    assert 0 < dev < Fraction(1, 10**5)
    ns = [4 + 10 * i for i in range(10)]
    ks = list(range(10))
    for ni, n in enumerate(ns):
        for k in ks:
            if ni + 1 < len(ns):
                assert dec.bound_alpha(n, k) <= dec.bound_alpha(ns[ni + 1], k)
            if k + 1 < len(ks):
                assert dec.bound_alpha(n, k) <= dec.bound_alpha(n, k + 1)
            assert dec.bound_alpha(n, k) < Fraction(9, 4)
    for l in range(3, 13):
        assert dec.bound_beta(l) == 4 - Fraction(4, l)


@pytest.mark.xfail(strict=True,
                   reason="the pinned closed form deviates from 9/4 by exactly "
                          "(9t/4 + 8s/n)/(s+1) ~ 6e-6 at n=10^6, k=100, so a "
                          "1e-6 tolerance is unattainable")
def test_criterion_5_strict_tolerance():
    assert abs(dec.bound_alpha(10**6, 100) - Fraction(9, 4)) < Fraction(1, 10**6)


@criterion(6, "column generation equals enumeration")
def test_criterion_6():
    rng = random.Random(97)
    done = 0
    while done < 50:
        inst = random_instance(rng, max_edges=12, allow_inf=False)
        point = solve_lp(inst).solution
        a_cg, _, _ = dec.min_alpha(inst, point, method="cg")
        a_en, _, _ = dec.min_alpha(inst, point, method="enumerate")
        assert a_cg == a_en
        done += 1
    inst = triangle_instance()
    point = FracSolution(x={e: Fraction(1, 2) for e in range(3)}, z={0: Fraction(0)})
    beta, _, _ = dec.min_beta(inst, point)
    assert dec.feasibility_at_beta(inst, point, beta).value == 1
    assert dec.feasibility_at_beta(inst, point, beta - Fraction(1, 100)).value < 1


@criterion(7, "dual witness round trip")
def test_criterion_7():
    # triangle
    inst = triangle_instance()
    point = FracSolution(x={e: Fraction(1, 2) for e in range(3)}, z={0: Fraction(0)})
    alpha, _, w = dec.min_alpha(inst, point)
    winst = dec.witness_costs_from_dual(w)
    assert solve_lp(winst).value <= 1
    assert solve_ip(winst).objective == alpha
    # depth-0 layered instance on K4
    lc = build_layered(make_base("k4"), m=4, k=0)
    inst = layered_instance(lc)
    point = canonical_point(lc, "gap")
    alpha, _, w = dec.min_alpha(inst, point)
    assert alpha <= Fraction(9, 4)  # the explicit distribution shows this much
    winst = dec.witness_costs_from_dual(w)
    assert solve_lp(winst).value <= 1
    assert solve_ip(winst).objective == alpha


@criterion(8, "rounding guarantees")
def test_criterion_8():
    lc = build_layered(make_base("k4"), m=4, k=0)
    suite = [
        (triangle_instance(Fraction(2)), None),
        (triangle_instance(Fraction(1, 2)), None),
        (c4_double_pair(), None),
        (layered_instance(lc), canonical_point(lc, "gap")),
    ]
    for inst, point in suite:
        if point is None:
            point = solve_lp(inst).solution
        value = inst.objective(point.x, point.z)
        sol = threshold_round(inst, point, Fraction(1, 3))
        assert sol.objective <= 3 * value
        zvals = {v for v in point.z.values() if v != 0}
        if zvals == {Fraction(1, 3)}:
            sol = two_value_round(inst, point, Fraction(3, 4))
            assert sol.objective <= Fraction(9, 4) * value
    rng = random.Random(31)
    for _ in range(100):
        inst = random_instance(rng, max_edges=12, allow_inf=False)
        forced = PcsfInstance(inst.graph, inst.costs, inst.pairs,
                              {i: INF for i in range(inst.num_pairs)})
        lp = solve_lp(forced).value
        forest = gw_steiner_forest(forced, range(forced.num_pairs))
        assert sum(forced.costs[e] for e in forest) <= 2 * lp


@criterion(9, "exact baseline")
def test_criterion_9():
    rng = random.Random(13)
    for _ in range(100):
        inst = random_instance(rng, max_edges=14)
        best, _ = enumerate_ip(inst)
        assert solve_ip(inst).objective == best
    assert gap(c4_double_pair()) == (2, 3, Fraction(3, 2))


@criterion(10, "asymptotic bounds covered by finite certificates")
def test_criterion_10():
    # The limiting statements (scale >= 9/4 for the gap, >= 4 for the
    # money-back variant) need unbounded n and k and are NOT reproduced as
    # measured gaps here.  Finite certificates stand in for them:
    # - every finite closed-form bound stays strictly below its limit,
    assert all(dec.bound_alpha(n, k) < Fraction(9, 4)
               for n in (4, 100, 10**6) for k in (0, 5, 50))
    assert all(dec.bound_beta(l, 10**6, 50) < 4 - Fraction(4, l)
               for l in range(3, 8))
    # - and the chain inequalities hold exactly on the explicit depth-1
    #   distribution, which is the step the limit argument iterates.
    lc = build_layered(make_base("k4"), m=4, k=1)
    dist = dec.explicit_gap_distribution(lc, Fraction(9, 4))
    steps = dec.chain_trace(lc, dist, Fraction(9, 4))
    assert len(steps) == 2
    assert all(s["ok"] for s in steps)
    assert all(s["stats"]["ok"] for s in steps)
    assert steps[0]["prob"] == Fraction(5, 8)
    assert steps[0]["bound"] == Fraction(5, 4)
    assert steps[1]["prob"] == Fraction(25, 64)
    assert steps[1]["bound"] == Fraction(7, 6)
