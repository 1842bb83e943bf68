import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsf import decomposition as dec
from pcsf.cutlp import solve_lp
from pcsf.exact import enumerate_forests, solve_ip
from pcsf.graph import Graph
from pcsf.instance import (FracSolution, InstanceError, PcsfInstance, make_base)
from pcsf.layered import build_layered, canonical_point, layered_instance
from pcsf.rational import INF
from pcsf.rounding import forest_solution


def triangle_instance(penalty=Fraction(1)):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(3)}, [(0, 2)], {0: penalty})


def triangle_point():
    return FracSolution(x={0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2)},
                        z={0: Fraction(0)})


def random_instance_with_point(rng):
    n = rng.randint(3, 5)
    edges, seen = [], set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((j, i))
        seen.add(frozenset((j, i)))
    while len(edges) < min(12, rng.randint(n - 1, 12)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) in seen:
            break
        seen.add(frozenset((u, v)))
        edges.append((u, v))
    g = Graph(n, edges)
    costs = {e: Fraction(rng.randint(1, 5)) for e in range(len(edges))}
    pairs, pseen = [], set()
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) in pseen:
            continue
        pseen.add(frozenset((u, v)))
        pairs.append((u, v))
    pens = {i: Fraction(rng.randint(1, 6)) for i in range(len(pairs))}
    inst = PcsfInstance(g, costs, pairs, pens)
    return inst, solve_lp(inst).solution


# --- distribution container and files ------------------------------------

def test_distribution_normalizes_and_validates():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    d = dec.ForestDistribution([(frozenset({0}), Fraction(1, 4)),
                                (frozenset({0}), Fraction(1, 4)),
                                (frozenset({1}), Fraction(1, 2)),
                                (frozenset({2}), Fraction(0))])
    assert len(d.entries) == 2  # duplicates merged, zero weight dropped
    d.validate(g)
    assert d.edge_marginals() == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    probs = d.pair_probs(g, [(0, 1), (0, 2)])
    assert probs == {0: Fraction(1, 2), 1: Fraction(0)}


def test_distribution_validate_failures():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InstanceError):
        dec.ForestDistribution([(frozenset({0}), Fraction(1, 2))]).validate(g)
    with pytest.raises(InstanceError):
        dec.ForestDistribution([(frozenset({0, 1, 2}), Fraction(1))]).validate(g)
    with pytest.raises(InstanceError):
        dec.ForestDistribution([(frozenset({0}), Fraction(3, 2)),
                                (frozenset({1}), Fraction(-1, 2))]).validate(g)


def test_distribution_file_round_trip(tmp_path):
    d = dec.ForestDistribution([(frozenset({0, 2}), Fraction(1, 3)),
                                (frozenset(), Fraction(2, 3))])
    path = tmp_path / "dist.txt"
    dec.write_distribution(d, path)
    back = dec.read_distribution(path)
    assert back.entries == d.entries


# --- explicit distribution and verification -------------------------------

def test_explicit_distribution_k0():
    lc = build_layered(make_base("k4"), m=4, k=0)
    d = dec.explicit_gap_distribution(lc, Fraction(9, 4))
    assert len(d.entries) == 17  # 16 replicated base trees + 1 global tree
    report = dec.verify_distribution(lc, d, Fraction(9, 4), "gap")
    assert report.passes


def test_explicit_distribution_alpha_range():
    lc = build_layered(make_base("k4"), m=4, k=0)
    for alpha in (Fraction(9, 4), Fraction(5, 2), Fraction(3)):
        d = dec.explicit_gap_distribution(lc, alpha)
        assert dec.verify_distribution(lc, d, alpha, "gap").passes
    with pytest.raises(InstanceError):
        dec.explicit_gap_distribution(lc, Fraction(7, 2))


def test_explicit_distribution_fails_at_two_at_depth_one():
    # at depth 1 the alpha = 2 mixture puts no weight on the global tree
    # and deep root pairs connect too rarely
    lc = build_layered(make_base("k4"), m=4, k=1)
    d = dec.explicit_gap_distribution(lc, Fraction(2))
    report = dec.verify_distribution(lc, d, Fraction(2), "gap")
    assert not report.passes
    assert report.pair_failures


def test_verify_distribution_lmp_mode():
    lc = build_layered(make_base("k4"), m=4, k=0)
    d = dec.explicit_gap_distribution(lc, Fraction(3))
    report = dec.verify_distribution(lc, d, Fraction(3), "lmp")
    # lmp wants every z<1 pair covered at probability >= 1 - z
    assert report.mode == "lmp" and report.scale == 3


# --- column generation ----------------------------------------------------

def test_min_alpha_triangle():
    inst = triangle_instance()
    alpha, d, w = dec.min_alpha(inst, triangle_point())
    assert alpha == 1
    report = dec.verify_distribution(inst, d, alpha, "gap",
                                     point=triangle_point())
    assert report.passes
    assert w.gamma_dual == alpha


def test_min_alpha_methods_agree_on_randoms():
    rng = random.Random(41)
    done = 0
    while done < 25:
        inst, point = random_instance_with_point(rng)
        try:
            a_cg, _, _ = dec.min_alpha(inst, point, method="cg")
            a_en, _, _ = dec.min_alpha(inst, point, method="enumerate")
        except dec.DecompositionError:
            continue
        assert a_cg == a_en
        done += 1


def enumerate_alpha_reference(inst, point):
    """min_alpha by enumeration with each column's missed pairs taken from
    ``forest_solution``, not from the enumerator."""
    x = {e: point.x.get(e, Fraction(0)) for e in range(inst.graph.num_edges)}
    z = {i: point.z.get(i, Fraction(0)) for i in range(inst.num_pairs)}
    eplus = [e for e in range(inst.graph.num_edges) if x[e] > 0]
    sub = Graph(inst.graph.num_nodes, [inst.graph.edges[e] for e in eplus])
    forced = {i for i, zi in z.items() if zi == 0}
    zrows = [(i, zi) for i, zi in sorted(z.items()) if zi > 0]
    forests = [{eplus[j] for j in forest} for forest, _ in enumerate_forests(sub)]
    columns = [dec.Column(frozenset(f), frozenset(forest_solution(inst, f).disconnected))
               for f in forests]
    columns = [col for col in columns if not col.miss & forced]
    value, weights, d, rho, _ = dec._dominance_master(columns, eplus, x, zrows, True, True)
    dist = dec.ForestDistribution([(col.forest, w) for col, w in zip(columns, weights) if w > 0])
    return value, dist, d, rho


def small_batch_instance(seed):
    """A random tree on 3..6 nodes plus up to 10 extra edges (at most 12),
    costs 0..5, 1..3 pairs with penalties 1..7, and its cut-LP optimum."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    seen = {frozenset(e) for e in edges}
    for _ in range(10):
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in seen and len(edges) < 12:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 3))})
    costs = {e: Fraction(rng.randint(0, 5)) for e in range(len(edges))}
    pens = {i: Fraction(rng.randint(1, 7)) for i in range(len(pairs))}
    inst = PcsfInstance(Graph(n, edges), costs, pairs, pens)
    return inst, solve_lp(inst).solution


@pytest.mark.parametrize("seed", [0, 12, 40])
def test_min_alpha_enumerate_matches_label_columns(seed):
    # the LP optimum has z in {0, 1}; the all-1/2 point (feasible on any
    # connected graph) adds fractional pair rows, where the missed pairs bind
    inst, lp_point = small_batch_instance(seed)
    half = FracSolution(x={e: Fraction(1, 2) for e in range(inst.graph.num_edges)},
                        z={i: Fraction(1, 2) for i in range(inst.num_pairs)})
    for point in (lp_point, half):
        alpha, dist, witness = dec.min_alpha(inst, point, method="enumerate")
        ref_alpha, ref_dist, ref_d, ref_rho = enumerate_alpha_reference(inst, point)
        assert alpha == ref_alpha
        assert dist.entries == ref_dist.entries
        assert (witness.d, witness.rho) == (ref_d, ref_rho)


@st.composite
def small_instances_with_points(draw):
    """Connected graphs on 3..6 nodes with at most 10 edges and 1..3 pairs
    (some of infinite penalty), with the cut LP's optimal point."""
    n = draw(st.integers(3, 6))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=n - 2, max_size=10 - len(edges)))
    seen = {frozenset(e) for e in edges}
    for u, v in extra:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=3, unique_by=frozenset))
    costs = {e: Fraction(draw(st.integers(1, 5))) for e in range(len(edges))}
    pens = {i: draw(st.sampled_from([Fraction(2), Fraction(7, 2), Fraction(6), Fraction(10), INF]))
            for i in range(len(pairs))}
    inst = PcsfInstance(Graph(n, edges), costs, pairs, pens)
    return inst, solve_lp(inst).solution


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=small_instances_with_points())
def test_min_beta_methods_agree_and_bound_feasibility(case):
    inst, point = case
    beta, _, _ = dec.min_beta(inst, point, method="cg")
    assert dec.min_beta(inst, point, method="enumerate")[0] == beta
    assert dec.feasibility_at_beta(inst, point, beta).value == 1
    if beta > 0:
        below = max(beta - Fraction(1, 100), Fraction(0))
        assert dec.feasibility_at_beta(inst, point, below).value < 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=small_instances_with_points())
def test_min_alpha_methods_agree(case):
    inst, point = case
    alpha, dist, _ = dec.min_alpha(inst, point, method="cg")
    assert dec.min_alpha(inst, point, method="enumerate")[0] == alpha
    assert dec.verify_distribution(inst, dist, alpha, "gap", point=point).passes


def test_min_beta_triangle():
    inst = triangle_instance()
    beta, d, _ = dec.min_beta(inst, triangle_point())
    assert beta == 1
    report = dec.verify_distribution(inst, d, beta, "lmp",
                                     point=triangle_point())
    assert report.passes


def test_feasibility_at_beta_threshold():
    inst = triangle_instance()
    point = triangle_point()
    beta, _, _ = dec.min_beta(inst, point)
    at = dec.feasibility_at_beta(inst, point, beta)
    assert at.value == 1 and at.dist is not None
    below = dec.feasibility_at_beta(inst, point, beta - Fraction(1, 100))
    # best sub-mixture: {edge 2} and {edges 0, 1} at 99/200 each
    assert below.value == Fraction(99, 100)
    assert below.dist is None and below.witness is not None
    # the witness level is the least priced cost of a forest connecting pair 0
    w = below.witness
    assert w.gamma_dual == min(sum(w.d[e] for e in forest)
                               for forest in ({2}, {0, 1}, {0, 2}, {1, 2}))


def test_min_alpha_rejects_infeasible_point():
    inst = triangle_instance()
    bad = FracSolution(x={e: Fraction(0) for e in range(3)}, z={0: Fraction(0)})
    with pytest.raises(InstanceError):
        dec.min_alpha(inst, bad)


# --- witness round trip ---------------------------------------------------

def test_witness_round_trip_triangle():
    inst = triangle_instance()
    point = triangle_point()
    alpha, _, w = dec.min_alpha(inst, point)
    winst = dec.witness_costs_from_dual(w)
    lp = solve_lp(winst).value
    ip = solve_ip(winst).objective
    assert lp <= 1
    assert ip == alpha


def test_witness_rejects_degenerate_dual():
    inst = triangle_instance()
    w = dec.DualWitness(d={}, rho={}, gamma_dual=Fraction(0), inst=inst,
                        zero_edges=frozenset(), forced_pairs=frozenset())
    with pytest.raises(InstanceError):
        dec.witness_costs_from_dual(w)
    with pytest.raises(InstanceError):
        dec.witness_costs_from_dual(
            dec.DualWitness(d={0: Fraction(1)}, rho={}, gamma_dual=Fraction(1), inst=inst,
                            zero_edges=frozenset(), forced_pairs=frozenset()),
            mode="lmp")  # lmp needs beta


def test_lmp_witness_needs_a_positive_beta():
    # the empty forest dominates (x, z) on the path a-b-c, so beta* = 0
    inst = PcsfInstance(Graph(3, [(0, 1), (1, 2)]), {0: Fraction(1), 1: Fraction(1)},
                        [(0, 2)], {0: Fraction(1)})
    point = FracSolution(x={0: Fraction(1, 2), 1: Fraction(1, 2)}, z={0: Fraction(1)})
    beta, _, w = dec.min_beta(inst, point)
    assert beta == 0
    for bad in (beta, Fraction(-1)):
        with pytest.raises(InstanceError, match="beta"):
            dec.witness_costs_from_dual(w, mode="lmp", beta=bad)


def test_lmp_witness_divides_the_gap_penalties_by_beta():
    # depth-0 K4, m=1 at the lmp point: beta* = 7/4 over 16 forests; the
    # lmp witness keeps the gap witness's costs and divides each finite
    # penalty (1/4) by beta*, while the 6 must-connect pairs stay infinite
    lc = build_layered(make_base("k4"), m=1, k=0)
    beta, dist, w = dec.min_beta(layered_instance(lc), canonical_point(lc, "lmp"))
    assert beta == Fraction(7, 4) and len(dist.entries) == 16
    gap = dec.witness_costs_from_dual(w)
    lmp = dec.witness_costs_from_dual(w, mode="lmp", beta=beta)
    assert lmp.costs == gap.costs
    assert sorted(i for i, p in lmp.penalties.items() if p == INF) == list(range(6))
    assert all(lmp.penalties[i] == (p if p == INF else p / beta)
               for i, p in gap.penalties.items())
    assert {p for p in lmp.penalties.values() if p != INF} == {Fraction(1, 7)}


def test_witness_prices_a_zero_edge_at_the_dual_level():
    # x = 0 on the chord 0-2: pricing skips it, so the witness prices it
    # at gamma, and the chord alone cannot undercut gamma
    inst = triangle_instance()
    point = FracSolution(x={0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(0)},
                         z={0: Fraction(1, 2)})
    alpha, _, w = dec.min_alpha(inst, point)
    assert alpha == 1 and w.zero_edges == {2}
    assert dec.witness_costs_from_dual(w).costs[2] == w.gamma_dual == 1


# --- witness nodes and chain tracing --------------------------------------

def test_trim_support_removes_stranded_components():
    lc = build_layered(make_base("k4"), m=4, k=0)
    grp = lc.copies[0].groups[0]
    # a lone mid-path edge touches no branch node and cannot help
    lone = grp.edges[2]
    d = dec.ForestDistribution([(frozenset({lone}), Fraction(1, 2)),
                                (frozenset(grp.edges), Fraction(1, 2))])
    trimmed = dec.trim_support(lc, d)
    assert trimmed.entries[0][0] == frozenset()
    assert trimmed.entries[1][0] == frozenset(grp.edges)


def test_find_witness_node_zero_event():
    lc = build_layered(make_base("k4"), m=4, k=0)
    d = dec.explicit_gap_distribution(lc, Fraction(9, 4))
    with pytest.raises(dec.DecompositionError):
        dec.find_witness_node(lc, d, lc.copies[0], event=lambda forest: False)


def test_chain_trace_k0():
    lc = build_layered(make_base("k4"), m=4, k=0)
    d = dec.explicit_gap_distribution(lc, Fraction(9, 4))
    steps = dec.chain_trace(lc, d, Fraction(9, 4))
    assert len(steps) == 1  # depth 0: no copy hangs off the witness node
    step = steps[0]
    assert step["bound"] == Fraction(9, 4) / 3 + Fraction(2, 4)
    assert step["ok"] and step["stats"]["ok"]
    assert step["prob"] == Fraction(5, 8)


# --- bound curves ---------------------------------------------------------

def test_bound_alpha_values():
    assert dec.bound_alpha(4, 1) == Fraction(5, 8)
    # deviation from the limit is exactly (9t/4 + 8s/n) / (s + 1)
    n, k = 10**6, 100
    s = sum(Fraction(2, 3) ** i for i in range(k + 1))
    t = Fraction(2, 3) ** (k + 1)
    dev = Fraction(9, 4) - dec.bound_alpha(n, k)
    assert dev == (Fraction(9, 4) * t + Fraction(8) * s / n) / (s + 1)
    assert 0 < dev < Fraction(1, 10**5)
    with pytest.raises(InstanceError):
        dec.bound_alpha(0, 1)


def test_bound_beta_needs_both_n_and_k():
    with pytest.raises(InstanceError):
        dec.bound_beta(3, n=5)
    with pytest.raises(InstanceError):
        dec.bound_beta(3, k=1)


def test_bound_alpha_monotone_grid():
    ns = [10 * (i + 1) for i in range(10)]
    ks = list(range(10))
    values = {(n, k): dec.bound_alpha(n, k) for n in ns for k in ks}
    for n in ns:
        for k in ks:
            if n != ns[-1]:
                assert values[(n, k)] <= values[(ns[ns.index(n) + 1], k)]
            if k != ks[-1]:
                assert values[(n, k)] <= values[(n, k + 1)]


def test_bound_beta_asymptotes():
    for l in range(3, 13):
        assert dec.bound_beta(l) == 4 - Fraction(4, l)
    assert dec.bound_beta(3, 10**7, 200) < 4 - Fraction(4, 3)
    assert abs(dec.bound_beta(3, 10**7, 200) - (4 - Fraction(4, 3))) < Fraction(1, 10**5)
    with pytest.raises(InstanceError):
        dec.bound_beta(2)
