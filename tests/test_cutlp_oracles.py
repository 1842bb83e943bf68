"""The cut LP against slow exact oracles on small hypothesis-generated
instances: separation and its back side against brute force over all node
subsets, the cutting-plane value against the cut LP written out over every
separating set (also with edges forced in or out and a reused cut pool),
and branch and bound against the enumeration oracle."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsf import simplex
from pcsf.cutlp import LpInfeasibleError, _violated_cuts, check_feasible, solve_cut_lp, solve_lp
from pcsf.exact import enumerate_ip, solve_ip
from pcsf.graph import Graph, cut_edges
from pcsf.instance import FracSolution, PcsfInstance
from pcsf.rational import INF

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

RATIONALS = st.builds(Fraction, st.integers(0, 4), st.integers(1, 4))


@st.composite
def instances(draw, max_nodes=6, max_edges=10, infinite=st.booleans()):
    """Connected multigraphs (a random spanning tree plus extra edges),
    integer costs 0..5 and 1..3 distinct pairs.  ``infinite`` draws whether
    a pair must be connected; the first pair draws it, the others may too."""
    n = draw(st.integers(2, max_nodes))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(extra, max_size=max_edges - len(edges)))
    g = Graph(n, edges)
    costs = {e: Fraction(draw(st.integers(0, 5))) for e in range(g.num_edges)}
    node_pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    pairs = draw(st.lists(st.sampled_from(node_pairs), min_size=1, max_size=3, unique=True))
    pens = {}
    for i in range(len(pairs)):
        must = draw(infinite) if i == 0 else draw(st.booleans())
        pens[i] = INF if must else Fraction(draw(st.integers(0, 5)))
    return PcsfInstance(g, costs, pairs, pens)


def separating_sets(inst, i):
    """Every node set holding the first endpoint of pair i but not the second."""
    s, t = inst.pairs[i]
    rest = [v for v in range(inst.graph.num_nodes) if v not in (s, t)]
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            yield frozenset((s,) + extra)


def slack(inst, point, i, side):
    """x(delta(side)) + z_i - 1."""
    crossing = cut_edges(inst.graph, side)
    return sum(point.x[e] for e in crossing) + point.z[i] - 1


@PROPERTY
@given(st.data())
def test_check_feasible_matches_brute_force(data):
    inst = data.draw(instances())
    point = FracSolution(
        x={e: data.draw(RATIONALS) for e in range(inst.graph.num_edges)},
        z={i: data.draw(RATIONALS) / 4 for i in range(inst.num_pairs)})
    feasible = all(slack(inst, point, i, side) >= 0
                   for i in range(inst.num_pairs) for side in separating_sets(inst, i))
    violated = check_feasible(inst, point)
    assert (violated is None) == feasible
    if violated is not None:
        assert violated.kind == "cut"
        violated.validate(inst)
        assert slack(inst, point, violated.pair, violated.side) < 0


@PROPERTY
@given(st.data())
def test_back_side_is_the_maximal_minimum_cut(data):
    """For each violated pair the back side has the least slack of all its
    separating sets, contains every one of least slack (so it is the
    maximal s-side of a minimum cut) and contains the side that separation
    returns."""
    inst = data.draw(instances())
    point = FracSolution(
        x={e: data.draw(RATIONALS) for e in range(inst.graph.num_edges)},
        z={i: data.draw(RATIONALS) / 4 for i in range(inst.num_pairs)})
    for i, side, back in _violated_cuts(inst, point.x, point.z, range(inst.num_pairs)):
        slacks = {other: slack(inst, point, i, other) for other in separating_sets(inst, i)}
        least = min(slacks.values())
        assert slacks[back] == least
        assert all(other <= back for other, v in slacks.items() if v == least)
        assert side <= back


def full_cut_lp(inst, fixed=None):
    """The cut LP written out over every separating set, with an x and a z
    column for every edge and finite-penalty pair; ``fixed`` maps edges to
    the value (0 or 1) an equality row pins them to."""
    m = inst.graph.num_edges
    z_pairs = [i for i in range(inst.num_pairs) if not inst.is_infinite(i)]
    zcol = {i: m + j for j, i in enumerate(z_pairs)}
    cost = [inst.costs[e] for e in range(m)] + [inst.penalties[i] for i in z_pairs]
    rows = set()
    for i in range(inst.num_pairs):
        for side in separating_sets(inst, i):
            rows.add((frozenset(cut_edges(inst.graph, side)), i))
    lp_rows = []
    for crossing, i in sorted(rows, key=lambda r: (r[1], sorted(r[0]))):
        row = dict.fromkeys(sorted(crossing), Fraction(1))
        if i in zcol:
            row[zcol[i]] = Fraction(1)
        lp_rows.append(row)
    senses, rhs = [">="] * len(lp_rows), [Fraction(1)] * len(lp_rows)
    for e, v in sorted((fixed or {}).items()):
        lp_rows.append({e: Fraction(1)})
        senses.append("=")
        rhs.append(Fraction(v))
    return simplex.solve_min(len(cost), cost, lp_rows, senses, rhs)


@PROPERTY
@given(instances())
def test_solve_lp_matches_full_cut_lp(inst):
    res = solve_lp(inst)
    assert res.value == full_cut_lp(inst).objective
    assert check_feasible(inst, res.solution) is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_restricted_cut_lp_with_reused_pool_matches_full_cut_lp(data):
    """Branch and bound's use of the engine: a pool filled by an earlier
    solve, edges forced in (bought, cost paid by the caller) and forced
    out (deleted); the value plus the forced-in cost must be the full cut
    LP's with those edges pinned to 1 and 0."""
    inst = data.draw(instances())
    fate = [data.draw(st.sampled_from(["free", "in", "out"])) for _ in range(inst.graph.num_edges)]
    forced_in = {e for e, f in enumerate(fate) if f == "in"}
    forced_out = {e for e, f in enumerate(fate) if f == "out"}
    pool = []
    solve_cut_lp(inst, pool=pool)
    fixed = {**dict.fromkeys(forced_in, 1), **dict.fromkeys(forced_out, 0)}
    try:
        full = full_cut_lp(inst, fixed).objective
    except simplex.LpInfeasible:
        with pytest.raises(LpInfeasibleError):
            solve_cut_lp(inst, pool=pool, forced_in=forced_in, forced_out=forced_out)
        return
    res = solve_cut_lp(inst, pool=pool, forced_in=forced_in, forced_out=forced_out)
    assert res.value + sum(inst.costs[e] for e in forced_in) == full
    assert all(res.solution.x[e] == 1 for e in forced_in)
    assert all(res.solution.x[e] == 0 for e in forced_out)
    assert check_feasible(inst, res.solution) is None


@PROPERTY
@given(instances(infinite=st.just(True)))
def test_solve_ip_matches_enumeration_with_infinite_penalties(inst):
    best, _ = enumerate_ip(inst)
    assert solve_ip(inst).objective == best
