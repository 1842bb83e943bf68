from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graph import block_graphs, counted_flows, goal_of, reference_cuts

from pcsf import cutlp, graph, simplex
from pcsf.cutlp import (CutConstraint, LpInfeasibleError, _violated_cuts, check_feasible,
                        matrix_rank_exact, solve_cut_lp, solve_lp)
from pcsf.graph import Graph, min_cut, scale_capacities
from pcsf.instance import FracSolution, InstanceError, PcsfInstance, make_base
from pcsf.layered import build_layered, canonical_point, layered_instance
from pcsf.rational import INF


def triangle_instance(penalty=Fraction(1)):
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(3)}, [(0, 2)], {0: penalty})


def c4_double_pair():
    # 4-cycle, two crossing pairs that must be connected: lp 2, ip 3
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return PcsfInstance(g, {e: Fraction(1) for e in range(4)},
                        [(0, 2), (1, 3)], {0: INF, 1: INF})


def test_separate_finds_violation():
    inst = triangle_instance()
    point = FracSolution(x={0: Fraction(0), 1: Fraction(0), 2: Fraction(0)},
                         z={0: Fraction(1, 2)})
    cut = check_feasible(inst, point)
    assert cut is not None and cut.kind == "cut" and cut.pair == 0
    s, t = inst.pairs[0]
    assert (s in cut.side) != (t in cut.side)


def test_check_feasible_catches_negatives():
    inst = triangle_instance()
    bad = FracSolution(x={0: Fraction(-1)}, z={})
    assert check_feasible(inst, bad).kind == "nonneg_x"
    bad = FracSolution(x={}, z={0: Fraction(-1)})
    assert check_feasible(inst, bad).kind == "nonneg_z"
    # the first violation: edges by id, then pairs; ids outside the
    # instance are not read
    bad = FracSolution(x={2: Fraction(-1), 1: Fraction(1), 0: -1}, z={0: Fraction(-1)})
    assert check_feasible(inst, bad) == CutConstraint(pair=None, side=None, kind="nonneg_x",
                                                      edge=0)
    bad = FracSolution(x={0: Fraction(1, 2)}, z={3: Fraction(-1), 0: Fraction(-1, 2)})
    assert check_feasible(inst, bad) == CutConstraint(pair=0, side=None, kind="nonneg_z")


def test_triangle_lp_pays_penalty_when_cheap():
    res = solve_lp(triangle_instance(penalty=Fraction(1, 2)))
    assert res.value == Fraction(1, 2)
    assert res.solution.z[0] == 1


def test_triangle_lp_connects_when_penalty_high():
    res = solve_lp(triangle_instance(penalty=Fraction(10)))
    assert res.value == 1
    assert check_feasible(triangle_instance(Fraction(10)), res.solution) is None


def test_c4_lp_value():
    res = solve_lp(c4_double_pair())
    assert res.value == 2
    assert all(v == Fraction(1, 2) for v in res.solution.x.values())


def test_infinite_pair_disconnected_raises():
    g = Graph(4, [(0, 1), (2, 3)])
    inst = PcsfInstance(g, {0: Fraction(1), 1: Fraction(1)}, [(0, 2)], {0: INF})
    with pytest.raises(LpInfeasibleError):
        solve_cut_lp(inst)


def test_forced_edges_change_the_lp():
    inst = triangle_instance(penalty=Fraction(10))
    res = solve_cut_lp(inst, forced_in={2})
    assert res.value == 0  # the forced edge already connects the pair
    assert res.solution.x[2] == 1
    res = solve_cut_lp(inst, forced_out={2})
    assert res.value == 2  # must use the two-edge path


def test_pool_is_refreshed_with_tight_cuts():
    inst = c4_double_pair()
    pool = []
    first = solve_cut_lp(inst, pool=pool)
    assert pool and all(isinstance(side, frozenset) for _, side in pool)
    again = solve_cut_lp(inst, pool=pool)
    assert again.value == first.value
    assert again.iterations <= first.iterations


def test_every_round_is_settled_by_the_warm_dual_simplex(monkeypatch):
    """Each round after the first starts from the last certified basis plus
    the new cuts' slacks; on the depth-0 K4 layered instance at m=3 and m=4
    the float dual simplex certifies every round (the first starts from the
    slack basis), so neither the cold two-phase simplex nor the Bland
    tableau runs."""
    def cold(*args, **kwargs):
        raise AssertionError("a round left the warm dual simplex")
    monkeypatch.setattr(simplex, "_float_simplex", cold)
    monkeypatch.setattr(simplex, "_exact_simplex", cold)
    for m, value in ((3, 12), (4, 15)):
        inst = layered_instance(build_layered(make_base("k4"), m=m, k=0))
        assert solve_lp(inst).value == value


@pytest.mark.parametrize("base, m, value", [("k4", 3, 12), ("k4", 4, 15), ("complete(5)", 2, 15)])
def test_back_cuts_keep_the_round_count_small(base, m, value):
    """Each violated pair adds its minimal and its maximal s-side; on the
    depth-0 layered instances this takes 8, 4 and 4 rounds (42, 89 and
    226 with the minimal s-side alone)."""
    res = solve_lp(layered_instance(build_layered(make_base(base), m=m, k=0)))
    assert res.value == value
    assert res.iterations <= 16


def test_one_min_cut_query_per_open_pair_per_round(monkeypatch):
    """A violated pair's minimal and maximal s-side come from its one flow:
    depth-0 K4, m=3 asks min_cut once for each of its 24 pairs in each of
    its 8 rounds (267 times when a second flow found each back cut)."""
    calls = []
    run = cutlp.min_cut
    monkeypatch.setattr(cutlp, "min_cut", lambda *args, **kwargs:
                        calls.append(args[2:4]) or run(*args, **kwargs))
    inst = layered_instance(build_layered(make_base("k4"), m=3, k=0))
    res = solve_lp(inst)
    assert inst.num_pairs == 24
    assert len(calls) == res.iterations * 24 == 192


def test_solution_is_feasible_and_cuts_tight():
    inst = c4_double_pair()
    res = solve_lp(inst)
    assert check_feasible(inst, res.solution) is None
    for cut in res.active_cuts:
        total = sum(res.solution.x[e] for e, (u, v) in enumerate(inst.graph.edges)
                    if (u in cut.side) != (v in cut.side))
        assert total + res.solution.z.get(cut.pair, Fraction(0)) == 1


def unrestricted_check(inst, point):
    """check_feasible with no block-cut path, so no arc closed and no pair
    split into hops: one flow per pair, every flow and every side over the
    whole graph.  It runs on a fresh copy of the graph, whose routes are
    all found with the path left empty."""
    g = inst.graph
    fresh = PcsfInstance(Graph(g.num_nodes, g.edges), inst.costs, inst.pairs, inst.penalties)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_tree_path", lambda forest, s, t: [])
        return check_feasible(fresh, point)


def test_check_feasible_in_blocks_matches_unrestricted_on_depth_one():
    # H^(1) over K4, m=4: 25 blocks, a copy hanging off every subdivision
    # node of the root copy
    lc = build_layered(make_base("k4"), m=4, k=1)
    inst = layered_instance(lc)
    point = canonical_point(lc, "gap")
    assert check_feasible(inst, point) is None
    # x = 0 on the last edge of a path: the violated pair's minimal side
    # then reaches beyond the blocks between the pair, which only the
    # final search over the whole graph sees
    sides = []
    for copy in (lc.copies[0], lc.copies[1]):
        x = dict(point.x)
        x[copy.groups[0].edges[-1]] = Fraction(0)
        lowered = FracSolution(x=x, z=point.z)
        violated = check_feasible(inst, lowered)
        assert violated is not None and violated == unrestricted_check(inst, lowered)
        sides.append(violated.side)
    # in the root copy: the copies hanging off the path's subdivision nodes
    hanging = [c for c in lc.copies if c.root in lc.copies[0].groups[0].nodes]
    assert len(hanging) == 4
    assert all(set(c.branch_nodes + c.subdivision_nodes) <= sides[0] for c in hanging)
    # in a level-1 copy: the root copy, whose block is not between the pair
    assert set(lc.copies[0].branch_nodes + lc.copies[0].subdivision_nodes) <= sides[1]


def test_check_feasible_shares_the_root_hops_on_depth_one(monkeypatch):
    # H^(1) over K4, m=4: 576 of the 726 pairs are (r0, v) pairs whose
    # flow first crosses the root block to v's attachment vertex, one of
    # 24.  The root block and every copy have one shape and x = 1/3, so
    # each such hop is the flow from a copy's attachment vertex to the
    # node with the same local number: only the first, to node 4, runs
    # from r0.  Three more pairs from r0 lie in the root copy, one block
    # each.
    lc = build_layered(make_base("k4"), m=4, k=1)
    inst = layered_instance(lc)
    point = canonical_point(lc, "gap")
    assert len(lc.root_pairs()) == 576
    assert sum(s == lc.r0 for s, _ in inst.pairs) == 579
    calls = counted_flows(monkeypatch)
    assert check_feasible(inst, point) is None
    assert [(s, t) for s, t in calls if s == lc.r0] == [(lc.r0, v) for v in (1, 2, 3, 4)]
    assert len(set(calls)) == len(calls) == 30


def test_hop_flows_are_kept_per_capacity_map(monkeypatch):
    # H^(1) over K4, m=4 at the canonical point: 25 blocks of one shape
    # and capacities, so the 726 pairs run 30 distinct flows (750 if each
    # block ran its own).  All are feasible, so no whole flow runs for a
    # side.
    lc = build_layered(make_base("k4"), m=4, k=1)
    inst = layered_instance(lc)
    point = canonical_point(lc, "gap")
    calls = counted_flows(monkeypatch)
    assert check_feasible(inst, point) is None
    assert len(calls) == 30
    # fresh capacities run all 30 again; the same ones a second time keep
    # every flow, so none runs
    cap = scale_capacities(inst.graph, point.x)
    for count in (30, 0):
        calls.clear()
        assert all(min_cut(inst.graph, cap, s, t, goal_of(1 - point.z.get(i, 0), cap.scale))[1]
                   is None for i, (s, t) in enumerate(inst.pairs))
        assert len(calls) == count


def test_copies_share_their_flows_on_depth_two(monkeypatch):
    # H^(2) over K4, m=2: 157 blocks of one shape and capacities at the
    # canonical point, and 18 distinct flows for all of its pairs
    lc = build_layered(make_base("k4"), m=2, k=2)
    inst = layered_instance(lc)
    point = canonical_point(lc, "gap")
    assert len(inst.graph.blocks.exits) == 157
    calls = counted_flows(monkeypatch)
    assert check_feasible(inst, point) is None
    assert len(set(calls)) == len(calls) == 18


def test_capacities_are_part_of_the_kept_flow_key():
    # x = 0 on an edge of the last copy: its siblings, of the same shape,
    # are checked first and keep flows under x = 1/3, which must not answer
    # for it
    lc = build_layered(make_base("k4"), m=4, k=1)
    inst = layered_instance(lc)
    point = canonical_point(lc, "gap")
    x = dict(point.x)
    x[lc.copies[-1].groups[0].edges[0]] = Fraction(0)
    lowered = FracSolution(x=x, z=point.z)
    violated = check_feasible(inst, lowered)
    assert violated is not None and violated == unrestricted_check(inst, lowered)


@st.composite
def separation_cases(draw):
    """block_graphs with rational x (some 0 or absent), up to 8 distinct
    pairs and z in {0, 1/2, 1, 3/2}."""
    g = draw(block_graphs())
    value = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))
    x = {}
    for eid in range(g.num_edges):
        c = draw(st.one_of(st.none(), value))
        if c is not None:
            x[eid] = c
    node = st.integers(0, g.num_nodes - 1)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=8, unique_by=frozenset))
    z = {i: draw(st.builds(Fraction, st.integers(0, 3), st.just(2))) for i in range(len(pairs))}
    inst = PcsfInstance(g, dict.fromkeys(range(g.num_edges), 1), pairs,
                        dict.fromkeys(range(len(pairs)), 1))
    return inst, x, z


@settings(derandomize=True, max_examples=400, deadline=None)
@given(separation_cases())
def test_violated_cuts_hop_by_hop_match_whole_graph_cuts(case):
    inst, x, z = case
    g = inst.graph
    cap = scale_capacities(g, x)
    expected = []
    for i, (s, t) in enumerate(inst.pairs):
        _, side, back = reference_cuts(g, cap, s, t, goal_of(1 - z[i], cap.scale))
        if side is not None:
            expected.append((i, frozenset(side), frozenset(back)))
    assert list(_violated_cuts(inst, x, z, range(inst.num_pairs))) == expected


@st.composite
def route_cases(draw):
    """block_graphs with one more tree (the edge n-(n+1)) and a node with no
    edge (n+2), two rational x maps, each with its z, and two lists of
    distinct pairs; each list holds a pair from the edgeless node and one
    across two trees."""
    g = draw(block_graphs())
    n = g.num_nodes
    g = Graph(n + 3, g.edges + [(n, n + 1)])
    value = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))
    half = st.builds(Fraction, st.integers(0, 3), st.just(2))
    maps = []
    for _ in range(2):
        x = {eid: draw(value) for eid in range(g.num_edges) if draw(st.booleans())}
        maps.append((x, dict(enumerate(draw(st.lists(half, min_size=10, max_size=10))))))
    node = st.integers(0, n + 2)
    pair = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    lists = []
    for _ in range(2):
        pairs = [(n + 2, draw(st.integers(0, n + 1))), (g.edges[0][0], n + draw(st.integers(0, 1)))]
        pairs += draw(st.lists(pair, max_size=8))
        lists.append(list({frozenset(p): p for p in pairs}.values()))
    return g, maps, lists


@settings(derandomize=True, max_examples=200, deadline=None)
@given(route_cases())
def test_kept_routes_answer_for_every_capacity_map(case):
    # one Graph keeps its routes across two capacity maps and two pair
    # lists, run in turn; each run must still match the whole-graph
    # reference under its own map
    g, maps, lists = case
    for (x, z), pairs in ((maps[0], lists[0]), (maps[1], lists[1]),
                          (maps[0], lists[1]), (maps[1], lists[0])):
        inst = PcsfInstance(g, dict.fromkeys(range(g.num_edges), 1), pairs,
                            dict.fromkeys(range(len(pairs)), 1))
        cap = scale_capacities(g, x)
        expected = []
        for i, (s, t) in enumerate(pairs):
            _, side, back = reference_cuts(g, cap, s, t, goal_of(1 - z[i], cap.scale))
            if side is not None:
                expected.append((i, frozenset(side), frozenset(back)))
        assert list(_violated_cuts(inst, x, z, range(len(pairs)))) == expected
    assert g.routes


@pytest.mark.parametrize("k, pairs", [(1, 726), (2, 17430)])
def test_one_min_cut_query_per_pair_at_the_canonical_point(monkeypatch, k, pairs):
    # H^(k) over K4 at m=4: check_feasible asks the min_cut bound in cutlp,
    # the one the bench tracer counts, once per pair in pair order, and the
    # copies share their 30 flows
    lc = build_layered(make_base("k4"), m=4, k=k)
    inst = layered_instance(lc)
    queries = []
    run = cutlp.min_cut
    monkeypatch.setattr(cutlp, "min_cut", lambda *args: queries.append(args[2:4]) or run(*args))
    calls = counted_flows(monkeypatch)
    assert check_feasible(inst, canonical_point(lc, "gap")) is None
    assert len(queries) == inst.num_pairs == pairs
    assert queries == inst.pairs
    assert len(calls) == 30


def test_cut_constraint_validation():
    inst = triangle_instance()
    with pytest.raises(InstanceError):
        CutConstraint(pair=0, side=frozenset({0, 2})).validate(inst)
    with pytest.raises(InstanceError):
        CutConstraint(pair=None, side=None, kind="nonneg_x", edge=9).validate(inst)
    with pytest.raises(InstanceError):
        CutConstraint(pair=0, side=None, kind="bogus").validate(inst)


def test_matrix_rank_exact():
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {1: Fraction(1), 2: Fraction(1)},
            {0: Fraction(1), 2: Fraction(-1)}]  # row0 - row1
    assert matrix_rank_exact(rows) == 2
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([{0: Fraction(0)}]) == 0


def test_matrix_rank_handles_fill_in():
    # elimination introduces columns outside a row's initial support
    rows = [{0: Fraction(1), 1: Fraction(1)},
            {0: Fraction(1), 2: Fraction(1)},
            {1: Fraction(1), 2: Fraction(-1)},
            {0: Fraction(2), 1: Fraction(1), 2: Fraction(1)}]
    assert matrix_rank_exact(rows) == 2
