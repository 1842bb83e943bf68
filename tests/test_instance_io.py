import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsf.decomposition import ForestDistribution, read_distribution, write_distribution
from pcsf.graph import Graph
from pcsf.instance import (FracSolution, InstanceError, PcsfInstance, make_base,
                           read_frac_solution, read_instance, write_frac_solution,
                           write_instance)
from pcsf.rational import INF, format_rational, parse_penalty, parse_rational


def small_instance():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    return PcsfInstance(g, {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(3)},
                        [(0, 2), (1, 2)], {0: Fraction(2, 3), 1: INF})


def test_rational_round_trip():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert format_rational(Fraction(3, 7)) == "3/7"
    assert format_rational(Fraction(4)) == "4"
    assert parse_penalty("inf") is INF
    assert format_rational(INF) == "inf"


def test_instance_validation():
    g = Graph(2, [(0, 1)])
    with pytest.raises(InstanceError):
        PcsfInstance(g, {}, [], {})  # edge without cost
    with pytest.raises(InstanceError):
        PcsfInstance(g, {0: -1}, [], {})
    with pytest.raises(InstanceError):
        PcsfInstance(g, {0: 1}, [(0, 0)], {0: 1})
    with pytest.raises(InstanceError):
        PcsfInstance(g, {0: 1}, [(0, 1), (1, 0)], {0: 1, 1: 1})  # duplicate pair


def test_objective_rejects_paying_infinite_pair():
    inst = small_instance()
    with pytest.raises(InstanceError):
        inst.objective({}, {1: Fraction(1, 2)})
    value = inst.objective({0: Fraction(1)}, {0: Fraction(1, 2)})
    assert value == 1 + Fraction(1, 3)


def test_text_round_trip(tmp_path):
    inst = small_instance()
    path = tmp_path / "inst.pcsf"
    write_instance(inst, path)
    back = read_instance(path)
    assert inst.structurally_equal(back)


def test_text_format_errors(tmp_path):
    path = tmp_path / "bad.pcsf"
    path.write_text("edge a b 1\n")
    with pytest.raises(InstanceError):
        read_instance(path)  # missing header
    path.write_text("pcsf 1\nedge a b\n")
    with pytest.raises(InstanceError):
        read_instance(path)


def test_frac_solution_round_trip(tmp_path):
    sol = FracSolution(x={0: Fraction(1, 3), 1: Fraction(0)}, z={0: Fraction(2, 5)})
    path = tmp_path / "point.sol"
    write_frac_solution(sol, path)
    back = read_frac_solution(path)
    assert back.x == sol.x and back.z == sol.z


def test_make_base_kinds():
    k4 = make_base("k4")
    assert (k4.num_nodes, k4.num_edges) == (4, 6)
    prism = make_base("prism")
    assert (prism.num_nodes, prism.num_edges) == (6, 9)
    k5 = make_base("complete(5)")
    assert (k5.num_nodes, k5.num_edges) == (5, 10)
    with pytest.raises(InstanceError):
        make_base("complete(3)")
    with pytest.raises(InstanceError):
        make_base("mystery")


def test_make_base_from_file_checks_regularity(tmp_path):
    path = tmp_path / "base.pcsf"
    path.write_text("pcsf 1\nedge a b 1\nedge b c 1\n")
    with pytest.raises(InstanceError):
        make_base("from_file", path=path)


ROUND_TRIP = settings(derandomize=True, max_examples=100, deadline=None)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=50)
nonnegative = st.fractions(min_value=0, max_value=20, max_denominator=50)


def round_trip(write, read, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.txt"
        write(value, path)
        return read(path)


@st.composite
def named_instances(draw):
    """Instances whose nodes are numbered in order of first appearance in the
    file (edges, then pairs), with rational costs and rational or infinite
    penalties, and distinct node names."""
    n = draw(st.integers(2, 6))
    nodes = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(nodes, nodes).filter(lambda e: e[0] != e[1]), max_size=8))
    pairs = draw(st.lists(st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=4, unique_by=frozenset))
    order = {}
    for u in [u for e in edges + pairs for u in e]:
        order.setdefault(u, len(order))
    names = draw(st.lists(st.text("abcxyz019_-.", min_size=1, max_size=4),
                          min_size=len(order), max_size=len(order), unique=True))
    costs = {e: draw(nonnegative) for e in range(len(edges))}
    pens = {i: draw(st.one_of(st.just(INF), nonnegative)) for i in range(len(pairs))}
    return PcsfInstance(Graph(len(order), [(order[u], order[v]) for u, v in edges]), costs,
                        [(order[s], order[t]) for s, t in pairs], pens, node_names=names)


@ROUND_TRIP
@given(named_instances())
def test_instance_text_round_trip_property(inst):
    back = round_trip(write_instance, read_instance, inst)
    assert inst.structurally_equal(back)
    assert back.node_names == inst.node_names


@ROUND_TRIP
@given(st.dictionaries(st.integers(0, 40), rationals),
       st.dictionaries(st.integers(0, 40), rationals))
def test_frac_solution_round_trip_property(x, z):
    back = round_trip(write_frac_solution, read_frac_solution, FracSolution(x=x, z=z))
    assert (back.x, back.z) == (x, z)


@ROUND_TRIP
@given(st.lists(st.tuples(st.frozensets(st.integers(0, 30), max_size=6), nonnegative),
                max_size=6))
def test_distribution_round_trip_property(entries):
    dist = ForestDistribution(entries)
    back = round_trip(write_distribution, read_distribution, dist)
    assert back.entries == dist.entries
