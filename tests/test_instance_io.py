from fractions import Fraction

import pytest

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
