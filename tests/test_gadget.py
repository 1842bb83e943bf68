from fractions import Fraction

import pytest

from pcsf.cutlp import check_feasible, verify_vertex
from pcsf.gadget import gadget_tight_family, pcst_gadget_instance
from pcsf.instance import InstanceError


def test_shape_k6():
    inst, point = pcst_gadget_instance(6)
    assert inst.graph.num_nodes == 62
    assert inst.graph.num_edges == 96
    assert inst.num_pairs == 61
    assert len(point.x) == 96 and len(point.z) == 61


def test_point_values_k6():
    inst, point = pcst_gadget_instance(6)
    assert set(point.x.values()) == {Fraction(1, 6), Fraction(1, 3)}
    assert sum(1 for v in point.x.values() if v == Fraction(1, 3)) == 30  # 5 per gadget
    assert set(point.z.values()) == {Fraction(0), Fraction(1, 3)}
    assert max(list(point.x.values()) + list(point.z.values())) == Fraction(1, 3)


def test_wavy_edges_are_the_first_five_of_each_gadget():
    inst, point = pcst_gadget_instance(6)
    wavy = {16 * j + w for j in range(6) for w in range(5)}
    assert point.x == {eid: Fraction(2 if eid in wavy else 1, 6) for eid in range(96)}


def test_point_feasible():
    inst, point = pcst_gadget_instance(6)
    assert check_feasible(inst, point) is None


def test_family_certifies_unique_vertex():
    inst, point = pcst_gadget_instance(6)
    family = gadget_tight_family(inst, 6)
    assert len(family) == 27 * 6 + 2
    report = verify_vertex(inst, point, family)
    assert report.is_feasible and report.all_tight and report.unique
    assert report.rank == report.dimension == 96 + 61


@pytest.mark.parametrize("k", [4, 5, 8])
def test_vertex_for_other_k(k):
    inst, point = pcst_gadget_instance(k)
    report = verify_vertex(inst, point, gadget_tight_family(inst, k))
    assert report.unique
    assert report.rank == inst.graph.num_edges + inst.num_pairs


def test_family_rejects_foreign_instance():
    inst, _ = pcst_gadget_instance(6)
    with pytest.raises(InstanceError):
        gadget_tight_family(inst, 5)


def test_small_k_rejected():
    with pytest.raises(InstanceError):
        pcst_gadget_instance(3)
