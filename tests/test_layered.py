from fractions import Fraction

import pytest

from pcsf.graph import Graph
from pcsf.instance import InstanceError, ScaleCapError, make_base
from pcsf.layered import build_layered, canonical_point, layered_instance, layered_pairs


def test_k0_shape():
    lc = build_layered(make_base("k4"), m=4, k=0)
    assert lc.graph.num_nodes == 4 + 4 * 6  # branch + subdivision
    assert lc.graph.num_edges == 5 * 6      # each base edge becomes m+1 edges
    assert len(lc.copies) == 1
    assert len(layered_pairs(lc)) == 6 + 24


def test_k1_shape():
    lc = build_layered(make_base("k4"), m=4, k=1)
    assert lc.graph.num_nodes == 676
    assert lc.graph.num_edges == 750
    assert len(lc.copies) == 25
    assert len(layered_pairs(lc)) == 726


def test_degree2_nodes_are_leaf_level_subdivisions():
    lc = build_layered(make_base("k4"), m=4, k=1)
    deg2 = lc.degree2_nodes()
    assert len(deg2) == 24 * 24
    assert all(lc.graph.degree(v) == 2 for v in deg2)
    level1 = {v for copy in lc.copies if copy.level == 1 for v in copy.subdivision_nodes}
    assert set(deg2) == level1
    assert level1 == {v for v in range(lc.graph.num_nodes) if lc.graph.degree(v) == 2}
    # level-0 subdivision nodes got a copy attached, so their degree is 3 + 2
    for copy in lc.copies:
        if copy.level == 0:
            for v in copy.subdivision_nodes:
                assert lc.graph.degree(v) == 5


def test_path_groups_name_their_edges_in_path_order():
    base = make_base("k4")
    lc = build_layered(base, m=2, k=1)
    g = lc.graph
    for copy in lc.copies:
        assert [grp.base_edge for grp in copy.groups] == list(range(base.num_edges))
        for grp in copy.groups:
            a, b = base.edges[grp.base_edge]
            chain = [copy.branch_nodes[a], *grp.nodes, copy.branch_nodes[b]]
            assert [g.edges[eid] for eid in grp.edges] == list(zip(chain, chain[1:]))
        first = copy.edge_ids[0]
        assert copy.edge_ids == list(range(first, first + 3 * base.num_edges))
    assert sorted(eid for copy in lc.copies for eid in copy.edge_ids) == list(range(g.num_edges))


def test_copy_of_root():
    lc = build_layered(make_base("k4"), m=4, k=1)
    assert lc.copy_of_root(lc.r0).id == 0
    child = lc.copies[1]
    assert lc.copy_of_root(child.root) is child
    assert child.root in lc.copies[0].subdivision_nodes  # attachment point
    assert lc.copy_of_root(lc.copies[0].branch_nodes[1]) is None


def test_unit_instance_penalties():
    lc = build_layered(make_base("k4"), m=4, k=0)
    inst = layered_instance(lc)
    n_same = len(lc.same_copy_pairs())
    for i in range(inst.num_pairs):
        if i < n_same:
            assert inst.is_infinite(i)
        else:
            assert inst.penalties[i] == 1
    assert all(inst.costs[e] == 1 for e in range(inst.graph.num_edges))


def test_canonical_points():
    lc = build_layered(make_base("k4"), m=4, k=0)
    gap = canonical_point(lc, "gap")
    assert set(gap.x.values()) == {Fraction(1, 3)}
    assert set(gap.z.values()) == {Fraction(0), Fraction(1, 3)}
    lmp = canonical_point(lc, "lmp")
    assert set(lmp.z.values()) == {Fraction(0), Fraction(1, 3)}  # 1 - 2/3

    k5 = build_layered(make_base("complete(5)"), m=2, k=0)
    lmp5 = canonical_point(k5, "lmp")
    assert set(lmp5.x.values()) == {Fraction(1, 4)}
    assert set(lmp5.z.values()) == {Fraction(0), Fraction(1, 2)}
    with pytest.raises(InstanceError):
        canonical_point(k5, "gap")  # gap point needs a 3-regular base


def test_node_cap():
    # 34 + 30*33 + 900*33 + 27000*33 = 921,724 nodes, past the 500,000 cap
    with pytest.raises(ScaleCapError):
        build_layered(make_base("k4"), m=5, k=3)


def test_bad_params():
    with pytest.raises(InstanceError):
        build_layered(make_base("k4"), m=0, k=0)
    with pytest.raises(InstanceError):
        build_layered(make_base("k4"), m=4, k=-1)


def test_base_without_nodes_or_irregular():
    with pytest.raises(InstanceError, match="base graph has no nodes"):
        build_layered(Graph(0, []), m=1, k=0)
    with pytest.raises(InstanceError, match="node 1 has degree 2, expected 1"):
        build_layered(Graph(3, [(0, 1), (1, 2)]), m=1, k=0)
