"""PCST gadget instance: a basic feasible point with every coordinate <= 1/3.

k gadgets of ten nodes each are wired into a ring between a root r and a
hub s.  Each gadget exposes four external edges: u1 to s, u8 to r, and a
ring edge from its u9 to the next gadget's u4.  The canonical point puts
2/k on the five "wavy" edges of each gadget, 1/k on every other edge,
z = 0 on the (s, r) pair and z = 1 - 4/k on every other pair.
"""

from __future__ import annotations

from fractions import Fraction

from .cutlp import CutConstraint
from .graph import Graph
from .instance import InstanceError, PcsfInstance, FracSolution

WAVY = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
STRAIGHT = [(2, 3), (1, 4), (2, 5), (3, 5), (6, 7), (6, 10), (7, 10), (8, 9)]


def _gadget_node(gadget: int, i: int) -> int:
    """Global id of u_i (1-based) in gadget ``gadget`` (0-based)."""
    return 2 + 10 * gadget + (i - 1)


def pcst_gadget_instance(k: int):
    """Instance and canonical fractional point; returns (instance, point)."""
    if k < 4:
        raise InstanceError("gadget instance requires k >= 4")
    root, hub = 0, 1
    num_nodes = 2 + 10 * k
    names = ["r", "s"] + [f"g{j}u{i}" for j in range(k) for i in range(1, 11)]

    # 16 edges per gadget, the wavy ones first: ids 16j..16j+4 are wavy
    edges = []
    for j in range(k):
        edges += [(_gadget_node(j, a), _gadget_node(j, b)) for a, b in WAVY + STRAIGHT]
        edges += [(_gadget_node(j, 1), hub), (_gadget_node(j, 8), root),
                  (_gadget_node(j, 9), _gadget_node((j + 1) % k, 4))]
    g = Graph(num_nodes, edges)
    wavy_edges = {16 * j + w for j in range(k) for w in range(len(WAVY))}

    costs = {eid: Fraction(1) for eid in range(g.num_edges)}
    # a pair (v, r) for every node v != r; any positive penalties work here
    pairs = [(v, root) for v in range(1, num_nodes)]
    penalties = {i: Fraction(1) for i in range(len(pairs))}
    inst = PcsfInstance(g, costs, pairs, penalties, node_names=names)

    x = {eid: (Fraction(2, k) if eid in wavy_edges else Fraction(1, k))
         for eid in range(g.num_edges)}
    z_hub = Fraction(0)
    z_gadget = 1 - Fraction(4, k)
    z = {i: (z_hub if pairs[i][0] == hub else z_gadget) for i in range(len(pairs))}
    point = FracSolution(x=x, z=z)
    return inst, point


def gadget_tight_family(inst: PcsfInstance, k: int):
    """The tight-constraint certificate for the gadget point.

    Per gadget: the ten singleton node cuts, the whole-gadget cut paired
    with each z_{u_i}, the five wavy-pair cuts, and the {u1..u4} and
    {u7..u10} cuts.  Globally: the cut {r} paired with z_s, and z_s >= 0.
    """
    if not inst.structurally_equal(pcst_gadget_instance(k)[0]):
        raise InstanceError("instance was not produced by pcst_gadget_instance(k)")
    root, hub = 0, 1

    def pair_of(v):
        return v - 1  # pairs are (v, r) in node order starting at v=1

    family = []
    for j in range(k):
        nodes = [_gadget_node(j, i) for i in range(1, 11)]
        # singleton cuts, one per node
        for i in range(1, 11):
            v = _gadget_node(j, i)
            family.append(CutConstraint(pair=pair_of(v), side=frozenset({v})))
        # whole-gadget cut paired with each z
        whole = frozenset(nodes)
        for i in range(1, 11):
            family.append(CutConstraint(pair=pair_of(_gadget_node(j, i)), side=whole))
        # wavy-pair cuts with the odd-index z
        for i in (1, 3, 5, 7, 9):
            side = frozenset({_gadget_node(j, i), _gadget_node(j, i + 1)})
            family.append(CutConstraint(pair=pair_of(_gadget_node(j, i)), side=side))
        family.append(CutConstraint(pair=pair_of(_gadget_node(j, 1)),
                                    side=frozenset(_gadget_node(j, i) for i in (1, 2, 3, 4))))
        family.append(CutConstraint(pair=pair_of(_gadget_node(j, 7)),
                                    side=frozenset(_gadget_node(j, i) for i in (7, 8, 9, 10))))
    # x(delta(r)) + z_s = 1, and z_s = 0
    family.append(CutConstraint(pair=pair_of(hub), side=frozenset({root})))
    family.append(CutConstraint(pair=pair_of(hub), side=None, kind="nonneg_z"))
    return family
