"""Cutting-plane solver for the cut LP, feasibility and vertex certificates.

The LP min c.x + pi.z subject to x(delta(S)) + z_i >= 1 for every cut S
separating pair i is solved by repeated exact LP solves with min-cut
separation; each violated pair adds its minimal and its maximal s-side.
Infinite-penalty pairs have their z fixed to 0.  Vertex verification
checks a family of tight constraints and certifies uniqueness by an
exact rank computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import simplex
from .graph import component_labels, cut_edges, min_cut, scale_capacities
from .instance import FracSolution, InstanceError, PcsfInstance


class LpInfeasibleError(RuntimeError):
    """An infinite-penalty pair cannot be connected at all."""


@dataclass(frozen=True)
class CutConstraint:
    """x(delta(side)) + z_pair >= 1, or a nonnegativity constraint.

    kind 'cut' requires side to contain exactly one endpoint of the pair;
    'nonneg_x' is x_edge >= 0 and 'nonneg_z' is z_pair >= 0.
    """

    pair: int | None
    side: frozenset | None
    kind: str = "cut"
    edge: int | None = None

    def validate(self, inst: PcsfInstance):
        if self.kind not in ("cut", "nonneg_x", "nonneg_z"):
            raise InstanceError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "nonneg_x":
            if not (0 <= self.edge < inst.graph.num_edges):
                raise InstanceError(f"unknown edge {self.edge}")
        elif not (0 <= self.pair < inst.num_pairs):
            raise InstanceError(f"unknown pair {self.pair}")
        elif self.kind == "cut":
            s, t = inst.pairs[self.pair]
            if (s in self.side) == (t in self.side):
                raise InstanceError(f"cut side does not separate pair {self.pair}")


@dataclass
class LpResult:
    solution: FracSolution
    value: Fraction
    active_cuts: list
    iterations: int


def _violated_cuts(inst: PcsfInstance, x, z, pairs):
    """Violated cuts by exact min cut, one ``(pair, side, back)`` per
    violated pair of ``pairs`` in order: side and back are the minimal and
    the maximal s-side of the pair's minimum cuts, both holding its first
    endpoint with x(delta(.)) + z_i < 1.  x is scaled once for all the
    pairs, and a pair's flow stops once it reaches its goal, 1 - z_i in
    the same units rounded up, which proves no such side."""
    g = inst.graph
    cap = scale_capacities(g, x)
    scale = cap.scale
    for i in pairs:
        s, t = inst.pairs[i]
        num, den = z.get(i, 0).as_integer_ratio()
        goal = -((num - den) * scale // den)  # the least int >= (1 - z_i) * scale
        _, side, back = min_cut(g, cap, s, t, goal)
        if side is not None:
            yield i, frozenset(side), frozenset(back)


def check_feasible(inst: PcsfInstance, point: FracSolution):
    """None when feasible, otherwise the first violated constraint:
    nonnegativity first, then cuts in pair-index order."""
    # the least negative id, edges first; a sign read off the numerator
    # costs less than a Fraction comparison
    edges, pairs = range(inst.graph.num_edges), range(inst.num_pairs)
    eid = min((e for e, v in point.x.items() if v.as_integer_ratio()[0] < 0 and e in edges),
              default=None)
    if eid is not None:
        return CutConstraint(pair=None, side=None, kind="nonneg_x", edge=eid)
    i = min((i for i, v in point.z.items() if v.as_integer_ratio()[0] < 0 and i in pairs),
            default=None)
    if i is not None:
        return CutConstraint(pair=i, side=None, kind="nonneg_z")
    for i, side, _ in _violated_cuts(inst, point.x, point.z, pairs):
        return CutConstraint(pair=i, side=side)
    return None


def solve_cut_lp(inst: PcsfInstance, pool=None, forced_in=frozenset(),
                 forced_out=frozenset()):
    """Cutting-plane engine; also used with edge restrictions by branch
    and bound.  Forced-in edges count as permanently bought (capacity 1,
    cost already paid by the caller), forced-out edges as deleted.

    Each round adds every violated pair's minimal s-side and its back cut,
    the maximal one: two minimum cuts from one flow, violated by the same
    amount.

    Returns an LpResult whose value covers only the free variables.
    """
    g = inst.graph
    forced_in = frozenset(forced_in)
    forced_out = frozenset(forced_out)

    labels = component_labels(g, forced_in)
    free_edges = [e for e in range(g.num_edges)
                  if e not in forced_in and e not in forced_out]
    auto = [labels[s] == labels[t] for (s, t) in inst.pairs]
    open_pairs = [i for i in range(inst.num_pairs) if not auto[i]]
    z_pairs = [i for i in open_pairs if not inst.is_infinite(i)]

    # an infinite-penalty pair that cannot be connected at all is a hard failure
    reach = component_labels(g, set(free_edges) | forced_in)
    for i, (s, t) in enumerate(inst.pairs):
        if inst.is_infinite(i) and reach[s] != reach[t]:
            raise LpInfeasibleError(f"infinite-penalty pair {i} is disconnected")

    xcol = {e: j for j, e in enumerate(free_edges)}
    zcol = {i: len(free_edges) + j for j, i in enumerate(z_pairs)}
    num_vars = len(free_edges) + len(z_pairs)
    cost = [inst.costs[e] for e in free_edges] + [inst.penalties[i] for i in z_pairs]

    # working set, in insertion order: (pair, side) -> (row, rhs) of each
    # cut that the forced-in edges and the auto-connected pairs leave open,
    # with int coefficients
    cuts = {}

    def add_cut(key):
        i, side = key
        if key in cuts or auto[i]:
            return
        crossing = cut_edges(g, side)
        b = 1 - len(crossing & forced_in)
        if b > 0:
            row = dict.fromkeys(sorted(xcol[e] for e in crossing if e in xcol), 1)
            if i in zcol:
                row[zcol[i]] = 1
            cuts[key] = (row, b)

    for key in pool or ():
        add_cut(key)

    # the last certified basis, carried into the next round's dual simplex:
    # its basic structural columns, and the cuts whose slack is nonbasic;
    # every other cut (a new one included) starts with its slack basic
    basic_cols, bound = (), set()
    iterations = 0
    while True:
        live = list(cuts)
        rows = [row for row, _ in cuts.values()]
        rhs = [b for _, b in cuts.values()]
        start = (basic_cols, [r for r, key in enumerate(live) if key not in bound])
        sol = simplex.solve_min(num_vars, cost, rows, [">="] * len(rows), rhs, start=start)
        iterations += 1
        if sol.basis is None:  # the Bland tableau decided: restart from slacks
            basic_cols, bound = (), set()
        else:
            basic_cols = sol.basis[0]
            slack_rows = set(sol.basis[1])
            bound = {key for r, key in enumerate(live) if r not in slack_rows}
        x = {e: Fraction(0) for e in range(g.num_edges)}
        for e in forced_in:
            x[e] = Fraction(1)
        for e, j in xcol.items():
            x[e] = sol.x[j]
        z = {i: Fraction(0) for i in range(inst.num_pairs)}
        for i, j in zcol.items():
            z[i] = sol.x[j]

        # cuts whose rows are tight at this optimum, over X = d * sol.x in ints
        d = lcm(*(v.denominator for v in sol.x))
        X = [v.numerator * (d // v.denominator) for v in sol.x]
        tight = [key for key, (row, b) in cuts.items() if sum(X[j] for j in row) == b * d]
        violated = list(_violated_cuts(inst, x, z, open_pairs))
        if not violated:
            if pool is not None:
                pool[:] = tight
            return LpResult(solution=FracSolution(x=x, z=z), value=sol.objective,
                            active_cuts=[CutConstraint(pair=i, side=side)
                                         for (i, side) in tight],
                            iterations=iterations)
        # drop cuts strictly slack at the optimum: the optimal duals live
        # on tight rows, so the relaxed LP keeps the same value and the
        # cutting-plane objective stays monotone; dropped cuts may return
        # through separation later.  A dropped cut's slack was positive,
        # hence basic, so the carried basis stays square
        cuts = {key: cuts[key] for key in tight}
        for i, side, back in violated:
            add_cut((i, side))
            add_cut((i, back))


def solve_lp(inst: PcsfInstance) -> LpResult:
    """Optimal value of the cut LP over the full exponential cut family."""
    return solve_cut_lp(inst)


def matrix_rank_exact(rows) -> int:
    """Rank over the rationals by Gaussian elimination on sparse dict rows."""
    work = [dict(r) for r in rows]
    rank = 0
    pivots = {}  # col -> reduced row
    for row in work:
        r = {c: Fraction(v) for c, v in row.items() if v}
        while True:
            # pivot rows are normalized with their leading (smallest) column,
            # so eliminating the smallest shared column only introduces
            # larger ones; repeat until no pivot column remains in the row
            shared = r.keys() & pivots.keys()
            if not shared:
                break
            col = min(shared)
            f = r[col]
            for c, v in pivots[col].items():
                nv = r.get(c, Fraction(0)) - f * v
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        r = {c: v for c, v in r.items() if v}
        if not r:
            continue
        col = min(r)
        inv = Fraction(1) / r[col]
        r = {c: v * inv for c, v in r.items()}
        pivots[col] = r
        rank += 1
    return rank


@dataclass
class VertexReport:
    is_feasible: bool
    all_tight: bool
    unique: bool
    rank: int
    dimension: int
    failures: list = field(default_factory=list)


def verify_vertex(inst: PcsfInstance, point: FracSolution, family) -> VertexReport:
    """Certify that ``point`` is an extreme point of the cut LP.

    Checks feasibility by full separation, exact tightness of every family
    member, and that the tight rows span the whole (x, z) space: rank
    equal to |E| + |pairs| makes the point the unique solution of the
    tight system, hence a vertex.
    """
    for c in family:
        c.validate(inst)
    failures = []
    violated = check_feasible(inst, point)
    feasible = violated is None
    if not feasible:
        failures.append(("infeasible", violated))

    m = inst.graph.num_edges
    all_tight = True
    rows = []
    for c in family:
        if c.kind == "cut":
            crossing = sorted(cut_edges(inst.graph, c.side))
            value = sum(point.x.get(e, 0) for e in crossing) + point.z.get(c.pair, 0)
            tight = value == 1
            row = dict.fromkeys(crossing, Fraction(1))
            row[m + c.pair] = Fraction(1)
        elif c.kind == "nonneg_x":
            tight = point.x.get(c.edge, 0) == 0
            row = {c.edge: Fraction(1)}
        else:
            tight = point.z.get(c.pair, 0) == 0
            row = {m + c.pair: Fraction(1)}
        if not tight:
            all_tight = False
            failures.append(("not_tight", c))
        rows.append(row)

    dimension = m + inst.num_pairs
    rank = matrix_rank_exact(rows)
    unique = all_tight and rank == dimension
    return VertexReport(is_feasible=feasible, all_tight=all_tight, unique=unique,
                        rank=rank, dimension=dimension, failures=failures)
