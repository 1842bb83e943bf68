"""The benchmark's four workloads.

Each workload builds its inputs from a seed (``build``) and runs one
result at a time against an exact reference (``run_one`` returns True only
when the result matches).  The program under test is reached only through
the ``pcsf`` namespace handed in by the runner, so the tracer's patched
bindings are the ones that get called.

Why these four (see NOTES.md for the full table):

- ``cutlp_k4``: the simplex normal path and the cutting-plane round loop
  do most of the work; min-cut separation does little.
- ``separation_k4d1``: almost all min-cut; no LP is solved.
- ``witness_k4m3``: column generation, exact pricing and the simplex
  fallback to the exact Bland tableau.
- ``small_batch``: many tiny LPs, branch and bound, the forest enumerator;
  per-call fixed cost dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# exact references
CUTLP_K4_VALUE = Fraction(12)
WITNESS_ALPHA = Fraction(3, 2)
WITNESS_LP_VALUE = Fraction(15, 16)

# small_batch: stream length generated in set-up (the runner cycles through
# it if a fast program finishes it within one run), instances per timed unit
SMALL_BATCH_ITEMS = 1000
SMALL_BATCH_UNIT = 25

# small_batch seeds: tune a change on the first, confirm it on the second
SMALL_BATCH_TUNING_SEED = 1
SMALL_BATCH_HELD_OUT_SEED = 20261017


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable       # (pcsf, seed) -> list of inputs
    run_one: Callable     # (pcsf, input) -> bool: result equals its reference
    unit: int             # results per timed unit (wall_s, cpu_s)
    trace_results: int    # results in the traced run


def _layered(pcsf, m, k):
    lc = pcsf.layered.build_layered(pcsf.instance.make_base("k4"), m=m, k=k)
    return pcsf.layered.layered_instance(lc), pcsf.layered.canonical_point(lc, "gap")


def build_cutlp_k4(pcsf, seed):
    inst, _ = _layered(pcsf, m=3, k=0)
    return [inst]


def run_cutlp_k4(pcsf, inst):
    return pcsf.cutlp.solve_lp(inst).value == CUTLP_K4_VALUE


def build_separation_k4d1(pcsf, seed):
    return [_layered(pcsf, m=4, k=1)]


def run_separation_k4d1(pcsf, item):
    inst, point = item
    return pcsf.cutlp.check_feasible(inst, point) is None


def build_witness_k4m3(pcsf, seed):
    return [_layered(pcsf, m=3, k=0)]


def run_witness_k4m3(pcsf, item):
    """min_alpha (column generation), its dual witness instance, and the
    witness's LP and IP values."""
    inst, point = item
    alpha, _, witness = pcsf.decomposition.min_alpha(inst, point, method="cg")
    winst = pcsf.decomposition.witness_costs_from_dual(witness)
    lp = pcsf.cutlp.solve_lp(winst).value
    ip = pcsf.exact.solve_ip(winst).objective
    return alpha == WITNESS_ALPHA and lp == WITNESS_LP_VALUE and ip == alpha


def random_instance(pcsf, rng, max_edges, allow_inf=True):
    """The acceptance suite's random instance generator: a random tree on
    3..6 nodes plus extra edges, costs 0..5, 1..3 pairs with penalties
    1..7 (infinite with probability 1/4 when allowed)."""
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
    g = pcsf.graph.Graph(n, edges)
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
            pens[i] = pcsf.rational.INF
        else:
            pens[i] = Fraction(rng.randint(1, 7))
    return pcsf.instance.PcsfInstance(g, costs, pairs, pens)


def build_small_batch(pcsf, seed):
    rng = random.Random(seed)
    return [(random_instance(pcsf, rng, max_edges=14),
             random_instance(pcsf, rng, max_edges=12, allow_inf=False))
            for _ in range(SMALL_BATCH_ITEMS)]


def run_small_batch(pcsf, item):
    """Branch and bound against enumeration on the first instance; the LP
    point's min_alpha by column generation against enumeration on the
    second."""
    ip_inst, cg_inst = item
    best, _ = pcsf.exact.enumerate_ip(ip_inst)
    ip_ok = pcsf.exact.solve_ip(ip_inst).objective == best
    point = pcsf.cutlp.solve_lp(cg_inst).solution
    a_cg, _, _ = pcsf.decomposition.min_alpha(cg_inst, point, method="cg")
    a_en, _, _ = pcsf.decomposition.min_alpha(cg_inst, point, method="enumerate")
    return ip_ok and a_cg == a_en


WORKLOADS = {w.name: w for w in (
    Workload("cutlp_k4", build_cutlp_k4, run_cutlp_k4, unit=1, trace_results=1),
    Workload("separation_k4d1", build_separation_k4d1, run_separation_k4d1,
             unit=1, trace_results=1),
    Workload("witness_k4m3", build_witness_k4m3, run_witness_k4m3,
             unit=1, trace_results=1),
    Workload("small_batch", build_small_batch, run_small_batch,
             unit=SMALL_BATCH_UNIT, trace_results=4 * SMALL_BATCH_UNIT),
)}
