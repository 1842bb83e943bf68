"""Command-line front end: generation, LP/IP solving, rounding,
decomposition, bound curves, and gap reports with JSON/CSV outputs.

Exit codes: 0 success, 2 validation error, 3 scale cap exceeded,
4 infeasible, 5 a rounding result broke its proven bound.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import decomposition as dec
from .cutlp import (CutConstraint, LpInfeasibleError, check_feasible, solve_lp,
                    verify_vertex)
from .exact import DEFAULT_IP_EDGE_CAP, gap, solve_ip
from .gadget import gadget_tight_family, pcst_gadget_instance
from .instance import (InstanceError, PcsfInstance, ScaleCapError, make_base,
                       read_frac_solution, read_instance, write_frac_solution,
                       write_instance)
from .layered import build_layered, canonical_point, layered_instance
from .rational import format_rational, parse_field, parse_rational, rational_json, read_records
from .rounding import (RoundingBoundError, best_threshold_round, threshold_round,
                       two_value_gamma, two_value_round)
from .simplex import LpInfeasible

# exception type -> (exit code, error type on stderr), matched in this order;
# InstanceError and GraphError are ValueErrors
EXIT_CODES = {
    ScaleCapError: (3, "scale_cap"),
    LpInfeasibleError: (4, "infeasible"),
    LpInfeasible: (4, "infeasible"),
    dec.DecompositionError: (4, "infeasible"),
    RoundingBoundError: (5, "guarantee"),
    ValueError: (2, "validation"),
    OSError: (2, "validation"),
}


def _emit(doc):
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _solution_doc(sol):
    doc = {
        "forest": sorted(sol.forest),
        "disconnected": sorted(sol.disconnected),
        "cost": rational_json(sol.cost),
        "penalty": rational_json(sol.penalty),
    }
    doc["objective"] = rational_json(sol.objective) if sol.objective is not None else None
    return doc


# --- gen ----------------------------------------------------------------

def _cmd_gen(args):
    if args.what == "layered":
        lc = _layered_from_args(args)
        inst = layered_instance(lc)
        # the point is built first: a mode the base does not allow writes no file
        point = canonical_point(lc, args.point_mode) if args.point else None
        _write_inst(inst, args.output)
        if point is not None:
            write_frac_solution(point, args.point)
        _emit({"nodes": lc.graph.num_nodes, "edges": lc.graph.num_edges,
               "pairs": inst.num_pairs, "n": lc.n, "l": lc.l, "m": lc.m, "k": lc.k})
    elif args.what == "gadget":
        inst, point = pcst_gadget_instance(args.k)
        _write_inst(inst, args.output)
        if args.point:
            write_frac_solution(point, args.point)
        _emit({"nodes": inst.graph.num_nodes, "edges": inst.graph.num_edges,
               "pairs": inst.num_pairs, "k": args.k})
    else:  # base
        base = make_base(args.base, path=args.base_file)
        inst = PcsfInstance(base, {e: Fraction(1) for e in range(base.num_edges)}, [], {})
        _write_inst(inst, args.output)
        _emit({"nodes": base.num_nodes, "edges": base.num_edges,
               "degree": base.degree(0)})
    return 0


def _write_inst(inst, path):
    if path is not None:
        write_instance(inst, path)


# --- lp -----------------------------------------------------------------

def read_family(path, inst):
    """Constraint family file: `cut <pair> <node> ...`, `nonneg_x <edge>`,
    `nonneg_z <pair>` lines; nodes given by name."""
    name_to_id = {n: i for i, n in enumerate(inst.node_names)}
    family = []
    for where, fields in read_records(path):
        kind, rest = fields[0], fields[1:]
        if kind == "cut" and len(rest) >= 2:
            unknown = [tok for tok in rest[1:] if tok not in name_to_id]
            if unknown:
                raise InstanceError(f"{where}: unknown node {unknown[0]!r}")
            side = frozenset(name_to_id[tok] for tok in rest[1:])
            family.append(CutConstraint(pair=parse_field(where, int, rest[0]), side=side))
        elif kind == "nonneg_x" and len(rest) == 1:
            family.append(CutConstraint(pair=None, side=None, kind=kind,
                                        edge=parse_field(where, int, rest[0])))
        elif kind == "nonneg_z" and len(rest) == 1:
            family.append(CutConstraint(pair=parse_field(where, int, rest[0]), side=None,
                                        kind=kind))
        else:
            raise InstanceError(f"{where}: malformed line: {' '.join(fields)!r}")
    return family


def _instance_and_point(args):
    """The instance file and its point file; every point id must name an
    edge or a pair of the instance."""
    inst = read_instance(args.instance)
    point = read_frac_solution(args.point)
    unknown = ([f"x {e}" for e in point.x if not 0 <= e < inst.graph.num_edges]
               + [f"z {i}" for i in point.z if not 0 <= i < inst.num_pairs])
    if unknown:
        raise InstanceError(f"{args.point}: ids outside the instance: {', '.join(unknown)}")
    return inst, point


def _cmd_lp(args):
    if args.what == "solve":
        inst = read_instance(args.instance)
        res = solve_lp(inst)
        if args.output:
            write_frac_solution(res.solution, args.output)
        _emit({"value": rational_json(res.value), "iterations": res.iterations,
               "active_cuts": len(res.active_cuts)})
        return 0
    if args.what == "check":
        inst, point = _instance_and_point(args)
        violated = check_feasible(inst, point)
        doc = {"feasible": violated is None}
        if violated is not None:
            side = None if violated.side is None else [inst.node_names[v]
                                                       for v in sorted(violated.side)]
            doc["violated"] = {"kind": violated.kind, "pair": violated.pair,
                               "side": side, "edge": violated.edge}
        _emit(doc)
        return 0
    # verify-vertex
    if args.gadget_k is not None:
        inst, point = pcst_gadget_instance(args.gadget_k)
        family = gadget_tight_family(inst, args.gadget_k)
    else:
        if None in (args.instance, args.point, args.family):
            raise InstanceError("give --gadget-k, or an instance, --point and --family")
        inst, point = _instance_and_point(args)
        family = read_family(args.family, inst)
    report = verify_vertex(inst, point, family)
    # missing ids are 0, as check_feasible reads them
    max_coord = max([point.x.get(eid, Fraction(0)) for eid in range(inst.graph.num_edges)]
                    + [point.z.get(i, Fraction(0)) for i in range(inst.num_pairs)],
                    default=Fraction(0))
    _emit({"feasible": report.is_feasible, "all_tight": report.all_tight,
           "unique": report.unique, "rank": report.rank,
           "dimension": report.dimension,
           "max_coord": rational_json(max_coord),
           "failures": len(report.failures)})
    return 0


# --- ip -----------------------------------------------------------------

def _cmd_ip(args):
    inst = read_instance(args.instance)
    sol = solve_ip(inst, edge_cap=args.edge_cap)
    _emit(_solution_doc(sol))
    return 0


# --- round --------------------------------------------------------------

def _cmd_round(args):
    inst, point = _instance_and_point(args)
    base_value = inst.objective(point.x, point.z)
    if args.method == "two-value":
        p = parse_rational(args.p)
        sol = two_value_round(inst, point, p)
        extra = {"p": rational_json(p), "gamma": rational_json(two_value_gamma(point))}
    else:
        if args.method == "threshold":
            theta = parse_rational(args.theta)
            sol = threshold_round(inst, point, theta)
        else:
            sol, theta = best_threshold_round(inst, point)
        extra = {"theta": rational_json(theta)}
    doc = _solution_doc(sol)
    doc.update(extra)
    doc["ratio_bound"] = rational_json(sol.ratio_bound)
    doc["point_value"] = rational_json(base_value)
    if base_value > 0:
        doc["observed_ratio"] = rational_json(sol.objective / base_value)
    _emit(doc)
    return 0


# --- decompose ----------------------------------------------------------

def _layered_from_args(args):
    return build_layered(make_base(args.base, path=args.base_file), args.m, args.k)


def _cmd_decompose(args):
    if args.what in ("min-alpha", "min-beta"):
        inst, point = _instance_and_point(args)
        fn = dec.min_alpha if args.what == "min-alpha" else dec.min_beta
        value, dist, witness = fn(inst, point, method=args.method, edge_cap=args.edge_cap)
        if args.witness:  # built first: a witness that cannot be built writes nothing
            mode = "gap" if args.what == "min-alpha" else "lmp"
            winst = dec.witness_costs_from_dual(witness, mode=mode,
                                                beta=value if mode == "lmp" else None)
        if args.output:
            dec.write_distribution(dist, args.output)
        if args.witness:
            write_instance(winst, args.witness)
        key = "alpha_star" if args.what == "min-alpha" else "beta_star"
        _emit({key: rational_json(value), "support": len(dist.entries),
               "witness_written": bool(args.witness)})
        return 0
    if args.what == "explicit":
        lc = _layered_from_args(args)
        dist = dec.explicit_gap_distribution(lc, parse_rational(args.alpha))
        if args.output:
            dec.write_distribution(dist, args.output)
        _emit({"support": len(dist.entries), "alpha": rational_json(parse_rational(args.alpha))})
        return 0
    if args.what == "verify":
        flag = "alpha" if args.mode == "gap" else "beta"
        if getattr(args, flag) is None:
            raise InstanceError(f"decompose verify in {args.mode} mode needs --{flag}")
        lc = _layered_from_args(args)
        dist = dec.read_distribution(args.dist)
        report = dec.verify_distribution(lc, dist, parse_rational(getattr(args, flag)),
                                         args.mode)
        _emit(report.to_json())
        return 0 if report.passes else 4
    # trace
    lc = _layered_from_args(args)
    dist = dec.read_distribution(args.dist)
    steps = dec.chain_trace(lc, dist, parse_rational(args.alpha))
    _emit({"steps": [{"node": s["node"], "prob": rational_json(s["prob"]),
                      "bound": rational_json(s["bound"]), "ok": s["ok"]}
                     for s in steps],
           "all_ok": all(s["ok"] for s in steps)})
    return 0


# --- bounds -------------------------------------------------------------

def _parse_range(text):
    if ":" in text:
        lo, hi = text.split(":", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise InstanceError(f"empty range {text!r}: lo is above hi")
        return values
    return [int(text)]


def export_plot_data(rows, path):
    """CSV with columns (n, k, l, bound, alpha_star, beta_star, ratio)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "l", "bound", "alpha_star", "beta_star", "ratio"])
        for row in rows:
            writer.writerow([row.get("n", ""), row.get("k", ""), row.get("l", ""),
                             row.get("bound", ""), row.get("alpha_star", ""),
                             row.get("beta_star", ""), row.get("ratio", "")])


def _cmd_bounds(args):
    rows = []
    if args.what == "alpha":
        for n in _parse_range(args.n):
            for k in _parse_range(args.k):
                value = dec.bound_alpha(n, k)
                rows.append({"n": n, "k": k, "l": 3,
                             "bound": format_rational(value)})
    else:
        for n in _parse_range(args.n) if args.n else [None]:
            for k in _parse_range(args.k) if args.k else [None]:
                value = dec.bound_beta(args.l, n, k)
                rows.append({"n": "" if n is None else n,
                             "k": "" if k is None else k, "l": args.l,
                             "bound": format_rational(value)})
    if args.csv:
        export_plot_data(rows, args.csv)
    last = parse_rational(rows[-1]["bound"])
    _emit({"rows": len(rows), "bound": rational_json(last)})
    return 0


# --- report -------------------------------------------------------------

def _cmd_report(args):
    inst = read_instance(args.instance)
    lp, ip, ratio = gap(inst)
    doc = {"lp": rational_json(lp), "ip": rational_json(ip),
           "ratio": rational_json(ratio)}
    if args.csv:
        export_plot_data([{"ratio": format_rational(ratio)}], args.csv)
    _emit(doc)
    return 0


# --- argument parsing ---------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(prog="pcsf",
                                  description="Prize-collecting Steiner forest LP toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    layered = argparse.ArgumentParser(add_help=False)
    layered.add_argument("--base", default="k4")
    layered.add_argument("--base-file")
    layered.add_argument("--m", type=int, default=4)
    layered.add_argument("--k", type=int, default=0)

    gen = sub.add_parser("gen").add_subparsers(dest="what", required=True)
    g = gen.add_parser("layered", parents=[layered])
    g.add_argument("--point", help="write the canonical point here")
    g.add_argument("--point-mode", default="gap", choices=["gap", "lmp"])
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)
    g = gen.add_parser("gadget")
    g.add_argument("--k", type=int, default=6)
    g.add_argument("--point")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)
    g = gen.add_parser("base")
    g.add_argument("--base", default="k4")
    g.add_argument("--base-file")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)

    lp = sub.add_parser("lp").add_subparsers(dest="what", required=True)
    p = lp.add_parser("solve")
    p.add_argument("instance")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_lp)
    p = lp.add_parser("check")
    p.add_argument("instance")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_lp)
    p = lp.add_parser("verify-vertex")
    p.add_argument("instance", nargs="?")
    p.add_argument("--point")
    p.add_argument("--family")
    p.add_argument("--gadget-k", type=int, help="generate the gadget instance, point, and family")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("ip")
    ipsub = p.add_subparsers(dest="what", required=True)
    p = ipsub.add_parser("solve")
    p.add_argument("instance")
    p.add_argument("--edge-cap", type=int, default=DEFAULT_IP_EDGE_CAP)
    p.set_defaults(func=_cmd_ip)

    p = sub.add_parser("round")
    p.add_argument("instance")
    p.add_argument("--point", required=True)
    p.add_argument("--method", default="threshold",
                   choices=["threshold", "best", "two-value"])
    p.add_argument("--theta", default="1/3")
    p.add_argument("--p", default="3/4")
    p.set_defaults(func=_cmd_round)

    d = sub.add_parser("decompose").add_subparsers(dest="what", required=True)
    for name in ("min-alpha", "min-beta"):
        p = d.add_parser(name)
        p.add_argument("instance")
        p.add_argument("--point", required=True)
        p.add_argument("--method", default="cg", choices=["cg", "enumerate"])
        p.add_argument("--edge-cap", type=int, default=DEFAULT_IP_EDGE_CAP)
        p.add_argument("-o", "--output")
        p.add_argument("--witness", help="write the dual witness instance here")
        p.set_defaults(func=_cmd_decompose)
    p = d.add_parser("explicit", parents=[layered])
    p.add_argument("--alpha", default="9/4")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decompose)
    p = d.add_parser("verify", parents=[layered])
    p.add_argument("--mode", default="gap", choices=["gap", "lmp"])
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--dist", required=True)
    p.set_defaults(func=_cmd_decompose)
    p = d.add_parser("trace", parents=[layered])
    p.add_argument("--alpha", default="9/4")
    p.add_argument("--dist", required=True)
    p.set_defaults(func=_cmd_decompose)

    b = sub.add_parser("bounds").add_subparsers(dest="what", required=True)
    p = b.add_parser("alpha")
    p.add_argument("--n", required=True, help="value or lo:hi range")
    p.add_argument("--k", required=True, help="value or lo:hi range")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_bounds)
    p = b.add_parser("beta")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n")
    p.add_argument("--k")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_bounds)

    r = sub.add_parser("report").add_subparsers(dest="what", required=True)
    p = r.add_parser("gap")
    p.add_argument("instance")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_report)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, kind = next(v for t, v in EXIT_CODES.items() if isinstance(exc, t))
        json.dump({"error": str(exc), "type": kind}, sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
