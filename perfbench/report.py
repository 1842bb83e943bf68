#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--trace]

Runs ``run.py`` once per workload, each in its own process, for the
``run_seconds`` that ``BENCHMARK.json`` sets, on seed 1 and on
``small_batch``'s held-out seed, then prints one row per workload.
With ``--trace`` it also makes the traced run of each workload and prints
the per-layer metrics and the tracing overhead.  Exits non-zero if any
result failed its exact check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import E2E_UNITS, GATED
from workloads import SMALL_BATCH_HELD_OUT_SEED, SMALL_BATCH_TUNING_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload, seed, seconds, trace):
    """The run's JSON result and the summary it wrote under out/."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    rows = [(name, SMALL_BATCH_TUNING_SEED) for name in WORKLOADS]
    rows.append(("small_batch", SMALL_BATCH_HELD_OUT_SEED))
    ok = True
    print(f"{'workload':16s} {'seed':>9s} " + " ".join(f"{m:>15s}" for m in E2E_UNITS))
    for name, seed in rows:
        result, summary = run(name, seed, RUN_SECONDS, 0)
        ok &= result["correct"]
        metrics = summary["metrics"]
        tail_note = (f"  (tail p{summary['extra']['latency_tail_pct']:.4g} of "
                     f"{summary['extra']['samples']})")
        print(f"{name:16s} {seed:9d} " + " ".join(f"{metrics[m]:15.6g}" for m in E2E_UNITS)
              + tail_note)
    print(f"{'unit':26s} " + " ".join(f"{u:>15s}" for u in E2E_UNITS.values()))
    print("gated in BENCHMARK.json: " + ", ".join(GATED))
    print(f"src_lines {summary['meta']['src_lines']}  python {summary['meta']['python']}  "
          f"numpy {summary['meta']['numpy']}  nproc {summary['meta']['nproc']}")

    if args.trace:
        traced = {}
        for name, seed in rows:
            result, summary = run(name, seed, RUN_SECONDS, 1)
            ok &= result["correct"]
            traced[f"{name}@{seed}"] = summary
        names = list(next(iter(traced.values()))["metrics"])
        print()
        print(f"{'per-layer':32s} " + " ".join(f"{k:>22s}" for k in traced))
        for m in names:
            print(f"{m:32s} " + " ".join(f"{s['metrics'][m]:22.6g}" for s in traced.values()))
        for key in ("untraced_wall_s", "traced_wall_s", "overhead_s"):
            print(f"{key:32s} " + " ".join(f"{s['overhead'][key]:22.6g}" for s in traced.values()))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
