#!/usr/bin/env python3
"""Check that per-layer counts repeat exactly; list those that left the baseline.

    python3 perfbench/check_counts.py [workload ...] [--write]

Makes two traced runs of each workload (``small_batch`` on its tuning and
held-out seeds), each in its own process, and fails if any count differs
between the two runs.  Counts that moved from ``baseline.json`` (the seed
commit's counts) are listed, since a change to the program may move them
on purpose.  ``--write`` records the counts of the current code as the
baseline instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from report import run
from workloads import SMALL_BATCH_HELD_OUT_SEED, SMALL_BATCH_TUNING_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
BASELINE = BENCH / "baseline.json"
FIXED_SEED = 1   # the other workloads build the same inputs for every seed


def cases(names):
    for name in names:
        if name == "small_batch":
            yield name, SMALL_BATCH_TUNING_SEED
            yield name, SMALL_BATCH_HELD_OUT_SEED
        else:
            yield name, FIXED_SEED


def counts(workload, seed):
    result, summary = run(workload, seed, 1, 1)
    if not result["correct"]:
        raise SystemExit(f"{workload}@{seed}: {result['failed']} results failed their check")
    return ({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"},
            summary["meta"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    for name in args.workloads:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")

    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {"counts": {}}
    problems, moved = [], []
    for name, seed in cases(args.workloads):
        key = f"{name}@{seed}"
        first, meta = counts(name, seed)
        second, _ = counts(name, seed)
        if first != second:
            problems.append(f"{key}: counts differ between runs: "
                            + ", ".join(f"{k} {first[k]} vs {second[k]}"
                                        for k in first if first[k] != second[k]))
        if args.write:
            baseline["counts"][key] = first
            baseline["recorded_with"] = {k: meta[k] for k in ("src_sha256", "src_lines", "commit")}
        elif first != baseline["counts"].get(key):
            old = baseline["counts"].get(key, {})
            moved.append(f"{key}: " + ", ".join(
                f"{k} {old.get(k)} -> {first.get(k)}"
                for k in sorted(old.keys() | first.keys()) if old.get(k) != first.get(k)))
        print(f"{key}: " + ", ".join(f"{k}={v}" for k, v in first.items()))
    if args.write:
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    for m in moved:
        print("MOVED " + m)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
