#!/usr/bin/env python3
"""Run one pcsf-gap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cutlp_k4 --seed 1 --seconds 30 --trace 0

One workload per process, closed loop, one caller.  The program is
imported from ``src/`` next to this directory; without it the run exits
with an error before measuring anything.

``--trace 0`` runs results back to back, in timed units, for ``--seconds``
seconds and at least MIN_UNITS units, checking each one against its exact
reference.  It times SETUP_REPS set-ups spread over the run, outside the
measured time, and reports the end-to-end metrics; the JSON line carries
the gated ones.  ``--trace 1`` runs one untraced warm-up unit, then a fixed
number of results once with every layer's public functions wrapped (see
tracer.py) and once untraced, and reports the per-layer metrics; the
difference between the two passes is the tracing overhead.  Both modes
print readable lines, write a summary (and, traced, the spans) under
``perfbench/out/``, and end with one JSON line.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import SMALL_BATCH_HELD_OUT_SEED, SMALL_BATCH_TUNING_SEED, WORKLOADS

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 11      # set-ups timed per run, spread over the measured phase
MIN_UNITS = 5        # timed units a run completes, however long they take
# reference() on the 2-CPU Xeon virtual machine the benchmark was built on
# (Python 3.11.7), in the faster of the two speeds it runs at
REFERENCE_S = 0.008

# the end-to-end metrics; the gated ones are listed in BENCHMARK.json
E2E_UNITS = {
    "wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "wall_s": "s", "cpu_s": "s", "failed_frac": "1", "instances_per_s": "1/s",
    "latency_p50_s": "s", "latency_tail_s": "s",
}
GATED = ("wall_ref_s", "cpu_ref_s", "setup_s", "peak_rss_mb")

# a fixed graph on 60 nodes, three arcs out of each, capacities 1..5
REFERENCE_GRAPH = [[((i + d) % 60, (7 * i + 3 * d) % 5 + 1) for d in (1, 7, 13)]
                   for i in range(60)]


def reference():
    """Seconds that a fixed piece of pure-Python work takes now.

    The work is the kind the program does: breadth-first searches with
    Fraction residual capacities, over REFERENCE_GRAPH.  The host may run
    the process at speeds up to twice apart (see NOTES.md); a time measured
    next to this one is scaled by REFERENCE_S / reference() to the speed
    the constant was taken at."""
    t0 = time.perf_counter()
    for rep in range(24):
        seen, queue = {0}, deque([0])
        while queue:
            u = queue.popleft()
            for v, cap in REFERENCE_GRAPH[u]:
                if v not in seen and Fraction(cap, rep + 2) - Fraction(1, 7) > 0:
                    seen.add(v)
                    queue.append(v)
    return time.perf_counter() - t0


def load_pcsf():
    """Fresh import of every pcsf module from src/ (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "pcsf" or n.startswith("pcsf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pcsf")
    if Path(pkg.__file__).resolve().parent != SRC / "pcsf":
        raise SystemExit(f"perfbench: imported pcsf from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{info.name: importlib.import_module(f"pcsf.{info.name}")
                              for info in pkgutil.iter_modules(pkg.__path__)})


def set_up(workload, seed):
    """Import every pcsf module afresh from src/ and build the inputs.  The
    seconds that took are returned as read and scaled to the reference
    speed."""
    before = reference()
    t0 = time.perf_counter()
    pcsf = load_pcsf()
    inputs = workload.build(pcsf, seed)
    seconds = time.perf_counter() - t0
    return pcsf, inputs, (seconds, seconds * REFERENCE_S / ((before + reference()) / 2))


def time_set_up(workload, seed):
    """The times of one more set-up; the modules in use are put back."""
    in_use = {n: m for n, m in sys.modules.items() if n == "pcsf" or n.startswith("pcsf.")}
    times = set_up(workload, seed)[2]
    for name in [n for n in sys.modules if n == "pcsf" or n.startswith("pcsf.")]:
        del sys.modules[name]
    sys.modules.update(in_use)
    gc.collect()          # free the discarded set-up here, not in a timed unit
    return times


def measure(workload, pcsf, inputs, seconds=None, results=None, tracer=None,
            between_units=None):
    """Run results back to back, in units of ``workload.unit``, until
    ``seconds`` have passed and MIN_UNITS units are done, or until
    ``results`` are done.  ``between_units(elapsed)`` runs after each unit,
    outside the measured time.  reference() is timed before each unit and
    after the last."""
    latencies, unit_wall, unit_cpu, refs = [], [], [], [reference()]
    failed = 0
    i = 0
    elapsed = 0.0
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(workload.unit):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                ok = workload.run_one(pcsf, inputs[i % len(inputs)])
            except Exception:
                traceback.print_exc()
                ok = False
            latencies.append(time.perf_counter() - t0)
            if not ok:
                failed += 1
                print(f"perfbench: result {i} of {workload.name} does not match "
                      "its exact reference", file=sys.stderr)
            i += 1
        unit_wall.append(time.perf_counter() - w0)
        unit_cpu.append(time.process_time() - c0)
        refs.append(reference())
        elapsed += unit_wall[-1]
        if results is not None:
            if i >= results:
                break
        elif elapsed >= seconds and len(unit_wall) >= MIN_UNITS:
            break
        if between_units is not None:
            between_units(elapsed)
    # each unit scaled by the reference speed around it
    speed = [REFERENCE_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    return SimpleNamespace(latencies=latencies, unit_wall=unit_wall, unit_cpu=unit_cpu,
                           speed=speed, attempted=i, failed=failed, elapsed=elapsed)


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the maximum when there are fewer than eleven samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def metadata(seed):
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "small_batch_seeds": {"tuning": SMALL_BATCH_TUNING_SEED,
                              "held_out": SMALL_BATCH_HELD_OUT_SEED},
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loop": "closed, one caller, single-threaded: no layer queues or waits",
    }


def end_to_end(run, set_ups):
    """The end-to-end metrics.  The gated times are scaled to the reference
    speed; wall_s and cpu_s are as the clock read them."""
    tail_value, tail_pct = tail(run.latencies)
    values = {
        "wall_ref_s": statistics.median(w * f for w, f in zip(run.unit_wall, run.speed)),
        "cpu_ref_s": statistics.median(c * f for c, f in zip(run.unit_cpu, run.speed)),
        "setup_s": statistics.median(scaled for _, scaled in set_ups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": statistics.median(run.unit_wall),
        "cpu_s": statistics.median(run.unit_cpu),
        "failed_frac": run.failed / run.attempted,
        "instances_per_s": run.attempted / run.elapsed,
        "latency_p50_s": statistics.median(run.latencies),
        "latency_tail_s": tail_value,
    }
    extra = {
        "latency_tail_pct": tail_pct,
        "samples": len(run.latencies),
        "units": len(run.unit_wall),
        "measured_s": run.elapsed,
        "speed_median": statistics.median(run.speed),
    }
    return values, extra


def write_out(name, doc, spans=None):
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{name}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcsf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pcsf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # one BLAS thread; numpy is first imported by pcsf, in set_up
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    workload = WORKLOADS[args.workload]
    pcsf, inputs, first_set_up = set_up(workload, args.seed)
    set_ups = [first_set_up]
    meta = metadata(args.seed)
    run_name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"python {meta['python']}  numpy {meta['numpy']}  nproc {meta['nproc']}  "
          f"src_lines {meta['src_lines']}")

    if args.trace == 0:
        def between_units(elapsed):
            # the other set-ups, spread evenly over the measured phase
            due = 1 + (SETUP_REPS - 1) * elapsed / args.seconds
            while len(set_ups) < min(SETUP_REPS, due):
                set_ups.append(time_set_up(workload, args.seed))

        run = measure(workload, pcsf, inputs, seconds=args.seconds,
                      between_units=between_units)
        while len(set_ups) < SETUP_REPS:
            set_ups.append(time_set_up(workload, args.seed))
        values, extra = end_to_end(run, set_ups)
        attempted, failed = run.attempted, run.failed
        for name, value in values.items():
            print(f"  {name:16s} {value:12.6g} {E2E_UNITS[name]:4s}"
                  f"{'' if name in GATED else '  (not gated)'}")
        print(f"  {run.failed} of {run.attempted} results failed; latency_tail_s is "
              f"p{extra['latency_tail_pct']:.4g} of {extra['samples']} results; times "
              f"are medians of {extra['units']} units of {workload.unit} result(s) "
              f"and of {len(set_ups)} set-ups; *_ref_s and setup_s are scaled to the "
              f"reference speed (median scale {extra['speed_median']:.4g})")
        write_out(run_name, {"meta": meta, "metrics": values, "extra": extra,
                             "set_ups": set_ups, "unit_wall": run.unit_wall,
                             "unit_cpu": run.unit_cpu, "unit_speed": run.speed,
                             "latencies": run.latencies})
        reported = {name: (values[name], E2E_UNITS[name]) for name in GATED}
    else:
        while len(set_ups) < SETUP_REPS:
            set_ups.append(time_set_up(workload, args.seed))
        # one untraced warm-up unit, so that both passes run on warm state;
        # install() refuses a binding it cannot cover before anything is traced
        warm = measure(workload, pcsf, inputs, results=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(workload, pcsf, inputs, results=workload.trace_results,
                             tracer=tracer)
        finally:
            tracer.uninstall()
        plain = measure(workload, pcsf, inputs, results=workload.trace_results)
        values = tracing.layer_metrics(tracer.spans)
        reported = {name: (value, "s" if name.endswith("_s") else
                           "ratio" if name.endswith("_ratio") else "count")
                    for name, value in values.items()}
        attempted = warm.attempted + traced.attempted + plain.attempted
        failed = warm.failed + traced.failed + plain.failed
        overhead = {"untraced_wall_s": plain.elapsed, "traced_wall_s": traced.elapsed,
                    "overhead_s": traced.elapsed - plain.elapsed,
                    "spans": len(tracer.spans)}
        for name, (value, unit) in reported.items():
            print(f"  {name:32s} {value:12.6g} {unit}")
        master = values["decomposition.master_solves"]
        print(f"  greedy_hit_ratio base: {master} master solves")
        print(f"  results {traced.attempted}  untraced {plain.elapsed:.4f} s  "
              f"traced {traced.elapsed:.4f} s  overhead {overhead['overhead_s']:.4f} s  "
              f"({len(tracer.spans)} spans)")
        print("  bindings patched: " + ", ".join(
            f"{fn} x{len(where)}" for fn, where in tracer.bindings.items()))
        write_out(run_name, {"meta": meta, "metrics": values, "overhead": overhead,
                             "bindings": tracer.bindings, "set_ups": set_ups,
                             "span_fields": ["name", "start", "end", "parent",
                                             "request", "attrs"]},
                  spans=tracer.spans)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))


if __name__ == "__main__":
    main()
