"""Run one knotslope benchmark workload and print its metrics.

    python3 bench/run.py --workload jones-high --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from anywhere; the benchmark imports the package from the `src/` next
to this directory.  With --trace 0 it measures the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones, after an untraced phase
that serves as the baseline of the tracing overhead.  Every line but the
last is for people (environment, inputs, one metric per line with its
unit); the last is one JSON object with the keys correct, attempted,
failed and metrics.  The same record, with the environment, is written to
.bench_work/results/.

The measured phase runs whole passes, at least one, and starts another
only while it is expected to end within --seconds.  A jones-high pass
(2 ops) and a verify-cold pass (16 ops) each take longer than 20 seconds
on the seed code, so those workloads measure one pass there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

PACKAGE = workloads.SRC / "knotslope"
WORK = workloads.ROOT / ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed):
    """What tells a noisy run apart: machine, interpreter, load, seed."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_model": model,
        "loadavg_start": list(os.getloadavg()),
        "probe_s_start": speed_probe(),
        "seed": seed,
    }


def speed_probe():
    """Median time of a fixed pure-Python loop: how fast the machine runs now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(samples):
    """(value, percentile): the highest whole percentile with 10 samples beyond it.

    Below 20 samples that percentile would fall under the median, so the
    slowest sample (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


@dataclass
class Phase:
    """What one phase measured: per-pass wall and CPU time, op times, failures."""

    tracer: tracing.Tracer
    walls: list
    cpus: list
    ops: list  # per pass, the time of each op
    attempted: int
    failed: int


def measure(workload, seconds=None, passes=None, layers=False):
    """Run whole passes of workload under a fresh tracer.

    Stops after passes passes, or else before a pass that would end after
    seconds (at least one pass runs).  layers=True puts a span on every
    layer, not only on the ops.
    """
    if layers:
        tracer = tracing.Tracer(workload.read_root)
        targets = tracing.layer_targets(tracer)
    else:
        tracer = tracing.Tracer()
        targets = tracing.op_targets(tracer)
    walls, cpus, ops = [], [], []
    attempted = failed = 0
    workloads.reset_caches()
    try:
        tracer.install(targets)
        started = time.perf_counter()
        while True:
            failed_now = workload.ops_per_pass
            first = len(tracer.names)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                try:
                    workload.run_pass(tracer)
                finally:
                    walls.append(time.perf_counter() - t0)
                    cpus.append(time.process_time() - c0)
                    ops.append(tracer.durations(workload.op_span, first) or [walls[-1]])
                failed_now = workload.finish_pass(tracer)
            except Exception:
                workload.errors.append(traceback.format_exc(limit=6))
            attempted += workload.ops_per_pass
            failed += failed_now
            if passes is not None:
                if len(walls) >= passes:
                    break
            elif time.perf_counter() - started + statistics.median(walls) > seconds:
                break
    finally:
        workloads.reset_caches(tracer.counts)
        tracer.uninstall()
    return Phase(tracer, walls, cpus, ops, attempted, failed)


def end_to_end(setup_s, phase):
    tails = [tail(ops) for ops in phase.ops]
    metrics = {
        "wall_s": statistics.median(phase.walls),
        "cpu_s": statistics.median(phase.cpus),
        "op_p50_s": statistics.median(t for ops in phase.ops for t in ops),
        "op_tail_s": statistics.median(value for value, _ in tails),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "passes": len(phase.walls),
        "op_samples": sum(len(ops) for ops in phase.ops),
        "op_tail_percentile": min(pct for _, pct in tails),
    }
    return metrics, notes


def per_layer(baseline, traced):
    metrics = tracing.layer_metrics(traced.tracer, len(traced.walls))
    untraced_wall = statistics.median(baseline.walls)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(traced.walls) - untraced_wall) / untraced_wall
    _, root = traced.tracer.span_totals()
    metrics["bench.uncovered_s"] = (sum(traced.walls) - root) / len(traced.walls)
    notes = {"untraced_passes": len(baseline.walls), "traced_passes": len(traced.walls),
             "untraced_wall_s": untraced_wall, "spans": len(traced.tracer.names)}
    return metrics, notes


def run_one(args, spec):
    env = environment(args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.make_workload(args.workload, args.seed, work)
        setup_s = workload.setup()
        baseline = measure(workload, args.seconds)
        if args.trace:
            traced = measure(workload, passes=workload.trace_passes, layers=True)
            metrics, notes = per_layer(baseline, traced)
            phases = (baseline, traced)
        else:
            metrics, notes = end_to_end(setup_s, baseline)
            phases = (baseline,)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": {**env, "probe_s_end": speed_probe()},
        "inputs": workload.describe(), "notes": notes,
        "failed_frac": failed / attempted, "errors": workload.errors[:20],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} inputs "
          f"{json.dumps(record['inputs'])} {json.dumps(notes, sort_keys=True)}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {record['failed_frac']:.6g} ({failed} of {attempted} ops)")
    for error in workload.errors[:5]:
        print(f"  error: {error.strip()}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def run_all(args):
    """Each workload in a fresh process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": m for metric, m in result["metrics"].items()})
    return combined


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no knotslope package at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import knotslope

    if Path(knotslope.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported knotslope from {knotslope.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    result = run_all(args) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
