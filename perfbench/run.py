#!/usr/bin/env python3
"""The repository benchmark: builds the workload binary
(perfbench/workloads.cc) from the sources in this checkout, runs one
workload, and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to .bench_build/. With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a separate,
traced run. The lines before it are a human-readable report: every metric
with its unit, the job_s sample count and tail percentile, and the task
graph (chunks, shards, strategy per round) the numbers ran on.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import ledger

WORKLOADS = ("sweep-inproc", "sweep-wire4", "join-spill", "matmul-2round")
BUILD_DIR = Path(".bench_build")
BINARY = BUILD_DIR / "bin" / "perfbench_workloads"
# A run must end within 180 s, or 900 s when it first builds the checkout.
BINARY_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 850

END_TO_END = [
    ("job_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("comm_pairs", "pairs"),
    ("comm_mb", "MB"),
    ("max_q", "pairs"),
    ("success_rate", "ratio"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    root = Path(__file__).resolve().parent
    if not (root.parent / "CMakeLists.txt").is_file():
        fail("no repository sources next to perfbench/; nothing to build")
    steps = [
        ["cmake", "-S", str(root), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j4",
         "--target", "perfbench_workloads"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_workloads(args, work_dir):
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed % 2**31), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work_dir", str(work_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload binary timed out")  # subprocess.run killed and reaped it
    if done.returncode != 0:
        fail(f"workload binary exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload binary printed nothing")
    return json.loads(lines[-1])


def tail_percentile(values):
    """The highest of a few standard percentiles that has at least 10
    samples beyond it, with its value; None when there are too few."""
    ordered = sorted(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(ordered) * (1 - p / 100) >= 10:
            best = (p, ordered[min(len(ordered) - 1,
                                   math.ceil(len(ordered) * p / 100) - 1)])
    return best


def task_graph(raw, execution):
    """The realized task graph of one traced execution: chunks and shards
    from its trace, the strategy each round ran with from Execute."""
    _, graph = ledger.reduce_execution(execution["trace"],
                                       execution["metrics"])
    for g, r in zip(graph, raw["rounds"]):
        g["strategy"] = r["strategy"]
    return "; ".join(
        f"round {i + 1}: " + " ".join(f"{k}={v}" for k, v in g.items())
        for i, g in enumerate(graph))


def end_to_end(raw):
    walls = [e["wall_s"] for e in raw["executions"]]
    values = {
        "job_s": statistics.median(walls),
        "cpu_s": statistics.median(e["cpu_s"] for e in raw["executions"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "comm_pairs": raw["comm_pairs"],
        "comm_mb": raw["comm_bytes"] / 1e6,
        "max_q": raw["max_q"],
        # fail_rate = 1 - success_rate; the success form never reads 0.
        "success_rate": 1.0 - raw["failed"] / raw["attempted"],
    }
    tail = tail_percentile(walls)
    print(f"job_s: median of {len(walls)} executions; tail: " +
          (f"p{tail[0]:g} = {tail[1]:.6f} s" if tail else
           "too few samples for one"))
    print("task graph: " + task_graph(raw, raw["warmup"]))
    for i, r in enumerate(raw["rounds"]):
        print(f"round {i + 1} paper units: pairs={r['pairs']:.0f} "
              f"q={r['max_q']:.0f} (predicted {r.get('predicted_q', 0):.6g}) "
              f"r={r['r']:.6g} (predicted {r.get('predicted_r', 0):.6g})")
    metrics = {}
    for name, unit in END_TO_END:
        print(f"{name} = {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def per_layer(raw):
    traced = [e for e in raw["executions"] if "trace" in e]
    untraced = [e for e in raw["executions"] if "trace" not in e]
    per_exec = [ledger.reduce_execution(e["trace"], e["metrics"])[0]
                for e in traced]
    values = {name: statistics.median(m[name] for m in per_exec)
              for name in per_exec[0]}
    for name in ("barrier_wait_ms", "streamed_overlap_ms"):
        values["engine." + name] = statistics.median(e[name] for e in traced)
    values.update(raw["layers"])
    values.update(ledger.reduce_setup(
        str(Path(traced[0]["trace"]).parent / "setup.trace.json")))
    values["obs.trace_overhead"] = (
        statistics.median(e["wall_s"] for e in traced) /
        statistics.median(e["wall_s"] for e in untraced) - 1.0)
    print(f"per-layer metrics: median over {len(traced)} traced executions")
    print("task graph: " + task_graph(raw, traced[-1]))
    if values["obs.dropped_events"] > 0:
        print("WARNING: trace dropped events; per-layer numbers are "
              "incomplete")
    metrics = {}
    for name, unit, _, moves in ledger.LAYER_METRICS:
        print(f"{name} = {values[name]:.6g} {unit}  (moves {moves})")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    work_dir = BUILD_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        raw = run_workloads(args, work_dir)
        print(f"workload {args.workload} seed {args.seed}: "
              f"{raw['attempted']} executions, {raw['failed']} failed")
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
