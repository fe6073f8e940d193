"""Per-layer ledger: reduces one traced execution's Chrome trace and registry
JSON (the files src/obs writes) to the benchmark's per-layer metrics.

A layer's self time is its span minus the part of that span its child spans
cover, where a child is a span on the same (pid, tid) lane lying inside it.
Spans named in BENCH_SPANS are the benchmark's own (around each call into
the library) and "Round" is a per-round summary; neither is a layer.
"""

import json
import statistics

BENCH_SPANS = {"FamilyBuild", "Estimate", "Execute", "ReferenceCheck"}
NOT_LAYERS = BENCH_SPANS | {"Round"}
SIMULATED_PID = 1
FIRST_WORKER_PID = 2

# name, unit, better, and the end-to-end metric (on which workloads) the
# layer metric should move. BENCHMARK.json's per_layer list mirrors the
# first three columns; run.py prints the fourth beside each value.
LAYER_METRICS = [
    ("engine.map_busy_ms", "ms", "lower", "job_s on sweep-inproc"),
    ("engine.group_busy_ms", "ms", "lower", "job_s on sweep-inproc"),
    ("engine.finalize_ms", "ms", "lower", "job_s on sweep-inproc"),
    ("engine.reduce_busy_ms", "ms", "lower", "job_s on matmul-2round"),
    ("engine.barrier_wait_ms", "ms", "lower", "job_s on matmul-2round"),
    ("engine.streamed_overlap_ms", "ms", "higher", "job_s on matmul-2round"),
    ("engine.tasks", "count", "lower", "job_s on sweep-inproc, sweep-wire4"),
    ("engine.chunks", "count", "lower", "job_s on sweep-inproc, sweep-wire4"),
    ("engine.shards", "count", "higher", "job_s on sweep-inproc, sweep-wire4"),
    ("engine.partition_skew", "ratio", "lower",
     "job_s on sweep-inproc, sweep-wire4"),
    ("engine.bytes_copied_mb", "MB", "lower", "cpu_s on sweep-inproc"),
    ("storage.spill_busy_ms", "ms", "lower", "job_s on join-spill"),
    ("storage.merge_busy_ms", "ms", "lower", "job_s on join-spill"),
    ("storage.spill_mb", "MB", "lower", "job_s, cpu_s on join-spill"),
    ("storage.spill_runs", "count", "lower", "job_s, cpu_s on join-spill"),
    ("storage.merge_passes", "count", "lower", "job_s, cpu_s on join-spill"),
    ("storage.compression_ratio", "ratio", "higher",
     "job_s, cpu_s on join-spill"),
    ("dist.pre_round_ms", "ms", "lower", "job_s on sweep-wire4"),
    ("dist.post_round_ms", "ms", "lower", "job_s on sweep-wire4"),
    ("dist.map_busy_ms", "ms", "lower", "job_s on sweep-wire4"),
    ("dist.map_lane_max_ms", "ms", "lower", "job_s on sweep-wire4"),
    ("dist.reduce_busy_ms", "ms", "lower", "job_s on sweep-wire4"),
    ("dist.reduce_tasks", "count", "higher", "job_s on sweep-wire4"),
    ("dist.fetch_stall_ms", "ms", "lower", "job_s on sweep-wire4"),
    ("dist.credit_wait_ms", "ms", "lower", "job_s on sweep-wire4"),
    ("dist.wire_mb", "MB", "lower", "job_s on sweep-wire4"),
    ("dist.reissued_tasks", "count", "lower", "success_rate on sweep-wire4"),
    ("dist.refetched_runs", "count", "lower", "success_rate on sweep-wire4"),
    ("dist.duplicate_commits", "count", "lower",
     "success_rate on sweep-wire4"),
    ("dist.worker_peak_rss_mb", "MB", "lower", "memory on sweep-wire4"),
    ("plan.estimate_ms", "ms", "lower", "setup_s on all workloads"),
    ("plan.q_residual_log2", "log2", "lower",
     "job_s on sweep-wire4, sweep-inproc"),
    ("plan.r_residual_log2", "log2", "lower",
     "job_s on sweep-wire4, sweep-inproc"),
    ("family.build_ms", "ms", "lower", "setup_s on all workloads"),
    ("family.r_over_bound", "ratio", "lower",
     "comm_pairs on join-spill, matmul-2round"),
    ("obs.trace_overhead", "ratio", "lower", "job_s on all workloads"),
    ("obs.dropped_events", "count", "lower",
     "trust in every per-layer metric (must be 0)"),
    ("job.unattributed_frac", "ratio", "lower",
     "trust in the per-layer split of job_s"),
]


def load_spans(path):
    """The complete ('X') real-time spans of a Chrome trace file, as dicts
    with name, pid, tid, start, end (microseconds) and args."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [
        {
            "name": e["name"],
            "pid": e["pid"],
            "tid": e["tid"],
            "start": e["ts"],
            "end": e["ts"] + e["dur"],
            "args": e.get("args", {}),
        }
        for e in events
        if e.get("ph") == "X" and e["pid"] != SIMULATED_PID
    ]


def union_length(intervals):
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time in microseconds per span index: duration minus the union
    of the spans nested inside it on the same lane."""
    lanes = {}
    for i, s in enumerate(spans):
        lanes.setdefault((s["pid"], s["tid"]), []).append(i)
    out = {}
    for members in lanes.values():
        for i in members:
            a = spans[i]
            inner = [
                (spans[j]["start"], spans[j]["end"])
                for j in members
                if j != i
                and a["start"] <= spans[j]["start"]
                and spans[j]["end"] <= a["end"]
                and (spans[j]["start"], -spans[j]["end"], j)
                > (a["start"], -a["end"], i)
            ]
            out[i] = a["end"] - a["start"] - union_length(inner)
    return out


def reduce_execution(trace_path, metrics_path):
    """Per-layer metrics of one traced execution, plus its task graph as a
    list of per-round dicts (chunks, shards)."""
    spans = load_spans(trace_path)
    with open(metrics_path) as f:
        registry = json.load(f)
    counters = registry.get("counters", {})

    execute = next(s for s in spans if s["name"] == "Execute")
    layers = [
        i for i, s in enumerate(spans)
        if s["name"] not in NOT_LAYERS
        and execute["start"] <= s["start"] and s["end"] <= execute["end"]
    ]
    own = self_times([spans[i] for i in layers])
    self_us = {i: own[k] for k, i in enumerate(layers)}

    def busy_ms(names):
        return sum(self_us[i] for i in layers
                   if spans[i]["name"] in names) / 1000.0

    rounds = sorted((s for s in spans if s["name"] == "Round"),
                    key=lambda s: s["start"])
    workers = any(spans[i]["pid"] >= FIRST_WORKER_PID for i in layers)

    graph = []
    for r in rounds:
        tag = r["args"].get("round")
        chunks = r["args"].get("chunks")
        if chunks is None:
            chunks = sum(1 for i in layers
                         if spans[i]["name"] in ("MapPartition", "MapSpill")
                         and spans[i]["args"].get("round") == tag)
        graph.append({"chunks": chunks, "shards": r["args"].get("shards", 0)})

    lane_map_ms = {}
    for i in layers:
        if spans[i]["name"] == "dist-map":
            pid = spans[i]["pid"]
            lane_map_ms[pid] = lane_map_ms.get(pid, 0) + self_us[i] / 1000.0
    fetches = [spans[i] for i in layers if spans[i]["name"] == "FetchRun"]
    covered = union_length([(spans[i]["start"], spans[i]["end"])
                            for i in layers])
    execute_us = execute["end"] - execute["start"]

    m = {
        "engine.map_busy_ms": busy_ms({"MapPartition", "MapSpill", "MapTask"}),
        "engine.group_busy_ms": busy_ms(
            {"ShardGroup", "Merge", "RadixPartition", "BlockShardedShuffle",
             "ShuffleTask"}),
        "engine.finalize_ms": busy_ms({"Finalize"}),
        "engine.reduce_busy_ms": busy_ms(
            {"ReduceShard", "ReduceRange", "ReduceTask"}),
        "engine.tasks": sum(1 for i in layers
                            if "task" in spans[i]["args"]),
        "engine.chunks": sum(g["chunks"] for g in graph),
        "engine.shards": sum(g["shards"] for g in graph),
        "storage.spill_busy_ms": busy_ms({"SpillBlockRun", "SpillRun"}),
        "storage.merge_busy_ms": busy_ms({"MergePass"}),
        "dist.pre_round_ms": 0.0,
        "dist.post_round_ms": 0.0,
        "dist.map_busy_ms": busy_ms({"dist-map"}),
        "dist.map_lane_max_ms": max(lane_map_ms.values(), default=0.0),
        "dist.reduce_busy_ms": busy_ms({"dist-reduce"}),
        "dist.reduce_tasks": sum(1 for i in layers
                                 if spans[i]["name"] == "dist-reduce"),
        "dist.fetch_stall_ms": sum(f["args"].get("stall_ms", 0)
                                   for f in fetches),
        "dist.credit_wait_ms": sum(f["args"].get("credit_wait_ms", 0)
                                   for f in fetches),
        "dist.wire_mb": counters.get("dist.shuffle_bytes_wire", 0) / 1e6,
        "dist.reissued_tasks": counters.get("dist.reissued_tasks", 0),
        "dist.refetched_runs": counters.get("dist.refetched_runs", 0),
        "dist.duplicate_commits": counters.get("dist.duplicate_commits", 0),
        "job.unattributed_frac":
            1.0 - covered / execute_us if execute_us > 0 else 0.0,
    }
    if workers and rounds:
        # Spawn, handshake and the workers' plan rebuild happen before the
        # first Round span opens; collect and shutdown after the last ends.
        m["dist.pre_round_ms"] = (rounds[0]["start"] - execute["start"]) / 1e3
        m["dist.post_round_ms"] = (execute["end"] -
                                   max(r["end"] for r in rounds)) / 1e3
    return m, graph


def reduce_setup(trace_path):
    """Median FamilyBuild and Estimate span durations (ms) of the set-up
    capture."""
    spans = load_spans(trace_path)

    def median_ms(name):
        return statistics.median((s["end"] - s["start"]) / 1000.0
                                 for s in spans if s["name"] == name)

    return {
        "family.build_ms": median_ms("FamilyBuild"),
        "plan.estimate_ms": median_ms("Estimate"),
    }
