#ifndef MRCOST_ENGINE_METRICS_H_
#define MRCOST_ENGINE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/lower_bound.h"

namespace mrcost::obs {
class Registry;
}  // namespace mrcost::obs

namespace mrcost::engine {

/// Exact cost accounting for one map-reduce round, in the units the paper
/// reasons about (Section 2.2):
///   * communication = number of key-value pairs crossing the shuffle
///     (plus a byte estimate),
///   * reducer size q_i = length of each reducer's value list,
///   * replication rate r = (sum of q_i) / (number of inputs).
struct JobMetrics {
  std::uint64_t num_inputs = 0;
  /// Key-value pairs crossing the shuffle == Sum_i q_i. When a combiner
  /// runs, this counts post-combine pairs (what actually crosses the
  /// network).
  std::uint64_t pairs_shuffled = 0;
  /// Pairs emitted by map functions before any map-side combining;
  /// equals pairs_shuffled when no combiner is used.
  std::uint64_t pairs_before_combine = 0;
  std::uint64_t bytes_shuffled = 0;
  /// Number of distinct reduce keys (the paper's "reducers").
  std::uint64_t num_reducers = 0;
  /// Max over reducers of the input-list length (the realized q).
  std::uint64_t max_reducer_input = 0;
  std::uint64_t num_outputs = 0;

  /// Distribution of q_i across reducers.
  common::RunningStats reducer_sizes;
  /// Distribution of per-worker input load (pairs) when keys are assigned
  /// to simulated reduce workers (empty if not simulated).
  common::RunningStats worker_loads;

  /// Cluster-simulation results (all zero unless the round ran with
  /// SimulationOptions enabled; see src/engine/simulator.h):
  /// time the slowest simulated worker finished,
  double makespan = 0;
  /// max/mean per-worker load in pairs (1.0 = perfectly even),
  double load_imbalance = 0;
  /// makespan relative to identical-speed workers (1.0 = homogeneous),
  double straggler_impact = 0;
  /// and reducers whose input exceeded the configured capacity q.
  std::uint64_t capacity_violations = 0;

  /// Skew-defense accounting (all zero when no defense ran; see
  /// src/engine/partitioner.h and SpeculationConfig in executor.h):
  /// speculative backup tasks the executor launched for slow shards,
  std::uint64_t speculative_launched = 0;
  /// backups that finished before the original (first finisher wins),
  std::uint64_t speculative_won = 0;
  /// hot keys the simulated defense split across sub-reducers,
  std::uint64_t hot_keys_split = 0;
  /// and max/mean routed rows per shard after partitioning (1.0 =
  /// perfectly even shards; 0 when the round did not route shards).
  double partition_skew_ratio = 0;

  /// Stage-graph timing (all zero when the round ran untimed — see
  /// src/engine/executor.h). Wall-clock spans of the map, shuffle
  /// (group/merge), and reduce stages:
  double map_ms = 0;
  double shuffle_ms = 0;
  double reduce_ms = 0;
  /// Idle thread-time at the graph's real dependency edges: map chunks
  /// waiting for the slowest map before grouping can start, plus each
  /// shard's gap between group end and reduce start — the barrier cost
  /// the paper's per-round pricing abstracts away.
  double barrier_wait_ms = 0;
  /// Wall-clock during which two adjacent stages ran concurrently (a
  /// shard reducing while other shards still group); always 0 under a
  /// strict phase-barrier schedule.
  double overlap_ms = 0;
  /// The round's whole span (first map start to last reduce end).
  double span_ms = 0;

  /// External-shuffle spill accounting (all zero unless the round ran
  /// ShuffleStrategy::kExternal; see src/storage/):
  /// bytes written to spill files (map-side runs plus multi-pass merge
  /// rewrites),
  std::uint64_t spill_bytes_written = 0;
  /// sorted runs spilled to disk by over-budget map batches,
  std::uint64_t spill_runs = 0;
  /// and k-way merge passes, the final grouping pass included (>1 means
  /// the run count exceeded the merge fan-in).
  std::uint64_t merge_passes = 0;

  /// Columnar-block accounting (src/storage/block.h):
  /// blocks map tasks handed downstream (emitter flushes plus live
  /// tail blocks),
  std::uint64_t blocks_emitted = 0;
  /// bytes physically copied into blocks (key arena bytes + moved value
  /// objects) — compare against bytes_shuffled to see the copy saving,
  std::uint64_t bytes_copied = 0;
  /// and raw/encoded ratio over every block the spill path encoded
  /// (>1 means the codec + dictionary shrank the spill; 0 when the round
  /// spilled nothing).
  double compression_ratio = 0;

  /// True iff this round ran the external (spill-to-disk) shuffle.
  bool external_shuffle() const { return merge_passes > 0; }

  /// True iff this round ran the cluster simulation.
  bool simulated() const { return worker_loads.count() > 0; }

  /// True iff the round recorded stage timings.
  bool timed() const { return span_ms > 0; }

  /// overlap_ms / span_ms: the fraction of the round's wall clock during
  /// which adjacent stages overlapped. 0 when untimed.
  double overlap_fraction() const {
    return span_ms > 0 ? overlap_ms / span_ms : 0.0;
  }

  /// r = pairs_shuffled / num_inputs; 0 when there are no inputs.
  double replication_rate() const {
    return num_inputs == 0 ? 0.0
                           : static_cast<double>(pairs_shuffled) /
                                 static_cast<double>(num_inputs);
  }

  /// Accumulates this round into the obs registry under "engine.*" names
  /// (counters for pair/byte/spill totals, stats for reducer sizes,
  /// gauges for ratios). The struct stays the source of truth for a
  /// single round; the registry aggregates across rounds and jobs.
  void PublishTo(obs::Registry& registry) const;

  std::string ToString() const;
};

/// Accumulated metrics across the rounds of a multi-round computation
/// (Section 6.3's two-phase matrix multiplication).
struct PipelineMetrics {
  std::vector<JobMetrics> rounds;

  /// Cross-round streaming observed by the plan executor: wall-clock
  /// during which a streamed round's map overlapped its producer's
  /// reduce, the executor's whole span, and how many rounds consumed
  /// their input as a stream. All zero for barrier (sequential-round)
  /// executions.
  double streamed_overlap_ms = 0;
  double exec_span_ms = 0;
  std::size_t streamed_rounds = 0;

  void Add(JobMetrics m) { rounds.push_back(std::move(m)); }

  std::uint64_t total_pairs() const;
  std::uint64_t total_bytes() const;
  std::uint64_t max_reducer_input() const;
  /// Simulation aggregates across rounds (0 when no round was simulated):
  /// the slowest round's makespan, the sum of round makespans (total
  /// simulated wall clock — rounds are barriers), the worst per-round
  /// imbalance, and the total capacity violations.
  double max_makespan() const;
  double total_makespan() const;
  double max_load_imbalance() const;
  std::uint64_t total_capacity_violations() const;
  /// Spill aggregates across rounds (0 when no round shuffled
  /// externally).
  std::uint64_t total_spill_bytes() const;
  std::uint64_t total_spill_runs() const;
  std::uint64_t total_merge_passes() const;
  /// Timing aggregates (0 when rounds ran untimed): total idle
  /// thread-time at stage barriers, total stage overlap (within-round
  /// plus cross-round streaming), and the overlap as a fraction of the
  /// execution span.
  double total_barrier_wait_ms() const;
  double total_overlap_ms() const;
  double overlap_fraction() const;
  /// Skew-defense aggregates (0 when no round ran a defense): speculative
  /// backups launched/won across rounds, hot keys split, and the worst
  /// per-round partition skew.
  std::uint64_t total_speculative_launched() const;
  std::uint64_t total_speculative_won() const;
  std::uint64_t total_hot_keys_split() const;
  double max_partition_skew_ratio() const;

  /// Replication rate of round `i` (0-based): rounds[i].replication_rate().
  double replication_rate(std::size_t i) const;
  /// Whole-computation replication rate: every pair shuffled in any round,
  /// charged against the round-1 input count — the multi-round analogue of
  /// r that makes two-phase algorithms (Section 6.3) comparable with their
  /// one-phase rivals on a single number. 0 when no rounds have run.
  double total_replication_rate() const;

  std::string ToString() const;
};

/// Realized-vs-bound accounting for one round of a multi-round
/// computation, in the paper's coordinates: the realized reducer load q
/// (max input-list length), the realized replication rate
/// r = pairs_shuffled / num_inputs, and the Section 2.4 recipe lower
/// bound on r at that q (clamped at the trivial r >= 1).
struct RoundCostReport {
  std::size_t round = 0;  // 1-based, matching PipelineMetrics::ToString
  double realized_q = 0;
  double realized_r = 0;
  double lower_bound_r = 0;
  /// realized_r / lower_bound_r. For a round that solves the recipe's
  /// problem outright this is >= 1 (Equation 4), and close to 1 means the
  /// schema is communication-optimal at its q. A ratio below 1 is not a
  /// bound violation — it is the signature of a round that only computes
  /// partial results (e.g. round 1 of Section 6.3's two-phase matmul),
  /// quantifying exactly how much the multi-round computation evades the
  /// single-round tradeoff.
  double optimality_ratio = 0;

  /// Cluster-simulation results for the round, copied from JobMetrics when
  /// the round was simulated (see src/engine/simulator.h): how the paper's
  /// q/r point actually behaved on the simulated cluster.
  bool simulated = false;
  double makespan = 0;
  double load_imbalance = 0;
  double straggler_impact = 0;
  std::uint64_t capacity_violations = 0;

  /// Skew-defense counters for the round, copied from JobMetrics (all
  /// zero when no defense ran): speculative backups launched/won, hot
  /// keys split, and the shard-placement skew the partitioner realized.
  std::uint64_t speculative_launched = 0;
  std::uint64_t speculative_won = 0;
  std::uint64_t hot_keys_split = 0;
  double partition_skew_ratio = 0;

  /// External-shuffle spill counters for the round, copied from JobMetrics
  /// when the round shuffled externally (see src/storage/): how much of
  /// the round's communication had to move through disk to fit the memory
  /// budget.
  bool external_shuffle = false;
  std::uint64_t spill_runs = 0;
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t merge_passes = 0;
  /// Raw/encoded ratio over the round's spilled blocks (0 = no spill).
  double compression_ratio = 0;

  /// Columnar-block counters for the round, copied from JobMetrics:
  /// blocks the map stage handed downstream, and the bytes physically
  /// copied into them (vs bytes_shuffled crossing the shuffle).
  std::uint64_t blocks_emitted = 0;
  std::uint64_t bytes_copied = 0;

  /// Stage-graph timings for the round, copied from JobMetrics when the
  /// round ran timed (see src/engine/executor.h): where the round's wall
  /// clock went, what the stage barriers cost, and how much adjacent
  /// stages overlapped — the execution-side cost the paper's per-round
  /// (q, r) pricing abstracts away.
  bool timed = false;
  double map_ms = 0;
  double shuffle_ms = 0;
  double reduce_ms = 0;
  double barrier_wait_ms = 0;
  double overlap_fraction = 0;
};

/// Evaluates every round of `metrics` against `recipe`'s lower bound.
std::vector<RoundCostReport> CompareToLowerBound(
    const PipelineMetrics& metrics, const core::Recipe& recipe);

/// Single-round convenience: evaluates one JobMetrics (a one-round job or
/// schema-stat synthesis) against `recipe` — what the bench tables call.
RoundCostReport CompareToLowerBound(const JobMetrics& metrics,
                                    const core::Recipe& recipe);

std::string ToString(const std::vector<RoundCostReport>& reports);

}  // namespace mrcost::engine

#endif  // MRCOST_ENGINE_METRICS_H_
