#include "src/engine/metrics.h"

#include <algorithm>
#include <sstream>

#include "src/obs/registry.h"

namespace mrcost::engine {

void JobMetrics::PublishTo(obs::Registry& registry) const {
  registry.AddCounter("engine.rounds");
  registry.AddCounter("engine.inputs", num_inputs);
  registry.AddCounter("engine.pairs_shuffled", pairs_shuffled);
  registry.AddCounter("engine.pairs_before_combine", pairs_before_combine);
  registry.AddCounter("engine.bytes_shuffled", bytes_shuffled);
  registry.AddCounter("engine.reducers", num_reducers);
  registry.AddCounter("engine.outputs", num_outputs);
  registry.AddCounter("engine.blocks_emitted", blocks_emitted);
  registry.AddCounter("engine.bytes_copied", bytes_copied);
  if (external_shuffle()) {
    registry.AddCounter("engine.spill_runs", spill_runs);
    registry.AddCounter("engine.spill_bytes_written", spill_bytes_written);
    registry.AddCounter("engine.merge_passes", merge_passes);
  }
  if (speculative_launched > 0) {
    registry.AddCounter("engine.speculative_launched", speculative_launched);
    registry.AddCounter("engine.speculative_won", speculative_won);
  }
  if (hot_keys_split > 0) {
    registry.AddCounter("engine.hot_keys_split", hot_keys_split);
  }
  if (capacity_violations > 0) {
    registry.AddCounter("engine.capacity_violations", capacity_violations);
  }
  registry.MergeStats("engine.reducer_sizes", reducer_sizes);
  if (simulated()) {
    registry.MergeStats("engine.worker_loads", worker_loads);
    registry.SetGauge("engine.last_makespan", makespan);
    registry.SetGauge("engine.last_load_imbalance", load_imbalance);
    registry.SetGauge("engine.last_straggler_impact", straggler_impact);
  }
  if (partition_skew_ratio > 0) {
    registry.SetGauge("engine.last_partition_skew_ratio",
                      partition_skew_ratio);
  }
  if (compression_ratio > 0) {
    registry.SetGauge("engine.last_compression_ratio", compression_ratio);
  }
  if (timed()) {
    registry.ObserveStats("engine.round_span_ms", span_ms);
    registry.ObserveStats("engine.barrier_wait_ms", barrier_wait_ms);
    registry.ObserveStats("engine.overlap_ms", overlap_ms);
  }
}

std::string JobMetrics::ToString() const {
  std::ostringstream os;
  os << "inputs=" << num_inputs << " pairs=" << pairs_shuffled;
  if (pairs_before_combine != pairs_shuffled) {
    os << " (pre-combine " << pairs_before_combine << ")";
  }
  os << " bytes=" << bytes_shuffled << " reducers=" << num_reducers
     << " max_q=" << max_reducer_input << " outputs=" << num_outputs
     << " r=" << replication_rate();
  if (external_shuffle()) {
    os << " | spill: runs=" << spill_runs
       << " bytes=" << spill_bytes_written
       << " merge_passes=" << merge_passes;
    if (compression_ratio > 0) os << " compression=" << compression_ratio;
  }
  if (blocks_emitted > 0) {
    os << " | blocks: emitted=" << blocks_emitted
       << " copied_bytes=" << bytes_copied;
  }
  if (simulated()) {
    os << " | sim: workers=" << worker_loads.count()
       << " makespan=" << makespan << " imbalance=" << load_imbalance
       << " straggler_impact=" << straggler_impact
       << " capacity_violations=" << capacity_violations;
  }
  if (speculative_launched > 0 || hot_keys_split > 0 ||
      partition_skew_ratio > 0) {
    os << " | defense:";
    if (partition_skew_ratio > 0) {
      os << " partition_skew=" << partition_skew_ratio;
    }
    if (speculative_launched > 0) {
      os << " speculative=" << speculative_won << "/" << speculative_launched;
    }
    if (hot_keys_split > 0) os << " hot_keys_split=" << hot_keys_split;
  }
  if (timed()) {
    os << " | stages: map=" << map_ms << "ms shuffle=" << shuffle_ms
       << "ms reduce=" << reduce_ms << "ms barrier_wait=" << barrier_wait_ms
       << "ms overlap=" << overlap_fraction();
  }
  return os.str();
}

std::uint64_t PipelineMetrics::total_pairs() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.pairs_shuffled;
  return total;
}

std::uint64_t PipelineMetrics::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.bytes_shuffled;
  return total;
}

std::uint64_t PipelineMetrics::max_reducer_input() const {
  std::uint64_t max_q = 0;
  for (const auto& m : rounds) max_q = std::max(max_q, m.max_reducer_input);
  return max_q;
}

double PipelineMetrics::max_makespan() const {
  double worst = 0;
  for (const auto& m : rounds) worst = std::max(worst, m.makespan);
  return worst;
}

double PipelineMetrics::total_makespan() const {
  double total = 0;
  for (const auto& m : rounds) total += m.makespan;
  return total;
}

double PipelineMetrics::max_load_imbalance() const {
  double worst = 0;
  for (const auto& m : rounds) worst = std::max(worst, m.load_imbalance);
  return worst;
}

std::uint64_t PipelineMetrics::total_capacity_violations() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.capacity_violations;
  return total;
}

std::uint64_t PipelineMetrics::total_spill_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.spill_bytes_written;
  return total;
}

std::uint64_t PipelineMetrics::total_spill_runs() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.spill_runs;
  return total;
}

std::uint64_t PipelineMetrics::total_merge_passes() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.merge_passes;
  return total;
}

std::uint64_t PipelineMetrics::total_speculative_launched() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.speculative_launched;
  return total;
}

std::uint64_t PipelineMetrics::total_speculative_won() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.speculative_won;
  return total;
}

std::uint64_t PipelineMetrics::total_hot_keys_split() const {
  std::uint64_t total = 0;
  for (const auto& m : rounds) total += m.hot_keys_split;
  return total;
}

double PipelineMetrics::max_partition_skew_ratio() const {
  double worst = 0;
  for (const auto& m : rounds) worst = std::max(worst, m.partition_skew_ratio);
  return worst;
}

double PipelineMetrics::total_barrier_wait_ms() const {
  double total = 0;
  for (const auto& m : rounds) total += m.barrier_wait_ms;
  return total;
}

double PipelineMetrics::total_overlap_ms() const {
  double total = streamed_overlap_ms;
  for (const auto& m : rounds) total += m.overlap_ms;
  return total;
}

double PipelineMetrics::overlap_fraction() const {
  double span = exec_span_ms;
  if (span <= 0) {
    for (const auto& m : rounds) span += m.span_ms;
  }
  return span > 0 ? total_overlap_ms() / span : 0.0;
}

double PipelineMetrics::replication_rate(std::size_t i) const {
  return i < rounds.size() ? rounds[i].replication_rate() : 0.0;
}

double PipelineMetrics::total_replication_rate() const {
  if (rounds.empty() || rounds.front().num_inputs == 0) return 0.0;
  return static_cast<double>(total_pairs()) /
         static_cast<double>(rounds.front().num_inputs);
}

std::string PipelineMetrics::ToString() const {
  std::ostringstream os;
  os << rounds.size() << " round(s), total pairs=" << total_pairs()
     << ", total bytes=" << total_bytes()
     << ", total r=" << total_replication_rate();
  if (total_merge_passes() > 0) {
    os << ", spill runs=" << total_spill_runs()
       << ", spill bytes=" << total_spill_bytes();
  }
  if (total_capacity_violations() > 0 || max_makespan() > 0) {
    os << ", sim makespan=" << total_makespan()
       << ", worst imbalance=" << max_load_imbalance()
       << ", capacity violations=" << total_capacity_violations();
  }
  if (total_speculative_launched() > 0 || total_hot_keys_split() > 0) {
    os << ", speculative=" << total_speculative_won() << "/"
       << total_speculative_launched()
       << ", hot keys split=" << total_hot_keys_split();
  }
  if (total_overlap_ms() > 0 || streamed_rounds > 0) {
    os << ", overlap=" << overlap_fraction()
       << " (streamed rounds=" << streamed_rounds
       << "), barrier wait=" << total_barrier_wait_ms() << "ms";
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    os << "\n  round " << i + 1 << ": " << rounds[i].ToString();
  }
  return os.str();
}

std::vector<RoundCostReport> CompareToLowerBound(
    const PipelineMetrics& metrics, const core::Recipe& recipe) {
  std::vector<RoundCostReport> reports;
  reports.reserve(metrics.rounds.size());
  for (std::size_t i = 0; i < metrics.rounds.size(); ++i) {
    const JobMetrics& round = metrics.rounds[i];
    RoundCostReport report;
    report.round = i + 1;
    report.realized_q = static_cast<double>(round.max_reducer_input);
    report.realized_r = round.replication_rate();
    report.lower_bound_r = report.realized_q >= 1
                               ? core::ClampedReplicationLowerBound(
                                     recipe, report.realized_q)
                               : 0.0;
    report.optimality_ratio = report.lower_bound_r > 0
                                  ? report.realized_r / report.lower_bound_r
                                  : 0.0;
    report.simulated = round.simulated();
    report.makespan = round.makespan;
    report.load_imbalance = round.load_imbalance;
    report.straggler_impact = round.straggler_impact;
    report.capacity_violations = round.capacity_violations;
    report.speculative_launched = round.speculative_launched;
    report.speculative_won = round.speculative_won;
    report.hot_keys_split = round.hot_keys_split;
    report.partition_skew_ratio = round.partition_skew_ratio;
    report.external_shuffle = round.external_shuffle();
    report.spill_runs = round.spill_runs;
    report.spill_bytes_written = round.spill_bytes_written;
    report.merge_passes = round.merge_passes;
    report.compression_ratio = round.compression_ratio;
    report.blocks_emitted = round.blocks_emitted;
    report.bytes_copied = round.bytes_copied;
    report.timed = round.timed();
    report.map_ms = round.map_ms;
    report.shuffle_ms = round.shuffle_ms;
    report.reduce_ms = round.reduce_ms;
    report.barrier_wait_ms = round.barrier_wait_ms;
    report.overlap_fraction = round.overlap_fraction();
    reports.push_back(report);
  }
  return reports;
}

RoundCostReport CompareToLowerBound(const JobMetrics& metrics,
                                    const core::Recipe& recipe) {
  PipelineMetrics wrapped;
  wrapped.Add(metrics);
  return CompareToLowerBound(wrapped, recipe).front();
}

std::string ToString(const std::vector<RoundCostReport>& reports) {
  std::ostringstream os;
  for (const RoundCostReport& report : reports) {
    if (report.round > 1) os << "\n";
    os << "round " << report.round << ": q=" << report.realized_q
       << " r=" << report.realized_r << " bound=" << report.lower_bound_r
       << " ratio=" << report.optimality_ratio;
    if (report.external_shuffle) {
      os << " spill_runs=" << report.spill_runs
         << " spill_bytes=" << report.spill_bytes_written
         << " merge_passes=" << report.merge_passes;
      if (report.compression_ratio > 0) {
        os << " compression=" << report.compression_ratio;
      }
    }
    if (report.blocks_emitted > 0) {
      os << " blocks=" << report.blocks_emitted
         << " copied_bytes=" << report.bytes_copied;
    }
    if (report.simulated) {
      os << " makespan=" << report.makespan
         << " imbalance=" << report.load_imbalance
         << " straggler_impact=" << report.straggler_impact
         << " capacity_violations=" << report.capacity_violations;
    }
    if (report.speculative_launched > 0 || report.hot_keys_split > 0 ||
        report.partition_skew_ratio > 0) {
      os << " partition_skew=" << report.partition_skew_ratio
         << " speculative=" << report.speculative_won << "/"
         << report.speculative_launched
         << " hot_keys_split=" << report.hot_keys_split;
    }
    if (report.timed) {
      os << " map_ms=" << report.map_ms << " shuffle_ms=" << report.shuffle_ms
         << " reduce_ms=" << report.reduce_ms
         << " barrier_wait_ms=" << report.barrier_wait_ms
         << " overlap=" << report.overlap_fraction;
    }
  }
  return os.str();
}

}  // namespace mrcost::engine
