#include "src/engine/plan.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "src/obs/export.h"

namespace mrcost::engine {
namespace internal {
namespace {

/// Pairs below this estimate run the serial reference shuffle — the same
/// regime where ResolveShardCount's auto mode would collapse to one shard
/// anyway (its kMinPairsPerShard), decided here before the map runs.
constexpr double kSerialCutoffPairs = 4096;

/// Extrapolates the sample's distinct-key count to the full input: exact
/// when exhaustive, else linear in the input count (a deliberate, crude
/// upper bound — fan-out schemas revisit keys, so scaling overestimates;
/// declared hints beat it).
double ExtrapolateDistinct(const MapSample& sample, double num_inputs) {
  if (sample.exhaustive) return static_cast<double>(sample.distinct_keys);
  if (sample.sampled_inputs == 0) return num_inputs;
  return static_cast<double>(sample.distinct_keys) * num_inputs /
         static_cast<double>(sample.sampled_inputs);
}

std::string HumanBytes(double bytes) {
  std::ostringstream os;
  if (bytes >= 1024.0 * 1024.0) {
    os << bytes / (1024.0 * 1024.0) << " MiB";
  } else if (bytes >= 1024.0) {
    os << bytes / 1024.0 << " KiB";
  } else {
    os << bytes << " B";
  }
  return os.str();
}

}  // namespace

JobOptions ResolveRoundOptions(const PlanNode& node,
                               const ExecutionOptions& options) {
  JobOptions resolved =
      node.options.has_value()
          ? MergedJobOptions(*node.options, options.pipeline.round_defaults)
          : options.pipeline.round_defaults;
  resolved.shuffle = resolved.shuffle.MergedOver(options.pipeline.shuffle);
  // Execution-wide simulation backstop: a round that configures nothing
  // itself inherits the execution's simulated cluster.
  if (!resolved.simulation.enabled() &&
      options.pipeline.simulation.enabled()) {
    resolved.simulation = options.pipeline.simulation;
  }
  return resolved;
}

/// The in-memory shuffles briefly hold the map output and its grouped
/// copy at once, and the sample is an extrapolation; a round is only kept
/// in memory when its estimated intermediate fits the budget with this
/// factor of headroom, so a mispredicted sample errs toward spilling
/// (the budget-respecting side), not toward blowing the budget.
constexpr double kInMemoryHeadroomFactor = 2.0;

/// The one decision rule behind both the Execute-time chooser and
/// Estimate's planned_strategy annotation, fed by whichever estimates are
/// available (a map-fn sample at execution, declared hints + optional
/// sample at estimation). Unknown bytes with a budget set fall back to
/// the conservative Resolved() rule (budget => external).
ShuffleStrategy ChooseFromEstimates(const ShuffleConfig& config,
                                    double estimated_pairs,
                                    double estimated_bytes,
                                    bool bytes_known) {
  if (config.strategy != ShuffleStrategy::kAuto) return config.strategy;
  if (config.memory_budget_bytes > 0) {
    if (!bytes_known) return config.Resolved();
    if (kInMemoryHeadroomFactor * estimated_bytes >
        static_cast<double>(config.memory_budget_bytes)) {
      return ShuffleStrategy::kExternal;
    }
  }
  if (estimated_pairs <= kSerialCutoffPairs) return ShuffleStrategy::kSerial;
  return ShuffleStrategy::kSharded;
}

ShuffleStrategy ChooseStrategy(const ShuffleConfig& config,
                               const MapSample& sample,
                               std::size_t num_inputs) {
  if (config.strategy != ShuffleStrategy::kAuto) return config.strategy;
  if (!sample.valid || num_inputs == kUnknownSize) return config.Resolved();
  const double n = static_cast<double>(num_inputs);
  return ChooseFromEstimates(config, sample.pairs_per_input * n,
                             sample.bytes_per_input * n,
                             /*bytes_known=*/true);
}

/// A key whose sampled group is this many times the mean group marks the
/// distribution as skewed enough that equal-width hash placement will
/// overload whichever shard owns it — sampled-range placement pays one
/// extra routing pass to rebalance.
constexpr double kSkewTriggerRatio = 4.0;

PartitionerKind ChoosePartitioner(const ShuffleConfig& config,
                                  const MapSample& sample) {
  if (config.partitioner != PartitionerKind::kAuto) {
    return config.partitioner;
  }
  if (!sample.valid || sample.distinct_keys == 0) {
    return PartitionerKind::kHash;
  }
  const double sampled_pairs =
      sample.pairs_per_input * static_cast<double>(sample.sampled_inputs);
  const double mean_group =
      sampled_pairs / static_cast<double>(sample.distinct_keys);
  return static_cast<double>(sample.max_group) >
                 kSkewTriggerRatio * std::max(mean_group, 1.0)
             ? PartitionerKind::kSampledRange
             : PartitionerKind::kHash;
}

/// What the planner would tell the cost model about this round, mirroring
/// EstimatePlanGraph's pricing inputs: declared hints first, the chooser's
/// map sample as fallback. Attached to the round's trace span and used for
/// per-stage calibration residuals after the round runs.
RoundPrediction PredictRound(const PlanNode& node, const MapSample& sample,
                             std::size_t input_size,
                             const core::Recipe* recipe) {
  RoundPrediction pred;
  const double n =
      input_size != kUnknownSize ? static_cast<double>(input_size) : 0.0;
  const StageEstimate& hint = node.hint;
  const double r = hint.replication > 0
                       ? hint.replication
                       : (sample.valid ? sample.pairs_per_input : 0.0);
  if (r <= 0) return pred;  // nothing declared or sampled
  pred.r = r;
  pred.valid = true;
  const double reducers =
      hint.num_reducers > 0
          ? hint.num_reducers
          : (sample.valid && n > 0 ? ExtrapolateDistinct(sample, n) : 0.0);
  if (hint.num_reducers <= 0 && sample.valid && sample.exhaustive) {
    // An exhaustive sample knows the exact max input-list length.
    pred.q = static_cast<double>(sample.max_group);
  } else if (reducers > 0 && n > 0) {
    pred.q = r * n / reducers;
  }
  if (recipe != nullptr && pred.q >= 1) {
    const double lower_bound =
        core::ClampedReplicationLowerBound(*recipe, pred.q);
    if (lower_bound > 0) pred.bound_ratio = pred.r / lower_bound;
  }
  return pred;
}

PipelineMetrics ExecutePlanGraph(PlanGraph& graph,
                                 const ExecutionOptions& options,
                                 std::size_t target) {
  if (options.backend == ExecutionBackend::kMultiProcess) {
    return ExecutePlanGraphMulti(graph, options, target);
  }
  // Tracing/metrics capture spans the whole execution; files are written
  // when the scope closes, after metrics (and calibration) are final.
  std::optional<obs::ScopedCapture> capture;
  if (!options.trace_out.empty() || !options.metrics_out.empty()) {
    capture.emplace(options.trace_out, options.metrics_out);
  }
  // Only the target's ancestry runs (everything when target == kNoNode):
  // node order is creation order, so producers precede consumers.
  std::vector<bool> needed(graph.nodes.size(), target == kNoNode);
  for (std::size_t id = target;
       id != kNoNode && id < graph.nodes.size();
       id = graph.nodes[id].input) {
    needed[id] = true;
  }

  JobOptions sizing;
  sizing.num_threads = options.pipeline.num_threads;
  sizing.pool = options.pipeline.pool;
  PoolRef pool(sizing);
  StageGraphExecutor exec(pool.get());
  graph.last_strategies.clear();

  // How many needed rounds consume each node's output. Streaming needs a
  // sole consumer: the producer's finalize (which moves the shard
  // outputs) is sequenced behind exactly that consumer's map tasks.
  std::vector<int> needed_consumers(graph.nodes.size(), 0);
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    if (needed[id] && !graph.nodes[id].is_source &&
        graph.nodes[id].input != kNoNode) {
      ++needed_consumers[graph.nodes[id].input];
    }
  }

  std::vector<std::shared_ptr<StagedHandleBase>> handles(graph.nodes.size());
  // Rounds staged but not yet finalized/awaited — the open streaming
  // chain. Every non-streamed round first closes it (the old sequential
  // schedule); a streamed round keeps it growing instead.
  std::vector<std::size_t> open;
  std::vector<std::size_t> executed;  // round node ids, node order
  struct StreamedEdge {
    std::size_t producer;
    std::size_t consumer;
  };
  std::vector<StreamedEdge> streamed;

  const auto close_chain = [&] {
    if (open.empty()) return;
    for (std::size_t id : open) {
      handles[id]->StageFinalize({});
    }
    open.clear();
    exec.Wait();
  };

  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    PlanNode& node = graph.nodes[id];
    if (node.is_source || !needed[id]) continue;
    executed.push_back(id);
    JobOptions resolved = ResolveRoundOptions(node, options);

    const std::size_t producer = node.input;
    const bool producer_open =
        producer != kNoNode &&
        std::find(open.begin(), open.end(), producer) != open.end();
    bool stream = options.streaming && node.per_key_input &&
                  !node.combined && producer_open &&
                  needed_consumers[producer] == 1;
    if (stream) {
      // A streamed round has no materialized input to sample, so the
      // strategy resolves from the config alone; external (spill) rounds
      // fall back to the barrier path — spilling wants the whole input
      // on hand anyway.
      const ShuffleStrategy s = resolved.shuffle.Resolved();
      if (s == ShuffleStrategy::kExternal) {
        stream = false;
      } else {
        resolved.shuffle.strategy = s;
      }
    }

    MapSample sample;
    std::shared_ptr<StagedHandleBase> handle;
    if (stream) {
      handle = node.stage(graph, exec, resolved, handles[producer], 0);
      if (handle != nullptr) {
        // The producer's finalize moves its shard outputs; sequence it
        // behind the consumer's map tasks that read them.
        handles[producer]->StageFinalize(handle->map_task_ids());
        streamed.push_back(StreamedEdge{producer, id});
      }
    }
    if (handle == nullptr) {
      close_chain();  // materialize this round's input
      if (options.choose_strategy_per_round &&
          resolved.shuffle.strategy == ShuffleStrategy::kAuto) {
        sample = node.sample(graph, options.strategy_sample_inputs);
        resolved.shuffle.strategy = ChooseStrategy(resolved.shuffle, sample,
                                                   node.input_size(graph));
        // An explicit shard request asks for the sharded code path; the
        // small-round serial downgrade must not override it (the eager
        // ResolveShardCount honors the request too).
        if (resolved.shuffle.strategy == ShuffleStrategy::kSerial &&
            resolved.num_shards > 1) {
          resolved.shuffle.strategy = ShuffleStrategy::kSharded;
        }
      }
      if (options.choose_strategy_per_round &&
          resolved.shuffle.partitioner == PartitionerKind::kAuto) {
        // Same sample feeds the placement decision: a skewed key
        // distribution flips the round to sampled-range partitioning
        // (outputs unchanged — the deterministic merge runs on scan
        // tags, not shard ownership).
        if (!sample.valid) {
          sample = node.sample(graph, options.strategy_sample_inputs);
        }
        resolved.shuffle.partitioner =
            ChoosePartitioner(resolved.shuffle, sample);
      }
      // Shard sizing from whatever estimate is on hand: the declared
      // schema replication, else the chooser's sample (0 = unknown).
      std::uint64_t pairs_hint = 0;
      const std::size_t input_size = node.input_size(graph);
      if (input_size != kUnknownSize) {
        const double n = static_cast<double>(input_size);
        if (node.hint.replication > 0) {
          pairs_hint =
              static_cast<std::uint64_t>(node.hint.replication * n);
        } else if (sample.valid) {
          pairs_hint =
              static_cast<std::uint64_t>(sample.pairs_per_input * n);
        }
      }
      handle = node.stage(graph, exec, resolved, nullptr, pairs_hint);
    }
    handles[id] = handle;
    handle->SetPrediction(
        PredictRound(node, sample, node.input_size(graph), options.recipe));
    open.push_back(id);
    graph.last_strategies.push_back(handle->strategy());
  }
  close_chain();

  PipelineMetrics metrics;
  for (std::size_t id : executed) metrics.Add(handles[id]->metrics());
  metrics.streamed_rounds = streamed.size();
  if (!executed.empty()) {
    const auto records = exec.SnapshotRecords();
    double begin = records.front().span.begin_ms;
    double end = records.front().span.end_ms;
    for (const auto& record : records) {
      begin = std::min(begin, record.span.begin_ms);
      end = std::max(end, record.span.end_ms);
    }
    metrics.exec_span_ms = end - begin;
    // Cross-round overlap per streamed edge: the producer's reduce window
    // against the consumer's map window.
    for (const StreamedEdge& edge : streamed) {
      const StageWindow reduce =
          WindowOf(exec, handles[edge.producer]->reduce_task_ids());
      const StageWindow map =
          WindowOf(exec, handles[edge.consumer]->map_task_ids());
      metrics.streamed_overlap_ms += IntervalOverlap(
          reduce.begin, reduce.end, map.begin, map.end);
    }
  }
  // Feed realized skew and per-stage residuals back into the caller's
  // calibration so later estimates price the cluster — and the stages —
  // that actually ran: "map" carries the replication (communication)
  // residual, "reduce" the max-reducer-input residual.
  if (options.calibration != nullptr) {
    for (std::size_t id : executed) {
      const JobMetrics& m = handles[id]->metrics();
      if (m.simulated()) {
        options.calibration->Observe(m.load_imbalance, m.straggler_impact);
      }
      const RoundPrediction& pred = handles[id]->prediction();
      if (pred.valid) {
        if (pred.r > 0 && m.replication_rate() > 0) {
          options.calibration->ObserveStage(
              "map", m.replication_rate() / pred.r);
        }
        if (pred.q > 0 && m.max_reducer_input > 0) {
          options.calibration->ObserveStage(
              "reduce",
              static_cast<double>(m.max_reducer_input) / pred.q);
        }
      }
    }
  }
  return metrics;
}

PlanEstimate EstimatePlanGraph(const PlanGraph& graph,
                               const core::Recipe& recipe,
                               const EstimateOptions& options) {
  PlanEstimate estimate;
  // Predicted output count per node, so each round reads its own
  // producer's prediction (node.input) — correct for branched plans and
  // multiple sources, not just a single chain.
  std::vector<double> predicted_outputs(graph.nodes.size(), 0);
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const PlanNode& node = graph.nodes[id];
    if (node.is_source) {
      predicted_outputs[id] = static_cast<double>(node.source_size);
      continue;
    }
    RoundEstimate round;
    round.round = estimate.rounds.size() + 1;
    round.label = node.label;

    const std::size_t materialized = node.input_size(graph);
    if (materialized != kUnknownSize) {
      round.num_inputs = static_cast<double>(materialized);
      round.inputs_known = true;
    } else {
      round.num_inputs = predicted_outputs[node.input];
    }

    const StageEstimate& hint = node.hint;
    // The shuffle config the planned_strategy annotation is judged
    // against: per-stage overrides merged over the estimate's config,
    // the same order the Execute-time chooser resolves.
    const ShuffleConfig stage_shuffle =
        node.options.has_value()
            ? node.options->shuffle.MergedOver(options.shuffle)
            : options.shuffle;
    // A stage declaring both r and its reducer count is priced without
    // executing anything; sampling runs only to fill a missing core
    // field — or, when the stage's resolved shuffle config sets a budget
    // and no bytes_per_pair is declared, to give the planned_strategy
    // annotation the bytes the budget comparison needs.
    MapSample sample;
    const bool need_sample =
        hint.replication <= 0 || hint.num_reducers <= 0 ||
        (stage_shuffle.memory_budget_bytes > 0 &&
         hint.bytes_per_pair <= 0);
    if (need_sample && materialized != kUnknownSize) {
      sample = node.sample(graph, options.max_sample_inputs);
    }
    round.sampled = sample.valid;

    const double replication =
        hint.replication > 0
            ? hint.replication
            : (sample.valid ? sample.pairs_per_input : 1.0);
    const double reducers =
        hint.num_reducers > 0
            ? hint.num_reducers
            : (sample.valid ? ExtrapolateDistinct(sample, round.num_inputs)
                            : round.num_inputs);
    round.predicted_r = replication;
    round.predicted_pairs = replication * round.num_inputs;
    round.predicted_reducers = reducers;
    if (hint.num_reducers <= 0 && sample.valid && sample.exhaustive) {
      // An exhaustive sample knows the exact max input-list length.
      round.predicted_q = static_cast<double>(sample.max_group);
    } else {
      round.predicted_q =
          reducers > 0 ? round.predicted_pairs / reducers : 0;
    }
    round.predicted_bytes =
        hint.bytes_per_pair > 0
            ? hint.bytes_per_pair * round.predicted_pairs
            : (sample.valid ? sample.bytes_per_input * round.num_inputs : 0);

    round.lower_bound_r =
        round.predicted_q >= 1
            ? core::ClampedReplicationLowerBound(recipe, round.predicted_q)
            : 0;
    round.optimality_ratio = round.lower_bound_r > 0
                                 ? round.predicted_r / round.lower_bound_r
                                 : 0;
    round.cost =
        options.cost_model.Cost(round.predicted_r, round.predicted_q);
    if (options.calibration != nullptr &&
        (options.calibration->observations() > 0 ||
         options.calibration->stage_observations("map") > 0 ||
         options.calibration->stage_observations("reduce") > 0)) {
      // Calibrated correction, two independent knobs: per-stage residuals
      // scale the predictions themselves (executed rounds reported how far
      // realized r and q landed from the model's), then the realized-skew
      // factor inflates the processing/wall-clock terms for uneven
      // placement. Both default to 1.0 when unobserved, so an uncalibrated
      // estimate is unchanged. Communication (r) is placement-independent
      // and skips the skew factor.
      const double skew = options.calibration->skew_factor();
      const double calibrated_r =
          round.predicted_r * options.calibration->stage_factor("map");
      const double calibrated_q =
          round.predicted_q * options.calibration->stage_factor("reduce");
      const core::CostModel& cm = options.cost_model;
      round.cost = cm.communication_weight * calibrated_r +
                   skew * (cm.processing_weight * calibrated_q +
                           cm.wallclock_weight * calibrated_q *
                               calibrated_q);
    }
    // The same decision rule the Execute-time chooser applies, fed by the
    // round's (declared or sampled) predictions.
    round.planned_strategy = ChooseFromEstimates(
        stage_shuffle, round.predicted_pairs, round.predicted_bytes,
        /*bytes_known=*/round.predicted_bytes > 0);
    if (round.planned_strategy == ShuffleStrategy::kSerial &&
        node.options.has_value() && node.options->num_shards > 1) {
      round.planned_strategy = ShuffleStrategy::kSharded;
    }

    const double outputs_per_reducer =
        hint.outputs_per_reducer > 0 ? hint.outputs_per_reducer : 1.0;
    predicted_outputs[id] = reducers * outputs_per_reducer;
    estimate.rounds.push_back(std::move(round));
  }
  return estimate;
}

std::string ExplainPlanGraph(const PlanGraph& graph,
                             const ExecutionOptions& options) {
  std::ostringstream os;
  std::size_t round_index = 0;
  for (std::size_t id = 0; id < graph.nodes.size(); ++id) {
    const PlanNode& node = graph.nodes[id];
    if (id > 0) os << "\n";
    if (node.is_source) {
      os << "source '" << node.label << "': " << node.source_size
         << " inputs materialized";
      continue;
    }
    ++round_index;
    os << "round " << round_index << " '" << node.label << "' ("
       << (node.combined ? "map+combine+reduce" : "map+reduce") << ")";

    const std::size_t materialized = node.input_size(graph);
    os << "\n  inputs: ";
    if (materialized != kUnknownSize) {
      os << materialized << " (materialized)";
    } else {
      os << "unmaterialized (produced by round upstream)";
    }

    JobOptions resolved = ResolveRoundOptions(node, options);
    os << "\n  shuffle: ";
    if (resolved.shuffle.strategy != ShuffleStrategy::kAuto) {
      os << ToString(resolved.shuffle.strategy) << " (explicit)";
    } else if (!options.choose_strategy_per_round) {
      os << ToString(resolved.shuffle.Resolved()) << " (auto, no chooser)";
    } else if (materialized == kUnknownSize) {
      os << "auto (chooser decides at run time from estimated bytes vs "
         << (resolved.shuffle.memory_budget_bytes > 0
                 ? HumanBytes(static_cast<double>(
                       resolved.shuffle.memory_budget_bytes)) + " budget"
                 : std::string("no budget")) << ")";
    } else {
      const MapSample sample =
          node.sample(graph, options.strategy_sample_inputs);
      const ShuffleStrategy chosen =
          ChooseStrategy(resolved.shuffle, sample,
                         materialized);
      os << ToString(chosen) << " (chooser: ~"
         << HumanBytes(sample.bytes_per_input *
                       static_cast<double>(materialized))
         << " intermediate vs "
         << (resolved.shuffle.memory_budget_bytes > 0
                 ? HumanBytes(static_cast<double>(
                       resolved.shuffle.memory_budget_bytes)) + " budget"
                 : std::string("no budget"))
         << ")";
      const PartitionerKind partitioner =
          ChoosePartitioner(resolved.shuffle, sample);
      os << "\n  partitioner: " << ToString(partitioner);
      if (resolved.shuffle.partitioner != PartitionerKind::kAuto) {
        os << " (explicit)";
      } else if (partitioner == PartitionerKind::kSampledRange) {
        os << " (chooser: hottest sampled key x"
           << (sample.distinct_keys > 0
                   ? static_cast<double>(sample.max_group) /
                         std::max(1.0, sample.pairs_per_input *
                                           static_cast<double>(
                                               sample.sampled_inputs) /
                                           static_cast<double>(
                                               sample.distinct_keys))
                   : 0.0)
           << " the mean group)";
      } else {
        os << " (chooser: keys spread evenly)";
      }
    }
    os << "\n  shards: ";
    if (resolved.num_shards > 0) {
      os << resolved.num_shards;
    } else {
      os << "auto (per thread, capped for small rounds)";
    }
    if (resolved.shuffle.memory_budget_bytes > 0) {
      os << "\n  memory budget: "
         << HumanBytes(
                static_cast<double>(resolved.shuffle.memory_budget_bytes))
         << (resolved.shuffle.spill_dir.empty()
                 ? std::string(", spill dir: <system temp>")
                 : ", spill dir: " + resolved.shuffle.spill_dir);
    }
    // ResolveRoundOptions already applied the execution-wide backstop.
    const SimulationOptions simulation = resolved.ResolvedSimulation();
    os << "\n  simulation: ";
    if (simulation.enabled()) {
      os << simulation.num_workers << " workers";
      if (simulation.reducer_capacity_q > 0) {
        os << ", capacity q=" << simulation.reducer_capacity_q;
      }
      if (simulation.straggler_fraction > 0) {
        os << ", stragglers " << simulation.straggler_fraction << "x"
           << simulation.straggler_slowdown;
      }
    } else {
      os << "off";
    }
  }
  return os.str();
}

}  // namespace internal

double PlanEstimate::total_predicted_pairs() const {
  double total = 0;
  for (const RoundEstimate& round : rounds) total += round.predicted_pairs;
  return total;
}

double PlanEstimate::total_cost() const {
  double total = 0;
  for (const RoundEstimate& round : rounds) total += round.cost;
  return total;
}

std::string PlanEstimate::ToString() const {
  std::ostringstream os;
  for (const RoundEstimate& round : rounds) {
    if (round.round > 1) os << "\n";
    os << "round " << round.round << " '" << round.label
       << "': inputs=" << round.num_inputs
       << (round.inputs_known ? "" : " (propagated)")
       << " q=" << round.predicted_q << " r=" << round.predicted_r
       << " pairs=" << round.predicted_pairs
       << " reducers=" << round.predicted_reducers
       << " bound=" << round.lower_bound_r
       << " ratio=" << round.optimality_ratio << " cost=" << round.cost
       << " strategy=" << engine::ToString(round.planned_strategy)
       << (round.sampled ? " (sampled)" : " (declared)");
  }
  return os.str();
}

std::size_t Plan::num_rounds() const {
  std::size_t rounds = 0;
  for (const internal::PlanNode& node : graph_->nodes) {
    if (!node.is_source) ++rounds;
  }
  return rounds;
}

PlanEstimate Plan::Estimate(const core::Recipe& recipe,
                            const EstimateOptions& options) const {
  return internal::EstimatePlanGraph(*graph_, recipe, options);
}

std::string Plan::Explain(const ExecutionOptions& options) const {
  return internal::ExplainPlanGraph(*graph_, options);
}

PipelineMetrics Plan::Execute(const ExecutionOptions& options) {
  return internal::ExecutePlanGraph(*graph_, options, internal::kNoNode);
}

std::future<PipelineMetrics> Plan::ExecuteAsync(ExecutionOptions options) {
  auto graph = graph_;
  return AsyncRunner::Global().Run([graph, options = std::move(options)]() {
    return internal::ExecutePlanGraph(*graph, options, internal::kNoNode);
  });
}

const std::vector<ShuffleStrategy>& Plan::last_round_strategies() const {
  return graph_->last_strategies;
}

}  // namespace mrcost::engine
