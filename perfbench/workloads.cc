// The benchmark's workload binary: runs one named workload against the public
// Plan / Dataset::Execute API as a closed loop (one client, one execution
// in flight, 4 threads) and prints one JSON document of raw samples on its
// last stdout line. perfbench/run.py builds this binary, runs it, and turns
// the samples (plus, in traced mode, the trace and registry files that
// src/obs writes) into the benchmark's metrics.
//
// Everything is measured from outside the library: wall and CPU time
// around each call, what Execute returns, and the obs capture files. The
// obs::TraceSpan spans below wrap the calls into each layer (family build,
// Estimate, Execute, reference check) so a traced run can attribute time
// between them.
//
// Usage:
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                    --work_dir DIR
// Workloads: sweep-inproc, sweep-wire4, join-spill, matmul-2round.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/lower_bound.h"
#include "src/engine/plan.h"
#include "src/join/edge_cover.h"
#include "src/join/generators.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/join/serial_join.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace {

using namespace mrcost;

constexpr std::size_t kThreads = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;
/// Fewest measured executions per run, whatever --seconds says.
constexpr int kMinExecutions = 5;
/// An execution slower than this counts as timed out (failed).
constexpr double kTimeoutSeconds = 60;

double CpuSeconds() {
  double total = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    for (const timeval& t : {usage.ru_utime, usage.ru_stime}) {
      total += static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    }
  }
  return total;
}

double MaxRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// What one execution produced, as the benchmark sees it.
struct Execution {
  double wall_s = 0;
  double cpu_s = 0;
  bool ok = false;
  engine::PipelineMetrics metrics;
  std::vector<engine::ShuffleStrategy> strategies;
};

/// Times one Execute call (wall and CPU, children included so reaped
/// workers count), then checks its outputs outside the timed window.
template <typename T, typename Check>
Execution TimedExecute(const engine::Dataset<T>& dataset,
                       const engine::ExecutionOptions& options,
                       const Check& check) {
  Execution e;
  engine::ExecutionResult<T> result;
  const double cpu0 = CpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::TraceSpan span("Execute", "bench");
    result = dataset.Execute(options);
  }
  e.wall_s = SecondsSince(t0);
  e.cpu_s = CpuSeconds() - cpu0;
  {
    obs::TraceSpan span("ReferenceCheck", "bench");
    e.ok = check(result.outputs) && e.wall_s <= kTimeoutSeconds;
  }
  e.metrics = std::move(result.metrics);
  e.strategies = std::move(result.round_strategies);
  return e;
}

/// In-process execution on kThreads threads; shard count and partitioner
/// stay on auto.
engine::ExecutionOptions InProcessOptions() {
  engine::JobOptions round_defaults;
  round_defaults.num_threads = kThreads;
  return engine::ExecutionOptions(round_defaults);
}

/// One workload: its family build, its cost recipe, how it executes, and
/// the serial reference every execution is checked against.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed` and builds the plan.
  virtual void Build(std::uint64_t seed) = 0;
  virtual engine::Plan plan() const = 0;
  /// The Section 2.4 recipe the workload's r and q are priced against.
  virtual core::Recipe Recipe() const = 0;
  /// How the loop executes; `work_dir` holds any files the run writes.
  virtual engine::ExecutionOptions Options(const std::string& /*work_dir*/)
      const {
    return InProcessOptions();
  }
  /// Computes the serial reference once per run, outside job_s.
  virtual void PrepareReference() = 0;
  virtual Execution RunOnce(const engine::ExecutionOptions& options) = 0;
  /// Checks that need memory peak_rss_mb must not be charged for; run
  /// after it is read. Returns how many executions they fail.
  virtual int DeferredFailures() { return 0; }
};

/// The shuffle_sweep recipe of src/dist/recipes.cc, built here as a typed
/// Dataset and stamped with the recipe's name and arguments: worker
/// processes rebuild the same graph from the stamp, and the benchmark still
/// gets typed outputs to check. The rows and the key mix must match the
/// recipe exactly.
class SweepWorkload : public Workload {
 public:
  using Row = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr std::uint64_t kPairs = 4000000;
  static constexpr std::uint64_t kKeys = 4096;

  explicit SweepWorkload(bool multi_process) : multi_process_(multi_process) {}

  static std::uint64_t KeyOf(std::uint64_t row) {
    std::uint64_t h = row;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h % kKeys;
  }

  void Build(std::uint64_t seed) override {
    dataset_.reset();
    seed_ = seed;
    std::vector<std::uint64_t> rows(kPairs);
    std::iota(rows.begin(), rows.end(), seed);
    engine::Plan plan;
    auto source = plan.Source(std::move(rows), "shuffle-sweep-source");
    dataset_.emplace(
        source
            .Map<std::uint64_t, std::uint64_t>(
                [](const std::uint64_t& row,
                   engine::Emitter<std::uint64_t, std::uint64_t>& emit) {
                  emit.Emit(KeyOf(row), row);
                },
                "shuffle-sweep")
            .template ReduceByKey<Row>(
                [](const std::uint64_t& key,
                   const std::vector<std::uint64_t>& values,
                   std::vector<Row>& out) {
                  std::uint64_t sum = 0;
                  for (std::uint64_t v : values) sum += v;
                  out.push_back({key, sum});
                }));
    plan.graph()->dist_recipe = "shuffle_sweep";
    plan.graph()->dist_args = "pairs=" + std::to_string(kPairs) +
                              ",keys=" + std::to_string(kKeys) +
                              ",seed=" + std::to_string(seed);
  }

  engine::Plan plan() const override { return dataset_->plan(); }

  /// Sum-by-key: every output needs all |I|/|O| inputs of its key, so a
  /// reducer of size q covers q|O|/|I| outputs and the bound is r >= 1.
  core::Recipe Recipe() const override {
    core::Recipe recipe;
    recipe.problem_name = "sum-by-key";
    recipe.num_inputs = static_cast<double>(kPairs);
    recipe.num_outputs = static_cast<double>(kKeys);
    recipe.g = [](double q) {
      return q * static_cast<double>(kKeys) / static_cast<double>(kPairs);
    };
    return recipe;
  }

  engine::ExecutionOptions Options(const std::string& work_dir) const override {
    engine::ExecutionOptions options = InProcessOptions();
    if (multi_process_) {
      options.backend = engine::ExecutionBackend::kMultiProcess;
      options.dist.num_workers = 4;
      options.dist.shuffle_transport = engine::ShuffleTransport::kWireStream;
      options.dist.spill_dir = work_dir + "/dist";
    }
    return options;
  }

  void PrepareReference() override {
    std::vector<std::uint64_t> sums(kKeys, 0);
    std::vector<std::uint64_t> counts(kKeys, 0);
    for (std::uint64_t row = seed_; row < seed_ + kPairs; ++row) {
      sums[KeyOf(row)] += row;
      ++counts[KeyOf(row)];
    }
    reference_.clear();
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      if (counts[key] > 0) reference_.push_back({key, sums[key]});
    }
  }

  Execution RunOnce(const engine::ExecutionOptions& options) override {
    return TimedExecute(*dataset_, options,
                        [this](const std::vector<Row>& out) {
                          if (multi_process_) wire_outputs_.push_back(out);
                          std::vector<Row> sorted = out;
                          std::sort(sorted.begin(), sorted.end());
                          return sorted == reference_;
                        });
  }

  /// The multi-process outputs must also be identical, element for
  /// element, to what the in-process backend returns for the same plan.
  /// That in-process execution would set this process's peak RSS, so it runs
  /// last.
  int DeferredFailures() override {
    if (!multi_process_) return 0;
    const std::vector<Row> inproc =
        dataset_->Execute(InProcessOptions()).outputs;
    return static_cast<int>(std::count_if(
        wire_outputs_.begin(), wire_outputs_.end(),
        [&](const std::vector<Row>& out) { return out != inproc; }));
  }

 private:
  bool multi_process_;
  std::uint64_t seed_ = 0;
  std::optional<engine::Dataset<Row>> dataset_;
  std::vector<Row> reference_;
  std::vector<std::vector<Row>> wire_outputs_;
};

/// The paper's triangle join (Section 5.5): HyperCube over cycle-3 with
/// share 4 per attribute on Zipf relations, forced through the external
/// shuffle under a 1 MiB budget so storage dominates.
class JoinSpillWorkload : public Workload {
 public:
  static constexpr std::uint64_t kTuples = 20000;
  static constexpr join::Value kDomain = 4096;
  static constexpr double kExponent = 0.4;
  static constexpr int kShare = 4;

  void Build(std::uint64_t seed) override {
    tuples_.reset();
    relations_ =
        join::ZipfRelationsForQuery(query_, kTuples, kDomain, kExponent, seed);
    std::vector<const join::Relation*> ptrs;
    for (const auto& r : relations_) ptrs.push_back(&r);
    auto built = join::BuildHyperCubeJoinPlan(
        query_, ptrs, std::vector<int>(query_.num_attributes(), kShare), seed);
    MRCOST_CHECK_OK(built.status());
    tuples_.emplace(built->tuples);
  }

  engine::Plan plan() const override { return tuples_->plan(); }

  /// The recipe prices dense relations, |R| = n^2 over an n-value domain,
  /// so n is the dense-equivalent domain of a kTuples relation.
  core::Recipe Recipe() const override {
    return join::MultiwayJoinRecipe(std::sqrt(static_cast<double>(kTuples)),
                                    query_.num_attributes(), 1.5);
  }

  engine::ExecutionOptions Options(const std::string& work_dir) const override {
    engine::ExecutionOptions options = InProcessOptions();
    auto& shuffle = options.pipeline.round_defaults.shuffle;
    shuffle.strategy = engine::ShuffleStrategy::kExternal;
    shuffle.memory_budget_bytes = 1 << 20;
    shuffle.spill_dir = work_dir + "/spill";
    return options;
  }

  void PrepareReference() override {
    std::vector<const join::Relation*> ptrs;
    for (const auto& r : relations_) ptrs.push_back(&r);
    reference_ = join::SerialMultiwayJoin(query_, ptrs);
  }

  Execution RunOnce(const engine::ExecutionOptions& options) override {
    return TimedExecute(*tuples_, options,
                        [this](const std::vector<join::Tuple>& out) {
                          std::vector<join::Tuple> sorted = out;
                          std::sort(sorted.begin(), sorted.end());
                          return sorted == reference_;
                        });
  }

 private:
  const join::Query query_ = join::CycleQuery(3);
  // The plan points into relations_, so it is declared (and destroyed)
  // after them.
  std::vector<join::Relation> relations_;
  std::optional<engine::Dataset<join::Tuple>> tuples_;
  std::vector<join::Tuple> reference_;
};

/// Section 6.3's two-phase multiply: round 2 consumes round 1's per-shard
/// outputs as a stream.
class MatmulWorkload : public Workload {
 public:
  using Cell = std::pair<std::uint64_t, double>;
  static constexpr int kN = 384;
  static constexpr int kRows = 48;  // s: rows of R per round-1 reducer
  static constexpr int kJs = 48;    // t: j values per round-1 reducer
  /// Relative max-error tolerance against the serial product.
  static constexpr double kTolerance = 1e-9;

  void Build(std::uint64_t seed) override {
    sums_.reset();
    r_ = matmul::Matrix(kN, kN);
    s_ = matmul::Matrix(kN, kN);
    common::SplitMix64 rng(seed);
    r_.FillRandom(rng);
    s_.FillRandom(rng);
    auto built = matmul::BuildMultiplyTwoPhasePlan(r_, s_, kRows, kJs);
    MRCOST_CHECK_OK(built.status());
    sums_.emplace(built->sums);
  }

  engine::Plan plan() const override { return sums_->plan(); }

  core::Recipe Recipe() const override { return matmul::MatMulRecipe(kN); }

  void PrepareReference() override {
    reference_ = matmul::SerialMultiply(r_, s_);
    scale_ = 0;
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        scale_ = std::max(scale_, std::fabs(reference_.At(i, k)));
      }
    }
  }

  Execution RunOnce(const engine::ExecutionOptions& options) override {
    Execution e = TimedExecute(
        *sums_, options, [this](const std::vector<Cell>& out) {
          if (out.size() != static_cast<std::size_t>(kN) * kN) return false;
          matmul::Matrix product(kN, kN);
          std::vector<bool> seen(out.size(), false);
          for (const auto& [key, value] : out) {
            if (key >= seen.size() || seen[key]) return false;
            seen[key] = true;
            product.At(static_cast<int>(key / kN),
                       static_cast<int>(key % kN)) = value;
          }
          return product.MaxAbsDiff(reference_) <= kTolerance * scale_;
        });
    // Section 6.3's closed form: 2n^3/s pairs in round 1, n^3/t in round 2.
    const std::uint64_t n3 = static_cast<std::uint64_t>(kN) * kN * kN;
    e.ok = e.ok && e.metrics.total_pairs() == 2 * n3 / kRows + n3 / kJs;
    return e;
  }

 private:
  // The plan reads the matrices lazily, so it is declared after them.
  matmul::Matrix r_;
  matmul::Matrix s_;
  std::optional<engine::Dataset<Cell>> sums_;
  matmul::Matrix reference_;
  double scale_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sweep-inproc") return std::make_unique<SweepWorkload>(false);
  if (name == "sweep-wire4") return std::make_unique<SweepWorkload>(true);
  if (name == "join-spill") return std::make_unique<JoinSpillWorkload>();
  if (name == "matmul-2round") return std::make_unique<MatmulWorkload>();
  return nullptr;
}

/// Minimal JSON writer for the one output document.
class Json {
 public:
  void Key(const std::string& key) {
    Sep();
    out_ += "\"" + obs::JsonEscape(key) + "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
  }
  void Str(const std::string& v) {
    Sep();
    out_ += "\"" + obs::JsonEscape(v) + "\"";
  }
  void Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
  }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// |log2(predicted / realized)|, the maximum over rounds; 0 when a round
/// has nothing to compare.
void MaxResidualLog2(const engine::PlanEstimate& estimate,
                     const engine::PipelineMetrics& metrics, double* q_out,
                     double* r_out) {
  *q_out = 0;
  *r_out = 0;
  const std::size_t rounds =
      std::min(estimate.rounds.size(), metrics.rounds.size());
  for (std::size_t i = 0; i < rounds; ++i) {
    const auto& predicted = estimate.rounds[i];
    const auto& realized = metrics.rounds[i];
    const double q = static_cast<double>(realized.max_reducer_input);
    const double r = realized.replication_rate();
    if (predicted.predicted_q > 0 && q > 0) {
      *q_out = std::max(*q_out,
                        std::fabs(std::log2(predicted.predicted_q / q)));
    }
    if (predicted.predicted_r > 0 && r > 0) {
      *r_out = std::max(*r_out,
                        std::fabs(std::log2(predicted.predicted_r / r)));
    }
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work_dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_workloads --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work_dir DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench_workloads: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir + "/spill");
  const std::string trace_dir = args.work_dir + "/trace";
  std::filesystem::create_directories(trace_dir);

  Json json;
  json.Open('{');
  json.Key("workload");
  json.Str(args.workload);

  // Set-up: generate inputs, build the plan, price it. Repeated so
  // setup_s is a median; the last build is the one that executes. A
  // traced run records the set-ups in their own capture.
  const core::Recipe recipe = workload->Recipe();
  engine::PlanEstimate estimate;
  json.Key("setup_s");
  json.Open('[');
  {
    std::optional<obs::ScopedCapture> capture;
    if (args.trace) capture.emplace(trace_dir + "/setup.trace.json");
    for (int i = 0; i < kSetups; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        obs::TraceSpan span("FamilyBuild", "bench");
        workload->Build(args.seed);
      }
      {
        obs::TraceSpan span("Estimate", "bench");
        estimate = workload->plan().Estimate(recipe);
      }
      json.Num(SecondsSince(t0));
    }
  }
  json.Close(']');

  workload->PrepareReference();

  const engine::ExecutionOptions options = workload->Options(args.work_dir);

  // Warm-up, then the closed loop. A traced execution runs in its own
  // capture, with Execute's own trace_out / metrics_out set. The warm-up is
  // traced so every run can report the task graph it ran on; a traced run
  // alternates untraced and traced executions, so the ratio of their
  // medians is the tracing overhead.
  int attempted = 0;
  int failed = 0;
  std::uint64_t dropped = 0;
  std::optional<Execution> first;
  auto execute = [&](const std::string& name, bool traced) {
    const std::string stem = trace_dir + "/" + name;
    engine::ExecutionOptions exec_options = options;
    std::optional<Execution> e;
    if (traced) {
      exec_options.trace_out = stem + ".execute.trace.json";
      exec_options.metrics_out = stem + ".metrics.json";
      {
        obs::ScopedCapture capture(stem + ".trace.json");
        e = workload->RunOnce(exec_options);
      }
      dropped += obs::TraceRecorder::Global().dropped_events();
    } else {
      e = workload->RunOnce(exec_options);
    }
    ++attempted;
    bool ok = e->ok;
    if (first.has_value()) {
      // The paper-unit counts are pure functions of plan, data and options.
      ok = ok && e->metrics.total_pairs() == first->metrics.total_pairs() &&
           e->metrics.max_reducer_input() ==
               first->metrics.max_reducer_input();
    }
    if (!ok) ++failed;
    json.Open('{');
    json.Key("wall_s");
    json.Num(e->wall_s);
    json.Key("cpu_s");
    json.Num(e->cpu_s);
    json.Key("ok");
    json.Bool(ok);
    json.Key("barrier_wait_ms");
    json.Num(e->metrics.total_barrier_wait_ms());
    json.Key("streamed_overlap_ms");
    json.Num(e->metrics.streamed_overlap_ms);
    if (traced) {
      json.Key("trace");
      json.Str(stem + ".trace.json");
      json.Key("metrics");
      json.Str(exec_options.metrics_out);
    }
    json.Close('}');
    return std::move(*e);
  };

  json.Key("warmup");
  first = execute("warmup", true);
  json.Key("executions");
  json.Open('[');
  const int min_executions = args.trace ? 2 * kMinExecutions : kMinExecutions;
  const auto loop_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < min_executions || SecondsSince(loop_t0) < args.seconds;
       ++i) {
    execute("exec" + std::to_string(i), args.trace && i % 2 == 1);
  }
  json.Close(']');

  json.Key("peak_rss_mb");
  json.Num(MaxRssMb(RUSAGE_SELF));
  failed = std::min(attempted, failed + workload->DeferredFailures());
  json.Key("attempted");
  json.Num(attempted);
  json.Key("failed");
  json.Num(failed);

  // Paper units and the realized task graph, from what Execute returned.
  const engine::PipelineMetrics& m = first->metrics;
  json.Key("comm_pairs");
  json.Num(static_cast<double>(m.total_pairs()));
  json.Key("comm_bytes");
  json.Num(static_cast<double>(m.total_bytes()));
  json.Key("max_q");
  json.Num(static_cast<double>(m.max_reducer_input()));
  json.Key("rounds");
  json.Open('[');
  for (std::size_t i = 0; i < m.rounds.size(); ++i) {
    const auto& round = m.rounds[i];
    json.Open('{');
    const bool known = i < first->strategies.size();
    json.Key("strategy");
    json.Str(known ? engine::ToString(first->strategies[i]) : "unknown");
    json.Key("pairs");
    json.Num(static_cast<double>(round.pairs_shuffled));
    json.Key("max_q");
    json.Num(static_cast<double>(round.max_reducer_input));
    json.Key("r");
    json.Num(round.replication_rate());
    if (i < estimate.rounds.size()) {
      json.Key("predicted_q");
      json.Num(estimate.rounds[i].predicted_q);
      json.Key("predicted_r");
      json.Num(estimate.rounds[i].predicted_r);
    }
    json.Close('}');
  }
  json.Close(']');

  double q_residual = 0;
  double r_residual = 0;
  MaxResidualLog2(estimate, m, &q_residual, &r_residual);
  double compression = 0;
  double bytes_copied = 0;
  for (const auto& round : m.rounds) {
    compression = std::max(compression, round.compression_ratio);
    bytes_copied += static_cast<double>(round.bytes_copied);
  }
  const double bound = core::ReplicationLowerBound(
      recipe, static_cast<double>(m.max_reducer_input()));

  json.Key("layers");
  json.Open('{');
  const std::pair<const char*, double> layers[] = {
      {"engine.partition_skew", m.max_partition_skew_ratio()},
      {"engine.bytes_copied_mb", bytes_copied / 1e6},
      {"storage.spill_mb", static_cast<double>(m.total_spill_bytes()) / 1e6},
      {"storage.spill_runs", static_cast<double>(m.total_spill_runs())},
      {"storage.merge_passes", static_cast<double>(m.total_merge_passes())},
      {"storage.compression_ratio", compression},
      {"plan.q_residual_log2", q_residual},
      {"plan.r_residual_log2", r_residual},
      {"family.r_over_bound",
       bound > 0 ? m.total_replication_rate() / bound : 0.0},
      {"dist.worker_peak_rss_mb", MaxRssMb(RUSAGE_CHILDREN)},
      {"obs.dropped_events", static_cast<double>(dropped)},
  };
  for (const auto& [name, value] : layers) {
    json.Key(name);
    json.Num(value);
  }
  json.Close('}');
  json.Close('}');
  std::printf("%s\n", json.str().c_str());
  return 0;
}
