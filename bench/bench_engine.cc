// Engine micro-benchmarks (E17): google-benchmark throughput numbers for
// the simulated map-reduce substrate itself — shuffle rate, thread
// scaling, and two end-to-end kernels (word count, one-phase matmul).
// These validate that the substrate is fast enough that the paper-level
// benches measure schema behaviour, not harness overhead.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/core/lower_bound.h"
#include "src/engine/job.h"
#include "src/engine/metrics.h"
#include "src/engine/plan.h"
#include "src/engine/shuffle.h"
#include "src/join/aggregate.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"
#include "src/obs/export.h"

namespace {

// Shuffle throughput of the production round on string keys (where the
// columnar layout pays: one serialize+hash per key at emit time, zero key
// copies afterwards): a RunMapReduce round on 4 threads and 8 shards whose
// map emits one pair per input and whose reduce only counts each group —
// so the wall time is emit + route + group + the round's task graph. The
// BENCH_JSON line keeps mode "blocks" so it pairs with the checked-in
// baseline. Argument: n.
void BM_ShuffleThroughput(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  mrcost::common::ThreadPool pool(4);
  mrcost::engine::JobOptions options;
  options.pool = &pool;
  options.num_shards = 8;

  auto map_fn = [](const std::uint64_t& x,
                   mrcost::engine::Emitter<std::string, std::uint64_t>&
                       emitter) {
    emitter.Emit("user:" +
                     std::to_string(mrcost::common::Mix64(x) % (1 << 16)) +
                     ":metric",
                 x);
  };
  auto reduce_fn = [](const std::string&,
                      const std::vector<std::uint64_t>& values,
                      std::vector<std::size_t>& out) {
    out.push_back(values.size());
  };

  std::size_t keys_seen = 0;
  double last_ms = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto result = mrcost::engine::RunMapReduce<std::uint64_t, std::string,
                                               std::uint64_t, std::size_t>(
        inputs, map_fn, reduce_fn, options);
    keys_seen = result.outputs.size();
    benchmark::DoNotOptimize(result.outputs);
    last_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.counters["keys"] = static_cast<double>(keys_seen);
  std::printf(
      "BENCH_JSON {\"bench\":\"shuffle_throughput\",\"mode\":\"blocks\","
      "\"n\":%zu,\"keys\":%zu,\"wall_ms\":%.3f,\"mpairs_per_s\":%.3f}\n",
      n, keys_seen, last_ms,
      last_ms > 0 ? static_cast<double>(n) / last_ms / 1e3 : 0.0);
}
BENCHMARK(BM_ShuffleThroughput)->ArgName("n")->Arg(1 << 17)->Arg(1 << 20);

void BM_ReplicationFanout(benchmark::State& state) {
  // Each input emitted to `fanout` keys: stresses the replication path the
  // paper's schemas exercise.
  const std::size_t n = 1 << 14;
  const int fanout = static_cast<int>(state.range(0));
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [fanout](const std::uint64_t& x,
                         mrcost::engine::Emitter<std::uint64_t,
                                                 std::uint64_t>& emitter) {
    for (int i = 0; i < fanout; ++i) {
      emitter.Emit(mrcost::common::Mix64(x * 31 + i) % 4096, x);
    }
  };
  auto reduce_fn = [](const std::uint64_t&,
                      const std::vector<std::uint64_t>& values,
                      std::vector<std::size_t>& out) {
    out.push_back(values.size());
  };
  for (auto _ : state) {
    auto result = mrcost::engine::RunMapReduce<std::uint64_t, std::uint64_t,
                                               std::uint64_t, std::size_t>(
        inputs, map_fn, reduce_fn, {});
    benchmark::DoNotOptimize(result.metrics.pairs_shuffled);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          fanout);
}
BENCHMARK(BM_ReplicationFanout)->Arg(2)->Arg(8)->Arg(32);

void BM_ThreadScaling(benchmark::State& state) {
  const std::size_t n = 1 << 17;
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  mrcost::engine::JobOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  auto map_fn = [](const std::uint64_t& x,
                   mrcost::engine::Emitter<std::uint64_t, std::uint64_t>&
                       emitter) {
    // A mildly expensive map body so threads have work to share.
    std::uint64_t h = x;
    for (int i = 0; i < 64; ++i) h = mrcost::common::Mix64(h);
    emitter.Emit(h % 997, h);
  };
  auto reduce_fn = [](const std::uint64_t&,
                      const std::vector<std::uint64_t>& values,
                      std::vector<std::uint64_t>& out) {
    std::uint64_t acc = 0;
    for (std::uint64_t v : values) acc ^= v;
    out.push_back(acc);
  };
  for (auto _ : state) {
    auto result = mrcost::engine::RunMapReduce<std::uint64_t, std::uint64_t,
                                               std::uint64_t, std::uint64_t>(
        inputs, map_fn, reduce_fn, options);
    benchmark::DoNotOptimize(result.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --------------------------------------------------------------- shuffle
// Sharded-vs-serial shuffle comparison on a 1M-pair workload with ~512k
// distinct keys — enough that the serial shuffle's single hash table falls
// out of cache. Shards = 1 groups every key in one task (the serial
// baseline); larger shard counts exercise the radix-partitioned parallel
// path. Arguments: {num_threads, num_shards}.
void BM_ShuffleShardedSweep(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  mrcost::engine::JobOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  options.num_shards = static_cast<std::size_t>(state.range(1));
  auto map_fn = [](const std::uint64_t& x,
                   mrcost::engine::Emitter<std::uint64_t, std::uint64_t>&
                       emitter) {
    emitter.Emit(mrcost::common::Mix64(x) % (1 << 19), x);
  };
  auto reduce_fn = [](const std::uint64_t&,
                      const std::vector<std::uint64_t>& values,
                      std::vector<std::size_t>& out) {
    out.push_back(values.size());
  };
  for (auto _ : state) {
    auto result = mrcost::engine::RunMapReduce<std::uint64_t, std::uint64_t,
                                               std::uint64_t, std::size_t>(
        inputs, map_fn, reduce_fn, options);
    benchmark::DoNotOptimize(result.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ShuffleShardedSweep)
    ->ArgNames({"threads", "shards"})
    // Seed serial baseline at each thread count.
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    // Sharded shuffle: shard-count sweep at fixed threads, then thread
    // scaling at matching shard counts.
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({4, 8})
    ->Args({4, 16})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({8, 8})
    ->Args({8, 16});

// ------------------------------------------------ multi-round accounting
// Two-phase matrix multiplication through the plan executor, reporting
// each round's realized replication rate r alongside the Section 2.4
// recipe lower bound at the realized reducer load q. The ratio lands
// BELOW 1 by design: round 1 only computes partial sums, so it beats the
// one-round bound — the measured form of Section 6.3's observation that
// two-phase algorithms evade the single-round tradeoff. Compare with
// BM_MatMulOnePhase, whose one-round schema meets the bound exactly.
void BM_TwoPhaseMatmulPipeline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mrcost::common::SplitMix64 rng(5);
  mrcost::matmul::Matrix a(n, n), b(n, n);
  a.FillRandom(rng);
  b.FillRandom(rng);
  mrcost::engine::PipelineMetrics last;
  for (auto _ : state) {
    auto result = mrcost::matmul::MultiplyTwoPhase(a, b, n / 4, n / 8);
    benchmark::DoNotOptimize(result->product);
    last = result->metrics;
  }
  const auto reports = mrcost::engine::CompareToLowerBound(
      last, mrcost::matmul::MatMulRecipe(n));
  if (!reports.empty()) {
    state.counters["r1"] = reports[0].realized_r;
    state.counters["r1_bound"] = reports[0].lower_bound_r;
    state.counters["r1_ratio"] = reports[0].optimality_ratio;
    state.counters["q1"] = reports[0].realized_q;
  }
  if (reports.size() > 1) {
    state.counters["r2"] = reports[1].realized_r;
  }
  state.counters["total_r"] = last.total_replication_rate();
}
BENCHMARK(BM_TwoPhaseMatmulPipeline)->Arg(32)->Arg(64);

void BM_WordCount(benchmark::State& state) {
  std::vector<std::string> docs;
  mrcost::common::SplitMix64 rng(1);
  for (int d = 0; d < 200; ++d) {
    std::string doc;
    for (int w = 0; w < 100; ++w) {
      doc += "word" + std::to_string(rng.UniformBelow(500)) + " ";
    }
    docs.push_back(doc);
  }
  const auto words = mrcost::join::Tokenize(docs);
  for (auto _ : state) {
    auto result = mrcost::join::WordCount(words);
    benchmark::DoNotOptimize(result.counts);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * words.size());
}
BENCHMARK(BM_WordCount);

void BM_MatMulOnePhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mrcost::common::SplitMix64 rng(2);
  mrcost::matmul::Matrix a(n, n), b(n, n);
  a.FillRandom(rng);
  b.FillRandom(rng);
  mrcost::engine::JobMetrics last;
  for (auto _ : state) {
    auto result = mrcost::matmul::MultiplyOnePhase(a, b, n / 4);
    benchmark::DoNotOptimize(result->product);
    last = result->metrics;
  }
  // One-round schema: realized r meets the recipe bound r >= 2n^2/q
  // exactly (ratio 1), the counterpart of BM_TwoPhaseMatmulPipeline.
  mrcost::engine::PipelineMetrics wrapped;
  wrapped.Add(last);
  const auto reports = mrcost::engine::CompareToLowerBound(
      wrapped, mrcost::matmul::MatMulRecipe(n));
  if (!reports.empty()) {
    state.counters["r"] = reports[0].realized_r;
    state.counters["r_bound"] = reports[0].lower_bound_r;
    state.counters["r_ratio"] = reports[0].optimality_ratio;
  }
}
BENCHMARK(BM_MatMulOnePhase)->Arg(32)->Arg(64);

void BM_PlanVsEagerOverhead(benchmark::State& state) {
  // The lazy Plan path (type-erased std::function map/reduce, per-round
  // strategy chooser sampling) vs calling RunMapReduce directly with the
  // same lambdas: range(0) == 0 benches eager, 1 benches the plan. The
  // delta is the price of the Estimate/Explain/choose seam.
  const bool lazy = state.range(0) == 1;
  const std::size_t n = 1 << 17;
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);
  auto map_fn = [](const std::uint64_t& x,
                   mrcost::engine::Emitter<std::uint64_t, std::uint64_t>&
                       emitter) {
    emitter.Emit(mrcost::common::Mix64(x) % 2048, x);
  };
  auto reduce_fn = [](const std::uint64_t&,
                      const std::vector<std::uint64_t>& values,
                      std::vector<std::uint64_t>& out) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : values) sum += v;
    out.push_back(sum);
  };
  // The plan is built once (as the eager arm's input vector is), so each
  // lazy iteration measures Execute — the chooser's sampling plus the
  // type-erased lowering — not source re-materialization.
  mrcost::engine::Plan plan;
  auto dataset = plan.Source(inputs)
                     .Map<std::uint64_t, std::uint64_t>(map_fn)
                     .ReduceByKey<std::uint64_t>(reduce_fn);
  for (auto _ : state) {
    if (lazy) {
      auto run = dataset.Execute();
      benchmark::DoNotOptimize(run.outputs);
    } else {
      auto result =
          mrcost::engine::RunMapReduce<std::uint64_t, std::uint64_t,
                                       std::uint64_t, std::uint64_t>(
              inputs, map_fn, reduce_fn, {});
      benchmark::DoNotOptimize(result.outputs);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PlanVsEagerOverhead)->Arg(0)->Arg(1);

// ------------------------------------------------- streaming overlap
// Barrier vs streaming makespan on a two-round workload: round 1 shuffles
// 128k pairs into 4k keys with a deliberately compute-heavy reduce spread
// over 8 shards; round 2 declares a per-key input dependency and regroups
// the sums. streaming:0 runs the sequential round-by-round schedule,
// streaming:1 dissolves the round barrier — round 2's map for shard s
// starts as soon as shard s finishes reducing. Outputs are byte-identical
// either way; the counters (and a BENCH_JSON line per mode) report the
// wall-clock difference, the measured overlap fraction, and the idle
// thread-time at stage barriers.
void BM_StreamingOverlap(benchmark::State& state) {
  const bool streaming = state.range(0) == 1;
  const std::size_t n = 1 << 17;
  std::vector<std::uint64_t> inputs(n);
  std::iota(inputs.begin(), inputs.end(), 0);

  mrcost::engine::Plan plan;
  auto round1 =
      plan.Source(std::move(inputs), "uniform keys")
          .Map<std::uint64_t, std::uint64_t>(
              [](const std::uint64_t& x,
                 mrcost::engine::Emitter<std::uint64_t, std::uint64_t>& e) {
                e.Emit(mrcost::common::Mix64(x) % 4096, x);
              },
              "fan-in")
          .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
              [](const std::uint64_t& key,
                 const std::vector<std::uint64_t>& values,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                     out) {
                std::uint64_t acc = key;
                for (int pass = 0; pass < 64; ++pass) {
                  for (std::uint64_t v : values) acc = acc * 31 + v;
                }
                out.emplace_back(key, acc);
              });
  auto target =
      round1
          .Map<std::uint64_t, std::uint64_t>(
              [](const std::pair<std::uint64_t, std::uint64_t>& p,
                 mrcost::engine::Emitter<std::uint64_t, std::uint64_t>& e) {
                e.Emit(p.first % 64, p.second);
              },
              "regroup")
          .WithPerKeyInput()
          .ReduceByKey<std::pair<std::uint64_t, std::uint64_t>>(
              [](const std::uint64_t& key,
                 const std::vector<std::uint64_t>& values,
                 std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                     out) {
                std::uint64_t acc = key;
                for (std::uint64_t v : values) acc = acc * 131 + v;
                out.emplace_back(key, acc);
              });

  mrcost::engine::ExecutionOptions options;
  options.pipeline.num_threads = 4;
  options.pipeline.round_defaults.num_shards = 8;
  options.streaming = streaming;

  mrcost::engine::PipelineMetrics last;
  double wall_ms = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto run = target.Execute(options);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    benchmark::DoNotOptimize(run.outputs);
    last = std::move(run.metrics);
  }
  state.counters["makespan_ms"] = wall_ms;
  state.counters["overlap_fraction"] = last.overlap_fraction();
  state.counters["streamed_overlap_ms"] = last.streamed_overlap_ms;
  state.counters["barrier_wait_ms"] = last.total_barrier_wait_ms();
  state.counters["streamed_rounds"] =
      static_cast<double>(last.streamed_rounds);
  std::printf(
      "BENCH_JSON {\"bench\":\"streaming_overlap\",\"mode\":\"%s\","
      "\"makespan_ms\":%.3f,\"overlap_fraction\":%.4f,"
      "\"streamed_overlap_ms\":%.3f,\"barrier_wait_ms\":%.3f,"
      "\"streamed_rounds\":%zu}\n",
      streaming ? "streaming" : "barrier", wall_ms, last.overlap_fraction(),
      last.streamed_overlap_ms, last.total_barrier_wait_ms(),
      last.streamed_rounds);
}
BENCHMARK(BM_StreamingOverlap)
    ->ArgNames({"streaming"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_MatMulTwoPhase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  mrcost::common::SplitMix64 rng(3);
  mrcost::matmul::Matrix a(n, n), b(n, n);
  a.FillRandom(rng);
  b.FillRandom(rng);
  for (auto _ : state) {
    auto result = mrcost::matmul::MultiplyTwoPhase(a, b, n / 4, n / 8);
    benchmark::DoNotOptimize(result->product);
  }
}
BENCHMARK(BM_MatMulTwoPhase)->Arg(32)->Arg(64);

}  // namespace

// Expanded BENCHMARK_MAIN so the bench accepts the shared
// --trace_out=/--metrics_out= capture flags (same convention as the
// examples): when set, every iteration records into one capture scope
// written at exit. Leave them unset when measuring — the perf guard's
// baseline runs with tracing disabled.
int main(int argc, char** argv) {
  const mrcost::obs::CaptureFlags capture =
      mrcost::obs::ParseCaptureFlags(argc, argv);
  // Strip the capture flags before handing argv to google-benchmark, which
  // treats anything it does not know as an error.
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace_out=", 0) == 0 ||
        arg.rfind("--metrics_out=", 0) == 0 ||
        arg.rfind("--spill_dir=", 0) == 0 || arg == "--keep_spills") {
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(passthrough.size());
  mrcost::obs::ScopedCapture trace_scope(capture.trace_out,
                                         capture.metrics_out);
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
