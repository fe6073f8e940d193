// Cluster-simulator sweeps: the paper charges every computation a
// replication rate r against a reducer capacity q, but placement alone
// says nothing about what skewed keys, heterogeneous machines, or
// stragglers do to the round's wall clock. This bench sweeps the
// simulator over workers x Zipf exponent x straggler factor and shows
//   * load imbalance near 1.0 for uniform keys, growing with the Zipf
//     exponent (the hot key's worker owns the round),
//   * makespan stretching linearly with the straggler slowdown, and
//   * capacity violations appearing as soon as skew pushes a reducer past
//     the q the schema was provisioned for.
// A final table runs all four problem-family reproductions under skewed
// generators with the simulation on, next to their Section 2.4 lower
// bounds via CompareToLowerBound.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/engine/job.h"
#include "src/engine/metrics.h"
#include "src/engine/simulator.h"
#include "src/graph/alon.h"
#include "src/graph/generators.h"
#include "src/graph/triangle.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/bounds.h"
#include "src/hamming/similarity_join.h"
#include "src/join/edge_cover.h"
#include "src/join/generators.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/join/shares.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"

namespace {

using mrcost::common::Table;
namespace engine = mrcost::engine;

/// The synthetic workload every sweep uses: `n` inputs whose keys are
/// drawn Zipf(exponent) over `num_keys` (exponent 0 = uniform), counted
/// per key.
engine::JobResult<std::pair<std::uint64_t, std::int64_t>> ZipfCountJob(
    std::size_t n, std::uint64_t num_keys, double exponent,
    const engine::JobOptions& options) {
  mrcost::common::SplitMix64 rng(7);
  const mrcost::common::ZipfDistribution zipf(num_keys, exponent);
  std::vector<std::uint64_t> inputs(n);
  for (auto& x : inputs) x = zipf.Sample(rng);
  auto map_fn = [](const std::uint64_t& x,
                   engine::Emitter<std::uint64_t, int>& emitter) {
    emitter.Emit(x, 1);
  };
  auto reduce_fn =
      [](const std::uint64_t& key, const std::vector<int>& values,
         std::vector<std::pair<std::uint64_t, std::int64_t>>& out) {
        out.emplace_back(key, static_cast<std::int64_t>(values.size()));
      };
  return engine::RunMapReduce<std::uint64_t, std::uint64_t, int,
                              std::pair<std::uint64_t, std::int64_t>>(
      inputs, map_fn, reduce_fn, options);
}

void SkewSweep() {
  const std::size_t n = 1 << 18;
  const std::uint64_t num_keys = 4096;
  Table t({"workers", "zipf exponent", "makespan", "ideal", "imbalance",
           "makespan/ideal"});
  for (std::size_t workers : {4u, 16u, 64u}) {
    for (double exponent : {0.0, 0.5, 1.0, 1.5}) {
      engine::JobOptions options;
      options.simulation.num_workers = workers;
      const auto run = ZipfCountJob(n, num_keys, exponent, options);
      const engine::JobMetrics& m = run.metrics;
      const double ideal =
          m.worker_loads.sum() / static_cast<double>(workers);
      t.AddRow()
          .Add(static_cast<std::uint64_t>(workers))
          .Add(exponent)
          .Add(m.makespan)
          .Add(ideal)
          .Add(m.load_imbalance)
          .Add(ideal > 0 ? m.makespan / ideal : 0.0);
    }
  }
  t.Print(std::cout,
          "Skew sweep (256k pairs, 4096 keys): uniform keys stay near "
          "imbalance 1.0; Zipf skew hands one worker the hot key and the "
          "round with it");
}

void StragglerSweep() {
  const std::size_t n = 1 << 18;
  Table t({"stragglers", "slowdown", "jitter", "makespan",
           "straggler impact", "imbalance"});
  for (double fraction : {0.0, 0.25}) {
    for (double slowdown : {1.0, 2.0, 4.0, 8.0}) {
      // One no-straggler baseline (fraction 0, slowdown 1); every other
      // (fraction, slowdown) pairing with either knob neutral duplicates
      // it exactly, since stragglers only bite when both are set.
      const bool baseline = fraction == 0.0 && slowdown == 1.0;
      const bool straggled = fraction > 0.0 && slowdown > 1.0;
      if (!baseline && !straggled) continue;
      for (double jitter : {0.0, 0.2}) {
        engine::JobOptions options;
        options.simulation.num_workers = 16;
        options.simulation.straggler_fraction = fraction;
        options.simulation.straggler_slowdown = slowdown;
        options.simulation.speed_jitter = jitter;
        options.simulation.seed = 13;
        const auto run = ZipfCountJob(n, 4096, 0.0, options);
        t.AddRow()
            .Add(fraction)
            .Add(slowdown)
            .Add(jitter)
            .Add(run.metrics.makespan)
            .Add(run.metrics.straggler_impact)
            .Add(run.metrics.load_imbalance);
      }
    }
  }
  t.Print(std::cout,
          "Straggler sweep (16 workers, uniform keys): load stays balanced "
          "— placement cannot see machine speed — but makespan stretches "
          "with the slowdown factor; jitter adds noise on top");
}

void CapacitySweep() {
  const std::size_t n = 1 << 18;
  const std::uint64_t num_keys = 4096;
  // Provision q for the uniform case: 4x the mean group size.
  const double capacity_q = 4.0 * static_cast<double>(n) / num_keys;
  Table t({"zipf exponent", "provisioned q", "max group", "violations",
           "imbalance"});
  for (double exponent : {0.0, 0.5, 1.0, 1.5}) {
    engine::JobOptions options;
    options.simulation.num_workers = 16;
    options.simulation.reducer_capacity_q = capacity_q;
    const auto run = ZipfCountJob(n, num_keys, exponent, options);
    t.AddRow()
        .Add(exponent)
        .Add(capacity_q)
        .Add(run.metrics.max_reducer_input)
        .Add(run.metrics.capacity_violations)
        .Add(run.metrics.load_imbalance);
  }
  t.Print(std::cout,
          "Capacity sweep: a q provisioned for uniform keys (4x mean) is "
          "violated as soon as the key distribution skews — the simulator "
          "reports it instead of silently overfilling workers");
}

void MakespanRecovery() {
  // The acceptance sweep for the adaptive skew defenses: a Zipf-skewed
  // count job on a straggler-ridden cluster, undefended vs fully defended
  // (sampled-range placement + speculative backups + hot-key splitting at
  // 4x the mean group). Outputs must stay byte-identical — the defenses
  // move work, never change it — while the simulated makespan recovers.
  // One BENCH_JSON line per exponent (metric: recovery_pct; the raw
  // makespans carry an _ms suffix so the comparator treats them as
  // timings, though they are simulated cost units).
  const std::size_t n = 1 << 18;
  const std::uint64_t num_keys = 4096;
  Table t({"zipf exponent", "speculation", "makespan undefended",
           "makespan defended", "recovery %", "imbalance undef",
           "imbalance def", "hot keys split", "backups won/launched"});
  for (double exponent : {1.2, 1.6}) {
    engine::JobOptions undefended;
    undefended.simulation.num_workers = 16;
    undefended.simulation.straggler_fraction = 0.25;
    undefended.simulation.straggler_slowdown = 4.0;
    undefended.simulation.speed_jitter = 0.1;
    undefended.simulation.seed = 21;
    const auto slow = ZipfCountJob(n, num_keys, exponent, undefended);

    for (bool speculation : {false, true}) {
      engine::JobOptions defended = undefended;
      defended.simulation.defense.partitioner =
          engine::PartitionerKind::kSampledRange;
      defended.simulation.defense.speculation = speculation;
      defended.simulation.defense.speculation_slowdown_factor = 1.5;
      defended.simulation.defense.hot_key_split_threshold =
          4 * n / num_keys;
      const auto fast = ZipfCountJob(n, num_keys, exponent, defended);
      // The in-process byte-identity smoke: defenses must not change one
      // output bit.
      MRCOST_CHECK(fast.outputs == slow.outputs);

      const double recovery_pct =
          slow.metrics.makespan > 0
              ? 100.0 * (slow.metrics.makespan - fast.metrics.makespan) /
                    slow.metrics.makespan
              : 0.0;
      t.AddRow()
          .Add(exponent)
          .Add(speculation ? "on" : "off")
          .Add(slow.metrics.makespan)
          .Add(fast.metrics.makespan)
          .Add(recovery_pct)
          .Add(slow.metrics.load_imbalance)
          .Add(fast.metrics.load_imbalance)
          .Add(fast.metrics.hot_keys_split)
          .Add(std::to_string(fast.metrics.speculative_won) + "/" +
               std::to_string(fast.metrics.speculative_launched));
      std::printf(
          "BENCH_JSON {\"bench\":\"skew_recovery\",\"zipf\":%.1f,"
          "\"workers\":16,\"speculation\":\"%s\","
          "\"undefended_makespan_ms\":%.3f,\"defended_makespan_ms\":%.3f,"
          "\"recovery_pct\":%.3f}\n",
          exponent, speculation ? "on" : "off", slow.metrics.makespan,
          fast.metrics.makespan, recovery_pct);
    }
  }
  t.Print(std::cout,
          "Makespan recovery (256k Zipf pairs, 16 workers, 25% stragglers "
          "at 4x): sampled-range placement + hot-key splitting recover the "
          "skew, speculative backups recover the stragglers — outputs "
          "byte-identical throughout (checked in-process)");
}

/// Shared simulated cluster for the four family reproductions below.
engine::SimulationOptions FamilyCluster() {
  engine::SimulationOptions sim;
  sim.num_workers = 16;
  sim.straggler_fraction = 0.25;
  sim.straggler_slowdown = 4.0;
  sim.speed_jitter = 0.1;
  sim.seed = 21;
  return sim;
}

void AddFamilyRow(Table& t, const std::string& name,
                  const std::string& instance,
                  const engine::JobMetrics& metrics,
                  const mrcost::core::Recipe& recipe) {
  const auto report = engine::CompareToLowerBound(metrics, recipe);
  t.AddRow()
      .Add(name)
      .Add(instance)
      .Add(report.realized_q)
      .Add(report.realized_r)
      .Add(report.lower_bound_r)
      .Add(report.optimality_ratio)
      .Add(report.makespan)
      .Add(report.load_imbalance)
      .Add(report.straggler_impact)
      .Add(report.capacity_violations);
}

void FamilyDriversUnderSkew() {
  Table t({"reproduction", "skewed instance", "q", "r", "bound @q",
           "r/bound", "makespan", "imbalance", "straggler impact",
           "violations"});
  engine::JobOptions options;
  options.simulation = FamilyCluster();

  // Hamming: strings huddled around Zipf-popular hubs.
  {
    const int b = 16;
    const auto strings =
        mrcost::hamming::SkewedStrings(b, 4000, /*num_hubs=*/8,
                                       /*exponent=*/1.2, /*seed=*/3);
    auto result = mrcost::hamming::SplittingSimilarityJoin(strings, b,
                                                           /*k=*/4,
                                                           /*d=*/1, options);
    AddFamilyRow(t, "hamming splitting", "4000 hub-clustered 16-bit",
                 result->metrics, mrcost::hamming::Hamming1Recipe(b));
  }

  // Join: chain HyperCube over Zipf-valued relations.
  {
    const auto query = mrcost::join::ChainQuery(3);
    const mrcost::join::Value domain = 30;
    const auto rels = mrcost::join::ZipfRelationsForQuery(
        query, /*size_per_relation=*/400, domain, /*exponent=*/1.0,
        /*seed=*/17);
    std::vector<const mrcost::join::Relation*> ptrs;
    for (const auto& r : rels) ptrs.push_back(&r);
    auto shares =
        mrcost::join::OptimizeShares(query, {400, 400, 400}, 16);
    const auto rounded = mrcost::join::RoundShares(shares->shares, 16);
    auto result =
        mrcost::join::HyperCubeJoin(query, ptrs, rounded, /*seed=*/1,
                                    options);
    AddFamilyRow(t, "chain join hypercube", "N=3, zipf(1.0) values",
                 result->metrics,
                 mrcost::join::MultiwayJoinRecipe(domain, 4, /*rho=*/2.0));
  }

  // Matmul: the one family whose placement is purely structural (dense
  // tiles, value-independent) — its skew here is the simulated cluster
  // itself (stragglers + jitter); FillZipf only shapes the numerics.
  {
    const int n = 64;
    mrcost::common::SplitMix64 rng(9);
    mrcost::matmul::Matrix a(n, n), b_mat(n, n);
    a.FillZipf(rng, 1.0);
    b_mat.FillZipf(rng, 1.0);
    auto result = mrcost::matmul::MultiplyOnePhase(a, b_mat, /*tile=*/8,
                                                   options);
    AddFamilyRow(t, "matmul one-phase", "n=64, cluster skew only",
                 result->metrics, mrcost::matmul::MatMulRecipe(n));
  }

  // Graph: triangles on a Zipf-endpoint graph (hub nodes). The instance
  // is sparse, so it scores against the Section 5.3 edge-scaled recipe
  // (triangle = Alon-class sample graph with s=3, bound sqrt(m/q)) — the
  // dense-domain TriangleRecipe would undershoot the realized r.
  {
    const mrcost::graph::NodeId n = 300;
    const auto g = mrcost::graph::ZipfGraph(n, 2000, /*exponent=*/1.0,
                                            /*seed=*/23);
    const auto result =
        mrcost::graph::MRTriangles(g, /*k=*/4, /*seed=*/11, options);
    AddFamilyRow(t, "triangles partition",
                 "n=300, m=" + std::to_string(g.num_edges()) + " zipf(1.0)",
                 result.metrics,
                 mrcost::graph::AlonSampleEdgeRecipe(g.num_edges(), 3));
  }

  t.Print(std::cout,
          "All four reproductions under skewed generators on a simulated "
          "16-worker cluster (25% stragglers at 4x, 10% jitter): realized "
          "q/r vs the Section 2.4 bound, plus what the skew costs in "
          "makespan");
}

}  // namespace

int main() {
  std::cout << "=== bench_simulator: per-worker queues, skew injection, "
               "stragglers ===\n";
  SkewSweep();
  StragglerSweep();
  CapacitySweep();
  MakespanRecovery();
  FamilyDriversUnderSkew();
  return 0;
}
