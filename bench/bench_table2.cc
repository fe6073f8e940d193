// Regenerates Table 2 of the paper: representative upper bounds on the
// replication rate, obtained by RUNNING each constructive algorithm over
// its full input domain (or a dense instance) and measuring r and q —
// then comparing against the matching lower bound, so the table shows the
// gap (1.0 = exactly optimal). Every row goes through the engine's
// CompareToLowerBound against the family's Section 2.4 recipe, so the
// optimality ratios here use the same machinery as the pipeline benches.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/core/lower_bound.h"
#include "src/core/schema_stats.h"
#include "src/engine/metrics.h"
#include "src/graph/alon.h"
#include "src/graph/generators.h"
#include "src/graph/sample_graph_mr.h"
#include "src/graph/triangle.h"
#include "src/graph/two_path.h"
#include "src/hamming/bounds.h"
#include "src/hamming/schemas.h"
#include "src/join/aggregate.h"
#include "src/join/edge_cover.h"
#include "src/join/hypercube.h"
#include "src/join/query.h"
#include "src/join/shares.h"
#include "src/matmul/problem.h"

namespace {

using mrcost::common::Table;
using mrcost::core::ComputeSchemaStats;

/// A JobMetrics view of schema-enumeration stats, so schema-only rows can
/// share the engine's CompareToLowerBound path with the measured runs.
mrcost::engine::JobMetrics MetricsFromStats(
    const mrcost::core::SchemaStats& stats) {
  mrcost::engine::JobMetrics m;
  m.num_inputs = stats.num_inputs;
  m.pairs_shuffled = stats.total_assignments;
  m.max_reducer_input = stats.max_reducer_load;
  return m;
}

int main_impl() {
  Table t({"Problem / algorithm", "params", "measured q", "measured r",
           "recipe bound @q", "r / bound"});
  // One path for every row: evaluate the round's metrics against the
  // family recipe, print the RoundCostReport.
  auto row = [&t](const std::string& name, const std::string& params,
                  const mrcost::engine::JobMetrics& metrics,
                  const mrcost::core::Recipe& recipe) {
    const auto rep = mrcost::engine::CompareToLowerBound(metrics, recipe);
    t.AddRow()
        .Add(name)
        .Add(params)
        .Add(rep.realized_q)
        .Add(rep.realized_r)
        .Add(rep.lower_bound_r)
        .Add(rep.optimality_ratio);
  };

  // --- Hamming distance 1: Splitting algorithm at several c (Sec 3.3).
  const int b = 16;
  const auto hamming_recipe = mrcost::hamming::Hamming1Recipe(b);
  for (int c : {2, 4, 8}) {
    auto schema = mrcost::hamming::SplittingSchema::Make(b, c);
    const auto stats =
        ComputeSchemaStats(*schema, std::uint64_t{1} << b);
    row("hamming-1 splitting", "b=16, c=" + std::to_string(c),
        MetricsFromStats(stats), hamming_recipe);
  }
  // Weight-based large-q algorithm (Sec 3.4).
  {
    auto schema = mrcost::hamming::Weight2DSchema::Make(b, 2);
    const auto stats =
        ComputeSchemaStats(*schema, std::uint64_t{1} << b);
    row("hamming-1 weight-2D", "b=16, k=2", MetricsFromStats(stats),
        hamming_recipe);
  }

  // --- Triangles: partition algorithm on K_n (Sec 4.1, [21]).
  {
    const mrcost::graph::NodeId n = 60;
    const auto g = mrcost::graph::CompleteGraph(n);
    for (int k : {3, 6}) {
      const auto result = mrcost::graph::MRTriangles(g, k, /*seed=*/11);
      row("triangles partition", "n=60, k=" + std::to_string(k),
          result.metrics, mrcost::graph::TriangleRecipe(n));
    }
  }

  // --- Sample graphs: C4 enumeration on a random graph (Sec 5.2, [2]),
  // against the Section 5.3 edge-scaled recipe (the instance is sparse).
  {
    const mrcost::graph::NodeId n = 40;
    const auto g = mrcost::graph::RandomGnm(n, 300, /*seed=*/5);
    const auto result = mrcost::graph::MRSampleGraphInstances(
        g, mrcost::graph::CycleGraph(4), /*k=*/3, /*seed=*/2);
    row("sample graph C4", "n=40, m=300, k=3", result.metrics,
        mrcost::graph::AlonSampleEdgeRecipe(300, 4));
  }

  // --- 2-paths: node and bucket algorithms (Sec 5.4.2). The bound shown
  // is the exact recipe value (the paper's 2n/q closed form overshoots it
  // slightly at small n because of its binomial approximations).
  {
    const mrcost::graph::NodeId n = 60;
    const auto g = mrcost::graph::CompleteGraph(n);
    const auto recipe = mrcost::graph::TwoPathRecipe(n);
    const auto node = mrcost::graph::MRTwoPathsNode(g);
    row("2-paths node", "n=60", node.metrics, recipe);
    for (int k : {3, 6}) {
      const auto bucket = mrcost::graph::MRTwoPathsBucket(g, k, /*seed=*/4);
      row("2-paths bucket", "n=60, k=" + std::to_string(k), bucket.metrics,
          recipe);
    }
  }

  // --- Multiway join: HyperCube on a chain of 3 (Sec 5.5.2, [1]),
  // against the Section 5.5 recipe at the LP's fractional edge cover
  // (the instance is random, so the dense-domain bound is loose).
  {
    const auto query = mrcost::join::ChainQuery(3);
    mrcost::common::SplitMix64 rng(17);
    const mrcost::join::Value domain = 30;
    std::vector<mrcost::join::Relation> rels;
    for (int e = 0; e < query.num_atoms(); ++e) {
      mrcost::join::Relation rel(
          query.atoms()[e].relation,
          {query.attribute_names()[query.atoms()[e].attributes[0]],
           query.attribute_names()[query.atoms()[e].attributes[1]]});
      for (int i = 0; i < 400; ++i) {
        rel.Add({static_cast<mrcost::join::Value>(rng.UniformBelow(domain)),
                 static_cast<mrcost::join::Value>(
                     rng.UniformBelow(domain))});
      }
      rels.push_back(std::move(rel));
    }
    std::vector<const mrcost::join::Relation*> ptrs;
    for (const auto& r : rels) ptrs.push_back(&r);
    auto shares = mrcost::join::OptimizeShares(query, {400, 400, 400}, 16);
    const auto rounded = mrcost::join::RoundShares(shares->shares, 16);
    auto result = mrcost::join::HyperCubeJoin(query, ptrs, rounded, 1);
    auto cover = mrcost::join::SolveFractionalEdgeCover(query);
    const double rho = cover.ok() ? cover->rho : 2.0;
    row("chain join (N=3) hypercube", "|R|=400, p=16", result->metrics,
        mrcost::join::MultiwayJoinRecipe(domain, query.num_attributes(),
                                         rho));
  }

  // --- Word count: embarrassingly parallel (Example 2.5). One reducer
  // per input word, g(q) = q and |O| <= |I|, so the recipe collapses to
  // the trivial r >= 1 and word count sits exactly on it.
  {
    const auto words = mrcost::join::Tokenize(
        {"to be or not to be", "that is the question", "be that as it may"});
    const auto result = mrcost::join::WordCount(words);
    mrcost::core::Recipe recipe;
    recipe.problem_name = "word-count";
    recipe.g = [](double q) { return q; };
    recipe.num_inputs = static_cast<double>(result.metrics.num_inputs);
    recipe.num_outputs = static_cast<double>(result.metrics.num_outputs);
    row("word count", "3 documents", result.metrics, recipe);
  }

  // --- Matrix multiplication: one-phase tiling (Sec 6.2).
  {
    const int n = 64;
    for (int s : {8, 16}) {
      auto schema = mrcost::matmul::OnePhaseSchema::Make(n, s);
      const auto stats = ComputeSchemaStats(
          *schema, 2 * static_cast<std::uint64_t>(n) * n);
      row("matmul one-phase", "n=64, s=" + std::to_string(s),
          MetricsFromStats(stats), mrcost::matmul::MatMulRecipe(n));
    }
  }

  t.Print(std::cout,
          "Table 2: measured upper bounds vs recipe lower bounds via "
          "CompareToLowerBound (r/bound = 1 means the algorithm is exactly "
          "optimal)");
  return 0;
}

}  // namespace

int main() {
  std::cout << "=== bench_table2: achievable replication rates (paper "
               "Table 2) ===\n";
  return main_impl();
}
