// Regenerates Table 1 of the paper: the lower bound on replication rate r
// for each analyzed problem, in terms of |I|, |O|, the per-reducer output
// bound g(q), and the closed form — evaluated numerically through the
// Section 2.4 recipe engine so the closed forms are cross-checked against
// the generic machinery, not just restated.

#include <iostream>
#include <string>

#include "src/common/random.h"
#include "src/common/table.h"
#include "src/core/lower_bound.h"
#include "src/engine/metrics.h"
#include "src/graph/alon.h"
#include "src/graph/generators.h"
#include "src/graph/triangle.h"
#include "src/graph/two_path.h"
#include "src/hamming/bitstring.h"
#include "src/hamming/bounds.h"
#include "src/hamming/similarity_join.h"
#include "src/join/edge_cover.h"
#include "src/join/query.h"
#include "src/matmul/matrix.h"
#include "src/matmul/mr_multiply.h"
#include "src/matmul/problem.h"

namespace {

using mrcost::common::FormatDouble;
using mrcost::common::Table;

void PrintSymbolicTable() {
  Table t({"Problem", "|I|", "|O|", "g(q)", "Lower bound on r"});
  t.AddRow()
      .Add("Hamming-distance-1, b-bit strings")
      .Add("2^b")
      .Add("(b/2) 2^b")
      .Add("(q/2) log2 q")
      .Add("b / log2 q");
  t.AddRow()
      .Add("Triangle finding, n nodes")
      .Add("n^2/2")
      .Add("n^3/6")
      .Add("(sqrt2/3) q^{3/2}")
      .Add("n / sqrt(2q)");
  t.AddRow()
      .Add("Alon-class sample graph, s nodes")
      .Add("n^2/2 (or m)")
      .Add("~n^s")
      .Add("q^{s/2}")
      .Add("(n/sqrt q)^{s-2} or (sqrt(m/q))^{s-2}");
  t.AddRow()
      .Add("2-paths in n-node graph")
      .Add("n^2/2")
      .Add("n^3/2")
      .Add("C(q,2)")
      .Add("2n/q");
  t.AddRow()
      .Add("Multiway join, m vars, rho from [6]")
      .Add("~n^2")
      .Add("~n^m")
      .Add("q^rho")
      .Add("n^{m-2} / q^{rho-1}");
  t.AddRow()
      .Add("n x n matrix multiplication")
      .Add("2 n^2")
      .Add("n^2")
      .Add("q^2 / (4 n^2)")
      .Add("2 n^2 / q");
  t.Print(std::cout, "Table 1 (symbolic): lower bounds on replication rate");
}

void PrintNumericTable() {
  // Evaluate each bound through the generic recipe and against the paper's
  // closed form at representative instance sizes.
  Table t({"Problem", "instance", "q", "recipe bound", "closed form",
           "ratio"});
  auto row = [&t](const std::string& name, const std::string& instance,
                  double q, const mrcost::core::Recipe& recipe,
                  double closed) {
    const double bound = mrcost::core::ReplicationLowerBound(recipe, q);
    t.AddRow()
        .Add(name)
        .Add(instance)
        .Add(q)
        .Add(bound)
        .Add(closed)
        .Add(closed == 0 ? 0.0 : bound / closed);
  };

  const int b = 20;
  for (double q : {4.0, 1024.0, 1048576.0}) {
    row("hamming-1", "b=20", q, mrcost::hamming::Hamming1Recipe(b),
        mrcost::hamming::Hamming1LowerBound(b, q));
  }
  const mrcost::graph::NodeId n = 1000;
  for (double q : {100.0, 10000.0}) {
    row("triangles", "n=1000", q, mrcost::graph::TriangleRecipe(n),
        mrcost::graph::TriangleLowerBound(n, q));
  }
  for (int s : {4, 5}) {
    row("alon sample s=" + std::to_string(s), "n=1000", 10000.0,
        mrcost::graph::AlonSampleRecipe(n, s),
        mrcost::graph::AlonSampleLowerBound(n, s, 10000.0));
  }
  for (double q : {50.0, 500.0}) {
    row("2-paths", "n=1000", q, mrcost::graph::TwoPathRecipe(n),
        mrcost::graph::TwoPathLowerBound(n, q));
  }
  // Multiway join: the triangle (clique s=3) query, rho = 3/2 from the LP.
  {
    auto cover = mrcost::join::SolveFractionalEdgeCover(
        mrcost::join::CliqueQuery(3));
    const double rho = cover.ok() ? cover->rho : 1.5;
    row("multiway join (triangle query)", "n=1000, rho=" + FormatDouble(rho),
        10000.0, mrcost::join::MultiwayJoinRecipe(1000, 3, rho),
        mrcost::join::MultiwayJoinLowerBound(1000, 3, rho, 10000.0));
  }
  const int mat_n = 512;
  for (double q : {2048.0, 65536.0}) {
    row("matmul", "n=512", q, mrcost::matmul::MatMulRecipe(mat_n),
        mrcost::matmul::MatMulLowerBound(mat_n, q));
  }
  t.Print(std::cout,
          "Table 1 (numeric): recipe bound vs paper closed form. Ratio ~1 "
          "where the form is exact; the Alon rows differ by the 2/s! "
          "symmetry constant the paper's Omega() hides");
}

void PrintMeasuredOptimality() {
  // Table 1 states bounds; this section RUNS one constructive algorithm
  // per family on the engine and prints its optimality ratio through
  // CompareToLowerBound, so every bound above is paired with a measured
  // reproduction against the same recipe.
  Table t({"Reproduction", "instance", "q", "r", "bound @q", "r/bound"});
  auto rows = [&t](const std::string& name, const std::string& instance,
                   const mrcost::engine::JobMetrics& metrics,
                   const mrcost::core::Recipe& recipe) {
    const auto rep = mrcost::engine::CompareToLowerBound(metrics, recipe);
    t.AddRow()
        .Add(name)
        .Add(instance)
        .Add(rep.realized_q)
        .Add(rep.realized_r)
        .Add(rep.lower_bound_r)
        .Add(rep.optimality_ratio);
  };

  {
    const int b = 12;
    auto result = mrcost::hamming::SplittingSimilarityJoin(
        mrcost::hamming::AllStrings(b), b, /*k=*/4, /*d=*/1);
    rows("hamming-1 splitting", "b=12, k=4", result->metrics,
         mrcost::hamming::Hamming1Recipe(b));
  }
  {
    const mrcost::graph::NodeId n = 40;
    const auto result = mrcost::graph::MRTriangles(
        mrcost::graph::CompleteGraph(n), /*k=*/4, /*seed=*/11);
    rows("triangles partition", "n=40, k=4", result.metrics,
         mrcost::graph::TriangleRecipe(n));
  }
  {
    const mrcost::graph::NodeId n = 40;
    const auto result =
        mrcost::graph::MRTwoPathsNode(mrcost::graph::CompleteGraph(n));
    rows("2-paths node", "n=40", result.metrics,
         mrcost::graph::TwoPathRecipe(n));
  }
  {
    const int n = 32;
    mrcost::common::SplitMix64 rng(2);
    mrcost::matmul::Matrix a(n, n), b_mat(n, n);
    a.FillRandom(rng);
    b_mat.FillRandom(rng);
    auto result = mrcost::matmul::MultiplyOnePhase(a, b_mat, /*tile=*/8);
    rows("matmul one-phase", "n=32, s=8", result->metrics,
         mrcost::matmul::MatMulRecipe(n));
  }
  t.Print(std::cout,
          "Measured reproductions vs the Table 1 recipes "
          "(CompareToLowerBound): splitting and one-phase tiling sit on "
          "their bounds; the triangle partition algorithm pays its known "
          "constant-factor gap");
}

void PrintMonotonicityChecks() {
  // The recipe is only sound where g(q)/q is increasing; verify for every
  // recipe used above (Section 2.4's caveat, executable).
  Table t({"Recipe", "g(q)/q monotone on [2, 1e7]"});
  auto check = [&t](const std::string& name,
                    const mrcost::core::Recipe& recipe) {
    const auto status = mrcost::core::CheckMonotoneGOverQ(recipe, 2, 1e7);
    t.AddRow().Add(name).Add(status.ok() ? "yes" : status.ToString());
  };
  check("hamming-1 (b=20)", mrcost::hamming::Hamming1Recipe(20));
  check("triangles (n=1000)", mrcost::graph::TriangleRecipe(1000));
  check("alon s=4 (n=1000)", mrcost::graph::AlonSampleRecipe(1000, 4));
  check("2-paths (n=1000)", mrcost::graph::TwoPathRecipe(1000));
  check("multiway join rho=1.5",
        mrcost::join::MultiwayJoinRecipe(1000, 3, 1.5));
  check("matmul (n=512)", mrcost::matmul::MatMulRecipe(512));
  t.Print(std::cout, "Recipe validity checks");
}

}  // namespace

int main() {
  std::cout << "=== bench_table1: lower bounds (paper Table 1) ===\n";
  PrintSymbolicTable();
  PrintNumericTable();
  PrintMeasuredOptimality();
  PrintMonotonicityChecks();
  return 0;
}
