// Theory reproduction: Theorem 2's (Delta/2 + 1) bound checked against
// exact optima on random sweeps; Theorem 3's worst-case families actually
// achieve ratio ~ Delta/2; Theorem 4's premise (power-law boundedness)
// verified on the generator outputs; Lemma 1 (bar1(v) is a clique at a
// 1-maximal solution).

#include <cmath>

#include "gtest/gtest.h"
#include "src/core/dy_swap.h"
#include "src/graph/degree_stats.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/static_mis/brute_force.h"
#include "src/static_mis/exact.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

// alpha(G) <= (Delta/2 + 1) |I| for every 1-maximal I (Theorem 2), checked
// on static random graphs via brute force.
TEST(ApproximationTest, Theorem2BoundHoldsOnRandomSweep) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 3 + 1);
    const int n = 8 + static_cast<int>(rng.NextBounded(18));
    const EdgeListGraph base =
        ErdosRenyiGnm(n, static_cast<int64_t>(n * (0.5 + rng.NextDouble() * 2)),
                      &rng);
    DynamicGraph g = base.ToDynamic();
    DySwap algo(&g, 1);
    algo.InitializeEmpty();
    const int alpha = BruteForceAlpha(base.ToStatic());
    const double delta = g.MaxDegree();
    EXPECT_LE(alpha, (delta / 2.0 + 1.0) * algo.SolutionSize())
        << "seed " << seed;
  }
}

// The bound keeps holding while the graph changes (the dynamic statement of
// Theorem 6).
TEST(ApproximationTest, Theorem6BoundHoldsUnderUpdates) {
  Rng rng(99);
  const EdgeListGraph base = ErdosRenyiGnm(16, 24, &rng);
  DynamicGraph g = base.ToDynamic();
  DySwap algo(&g, 2);
  algo.InitializeEmpty();
  UpdateStreamOptions stream;
  stream.seed = 2024;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 120; ++step) {
    algo.Apply(gen.Next(g));
    if (g.NumVertices() == 0) continue;
    const int alpha = BruteForceAlpha(StaticGraph::FromDynamic(g));
    const double delta = g.MaxDegree();
    ASSERT_LE(alpha, (delta / 2.0 + 1.0) * algo.SolutionSize())
        << "step " << step;
  }
}

// Theorem 3 witnesses: in K'_n the original clique vertices form a
// k-maximal IS of size n while alpha = n(n-1)/2 and Delta = n-1, so the
// ratio approaches Delta/2. The point of the theorem: a k-maximal solution
// CAN be this bad, i.e. the set {0..n-1} admits no j-swap for j <= 3.
TEST(ApproximationTest, Theorem3SubdividedCliqueIsWorstCase) {
  for (int n : {4, 5, 6}) {
    const EdgeListGraph kp = SubdivideEdges(CompleteGraph(n));
    DynamicGraph g = kp.ToDynamic();
    std::vector<VertexId> clique_vertices;
    for (VertexId v = 0; v < n; ++v) clique_vertices.push_back(v);
    ASSERT_TRUE(testing_util::IsMaximalIndependentSet(g, clique_vertices));
    // No j-swap for j <= 3 (the theorem's statement for k in {2, 3}).
    EXPECT_FALSE(testing_util::HasSwapUpTo(g, clique_vertices, 3)) << n;
    // And yet the optimum is the set of subdivision vertices.
    const int alpha = BruteForceAlpha(kp.ToStatic());
    EXPECT_EQ(alpha, n * (n - 1) / 2);
    const double delta = g.MaxDegree();
    EXPECT_NEAR(static_cast<double>(alpha) / n, delta / 2.0, 0.51);
  }
}

// Theorem 3 for k >= 4: subdivided hypercubes Q'_d: the 2^d original
// vertices form a k-maximal IS (shortest cycle length d protects them).
TEST(ApproximationTest, Theorem3SubdividedHypercube) {
  const int d = 4;
  const EdgeListGraph qd = Hypercube(d);
  const EdgeListGraph qp = SubdivideEdges(qd);
  DynamicGraph g = qp.ToDynamic();
  std::vector<VertexId> originals;
  for (VertexId v = 0; v < qd.n; ++v) originals.push_back(v);
  ASSERT_TRUE(testing_util::IsMaximalIndependentSet(g, originals));
  EXPECT_FALSE(testing_util::HasSwapUpTo(g, originals, 4));
  // alpha(Q'_d) = 2^{d-1} d = #subdivision vertices.
  EXPECT_EQ(qp.n - qd.n, (1 << (d - 1)) * d);
}

// Lemma 1: at a 1-maximal solution, G[bar1(v)] is a clique for every
// solution vertex v.
TEST(ApproximationTest, Lemma1CliqueProperty) {
  Rng rng(5);
  const EdgeListGraph base = ErdosRenyiGnm(40, 90, &rng);
  DynamicGraph g = base.ToDynamic();
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  std::vector<int> count(g.VertexCapacity(), 0);
  for (VertexId v : algo.Solution()) {
    g.ForEachIncident(v, [&](VertexId u) { ++count[u]; });
  }
  for (VertexId v : algo.Solution()) {
    std::vector<VertexId> bar1;
    g.ForEachIncident(v, [&](VertexId u) {
      if (count[u] == 1) bar1.push_back(u);
    });
    for (size_t i = 0; i < bar1.size(); ++i) {
      for (size_t j = i + 1; j < bar1.size(); ++j) {
        EXPECT_TRUE(g.HasEdge(bar1[i], bar1[j]))
            << "bar1(" << v << ") is not a clique";
      }
    }
  }
}

// Theorem 4 premise: the Chung-Lu generator with beta > 2 produces graphs
// whose dyadic degree buckets admit PLB constants with c1/c2 of moderate
// spread, and the estimated exponent is near the requested one.
TEST(ApproximationTest, GeneratedGraphsArePowerLawBounded) {
  Rng rng(8);
  const EdgeListGraph g = ChungLuPowerLaw(30000, 2.5, 8.0, &rng);
  const DegreeStats stats = ComputeDegreeStats(g.ToStatic());
  double c1 = 0;
  double c2 = 0;
  ASSERT_TRUE(FitPlbConstants(stats, 2.5, 0.0, &c1, &c2));
  EXPECT_GT(c2, 0.0);
  EXPECT_LT(c1 / c2, 200.0);  // Sandwich width is a bounded constant.
  EXPECT_TRUE(IsPowerLawBounded(stats, 2.5, 0.0, c1 * 1.01, c2 * 0.99));
  const double beta = EstimatePowerLawExponent(stats);
  EXPECT_NEAR(beta, 2.5, 0.8);
}

// On PLB graphs the paper's Theorem 4 ratio is a constant independent of n:
// empirically the maintained solution is within a small constant of alpha.
TEST(ApproximationTest, ConstantFactorOnPowerLawGraphs) {
  Rng rng(21);
  const EdgeListGraph base = ChungLuPowerLaw(2000, 2.5, 6.0, &rng);
  DynamicGraph g = base.ToDynamic();
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  const ExactMisResult exact = SolveExactMis(base.ToStatic());
  ASSERT_TRUE(exact.solved);
  const double ratio = static_cast<double>(exact.solution.size()) /
                       static_cast<double>(algo.SolutionSize());
  EXPECT_LT(ratio, 1.35);  // Far below Delta/2 + 1; constant in practice.
}

}  // namespace
}  // namespace dynmis
