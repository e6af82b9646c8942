// Greedy and ARW local-search tests: validity, maximality, and the quality
// ordering greedy <= ARW <= exact on random sweeps; the start-solution
// helper's fallback from an over-budget exact solve to ARW.

#include <vector>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/static_mis/arw.h"
#include "src/static_mis/brute_force.h"
#include "src/static_mis/exact.h"
#include "src/static_mis/greedy.h"
#include "src/static_mis/initial_solution.h"
#include "src/util/random.h"

namespace dynmis {
namespace {

bool IsIndependent(const StaticGraph& g, const std::vector<VertexId>& set) {
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      if (g.HasEdge(set[i], set[j])) return false;
    }
  }
  return true;
}

bool IsMaximal(const StaticGraph& g, const std::vector<VertexId>& set) {
  std::vector<uint8_t> chosen(g.NumVertices(), 0);
  for (VertexId v : set) chosen[v] = 1;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (chosen[v]) continue;
    bool covered = false;
    for (VertexId u : g.Neighbors(v)) covered |= chosen[u] != 0;
    if (!covered) return false;
  }
  return true;
}

TEST(GreedyTest, EmptyAndIsolated) {
  EXPECT_TRUE(GreedyMis(StaticGraph(0, {})).empty());
  EXPECT_EQ(GreedyMis(StaticGraph(5, {})).size(), 5u);
}

TEST(GreedyTest, PicksLeavesOnStar) {
  const StaticGraph g = StarGraph(6).ToStatic();
  const std::vector<VertexId> solution = GreedyMis(g);
  EXPECT_EQ(solution.size(), 6u);
}

TEST(GreedyTest, MaximalAndIndependentOnRandomSweep) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed);
    const int n = 20 + static_cast<int>(rng.NextBounded(200));
    const StaticGraph g =
        ErdosRenyiGnm(n, static_cast<int64_t>(n * 2), &rng).ToStatic();
    const std::vector<VertexId> solution = GreedyMis(g);
    EXPECT_TRUE(IsIndependent(g, solution)) << seed;
    EXPECT_TRUE(IsMaximal(g, solution)) << seed;
  }
}

TEST(ArwTest, ImprovesOrMatchesGreedy) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 13);
    const StaticGraph g = ErdosRenyiGnm(120, 360, &rng).ToStatic();
    ArwOptions options;
    options.iterations = 300;
    options.seed = seed;
    const std::vector<VertexId> arw = ArwMis(g, options);
    EXPECT_TRUE(IsIndependent(g, arw)) << seed;
    EXPECT_TRUE(IsMaximal(g, arw)) << seed;
    EXPECT_GE(arw.size(), GreedyMis(g).size()) << seed;
  }
}

TEST(ArwTest, NearOptimalOnSmallGraphs) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 29);
    const StaticGraph g = ErdosRenyiGnm(24, 50, &rng).ToStatic();
    ArwOptions options;
    options.iterations = 500;
    options.seed = seed;
    const int alpha = BruteForceAlpha(g);
    const int arw = static_cast<int>(ArwMis(g, options).size());
    EXPECT_LE(arw, alpha);
    EXPECT_GE(arw, alpha - 1) << "seed " << seed;  // ARW is near-optimal here.
  }
}

TEST(ArwTest, RespectsInitialSolution) {
  const StaticGraph g = PathGraph(6).ToStatic();
  ArwOptions options;
  options.iterations = 0;
  const std::vector<VertexId> result = ArwMisFrom(g, {0}, options);
  EXPECT_TRUE(IsIndependent(g, result));
  EXPECT_TRUE(IsMaximal(g, result));
}

TEST(ArwTest, OrderingGreedyArwExact) {
  Rng rng(3);
  const StaticGraph g = ChungLuPowerLaw(800, 2.4, 6.0, &rng).ToStatic();
  ArwOptions options;
  options.iterations = 400;
  const size_t greedy = GreedyMis(g).size();
  const size_t arw = ArwMis(g, options).size();
  const ExactMisResult exact = SolveExactMis(g);
  ASSERT_TRUE(exact.solved);
  EXPECT_LE(greedy, arw + 2);  // ARW starts from greedy; allow search noise.
  EXPECT_GE(arw, greedy);
  EXPECT_GE(exact.solution.size(), arw);
}

TEST(InitialSolutionTest, ExactFallsBackToArwWhenOverBudget) {
  Rng rng(17);
  const EdgeListGraph base = ErdosRenyiGnm(300, 1200, &rng);
  const StaticGraph g = base.ToStatic();
  ExactMisOptions one_node;
  one_node.max_nodes = 1;
  ASSERT_FALSE(SolveExactMis(g, one_node).solved);  // Too small to solve.

  const std::vector<VertexId> start = ComputeInitialSolution(
      base, InitialSolution::kExact, /*arw_iterations=*/50,
      /*exact_node_budget=*/1, /*exact_seconds_budget=*/20.0);
  ArwOptions arw;
  arw.iterations = 50;
  EXPECT_EQ(start, ArwMis(g, arw));
  EXPECT_TRUE(IsIndependent(g, start));
  EXPECT_TRUE(IsMaximal(g, start));
  EXPECT_TRUE(ComputeInitialSolution(base, InitialSolution::kEmpty, 50, 1, 20.0)
                  .empty());
}

}  // namespace
}  // namespace dynmis
