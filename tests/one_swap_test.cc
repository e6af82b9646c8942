// DyOneSwap correctness: unit tests for every update case of Algorithm 2
// plus parameterized property sweeps asserting, after every single update,
// independence, maximality, internal structure consistency and the absence
// of any 1-swap (verified by brute force).

#include "src/core/dy_swap.h"

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/static_mis/greedy.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::HasSwapUpTo;
using testing_util::IsIndependentSet;
using testing_util::IsMaximalIndependentSet;

TEST(DyOneSwapTest, EmptyGraph) {
  DynamicGraph g(0);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  EXPECT_EQ(algo.SolutionSize(), 0);
}

TEST(DyOneSwapTest, IsolatedVerticesAllEnter) {
  DynamicGraph g(4);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  EXPECT_EQ(algo.SolutionSize(), 4);
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, TriangleKeepsOneVertex) {
  DynamicGraph g = CompleteGraph(3).ToDynamic();
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  EXPECT_EQ(algo.SolutionSize(), 1);
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, InitialSolutionIsRespectedAndExtended) {
  // Path 0-1-2-3: initializing with {1} must still produce a maximal set.
  DynamicGraph g = PathGraph(4).ToDynamic();
  DySwap algo(&g, 1);
  algo.Initialize({1});
  EXPECT_TRUE(algo.InSolution(1));
  EXPECT_TRUE(IsMaximalIndependentSet(g, algo.Solution()));
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, InitializeFixesOneSwapsInStar) {
  // Star: the hub alone is maximal but not 1-maximal; initialization must
  // swap the hub for the leaves.
  DynamicGraph g = StarGraph(5).ToDynamic();
  DySwap algo(&g, 1);
  algo.Initialize({0});
  EXPECT_EQ(algo.SolutionSize(), 5);
  EXPECT_FALSE(algo.InSolution(0));
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, EdgeInsertBetweenSolutionVertices) {
  DynamicGraph g(2);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  EXPECT_EQ(algo.SolutionSize(), 2);
  algo.InsertEdge(0, 1);
  EXPECT_EQ(algo.SolutionSize(), 1);
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, EdgeDeleteTriggersOneSwap) {
  // Star with 2 leaves: 0 is hub. Solution {0} after forcing edges 1-2.
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  ASSERT_EQ(algo.SolutionSize(), 1);
  // Deleting 1-2 creates the 1-swap {hub} -> {1, 2} when hub was selected;
  // otherwise the solution simply stays 1-maximal.
  algo.DeleteEdge(1, 2);
  EXPECT_EQ(algo.SolutionSize(), 2);
  EXPECT_FALSE(HasSwapUpTo(g, algo.Solution(), 1));
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, VertexInsertWithNeighbors) {
  DynamicGraph g(3);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  const VertexId v = algo.InsertVertex({0, 1, 2});
  EXPECT_FALSE(algo.InSolution(v));
  EXPECT_EQ(algo.SolutionSize(), 3);
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, VertexDeleteFreesNeighbors) {
  DynamicGraph g = StarGraph(4).ToDynamic();
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  ASSERT_EQ(algo.SolutionSize(), 4);  // Leaves win.
  // Delete a leaf; hub still covered by other leaves.
  algo.DeleteVertex(1);
  EXPECT_EQ(algo.SolutionSize(), 3);
  algo.CheckConsistency();
  // Delete remaining leaves; hub must enter.
  algo.DeleteVertex(2);
  algo.DeleteVertex(3);
  algo.DeleteVertex(4);
  EXPECT_TRUE(algo.InSolution(0));
  algo.CheckConsistency();
}

TEST(DyOneSwapTest, VertexIdRecyclingIsClean) {
  DynamicGraph g(4);
  g.AddEdge(0, 1);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  algo.DeleteVertex(0);
  const VertexId v = algo.InsertVertex({2, 3});
  EXPECT_EQ(v, 0);  // Recycled id.
  algo.CheckConsistency();
  EXPECT_TRUE(IsMaximalIndependentSet(g, algo.Solution()));
}

struct SweepParam {
  int n;
  double density;  // Edges as a multiple of n.
  double edge_op_fraction;
  uint64_t seed;
};

class DyOneSwapPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DyOneSwapPropertyTest, InvariantsHoldAfterEveryUpdate) {
  const SweepParam param = GetParam();
  Rng rng(SplitMix64(param.seed));
  const EdgeListGraph base = ErdosRenyiGnm(
      param.n, static_cast<int64_t>(param.n * param.density), &rng);
  DynamicGraph g = base.ToDynamic();
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  ASSERT_TRUE(IsMaximalIndependentSet(g, algo.Solution()));
  ASSERT_FALSE(HasSwapUpTo(g, algo.Solution(), 1));

  UpdateStreamOptions stream;
  stream.seed = param.seed * 31 + 7;
  stream.edge_op_fraction = param.edge_op_fraction;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 220; ++step) {
    const GraphUpdate update = gen.Next(g);
    algo.Apply(update);
    algo.CheckConsistency();
    const std::vector<VertexId> solution = algo.Solution();
    ASSERT_TRUE(IsIndependentSet(g, solution)) << "step " << step;
    ASSERT_TRUE(IsMaximalIndependentSet(g, solution)) << "step " << step;
    ASSERT_FALSE(HasSwapUpTo(g, solution, 1))
        << "1-swap exists after step " << step << " ("
        << update.DebugString() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DyOneSwapPropertyTest,
    ::testing::Values(SweepParam{12, 1.0, 0.9, 1}, SweepParam{20, 1.5, 0.9, 2},
                      SweepParam{20, 0.5, 0.5, 3}, SweepParam{30, 2.0, 0.8, 4},
                      SweepParam{30, 3.0, 0.95, 5}, SweepParam{8, 2.0, 0.7, 6},
                      SweepParam{40, 1.2, 0.6, 7},
                      SweepParam{25, 2.5, 1.0, 8}));

// The perturbation option must preserve all invariants.
TEST(DyOneSwapTest, PerturbationKeepsInvariants) {
  Rng rng(99);
  const EdgeListGraph base = ErdosRenyiGnm(25, 50, &rng);
  DynamicGraph g = base.ToDynamic();
  MaintainerConfig options;
  options.perturb = true;
  DySwap algo(&g, 1, options);
  algo.InitializeEmpty();
  UpdateStreamOptions stream;
  stream.seed = 1234;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 200; ++step) {
    algo.Apply(gen.Next(g));
    algo.CheckConsistency();
    ASSERT_FALSE(HasSwapUpTo(g, algo.Solution(), 1));
  }
}

// Stats counters move.
TEST(DyOneSwapTest, StatsCountSwaps) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  algo.DeleteEdge(1, 2);
  EXPECT_GE(algo.stats().one_swaps, 1);
}

}  // namespace
}  // namespace dynmis
