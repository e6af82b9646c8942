// DyTwoSwap correctness: unit tests for Algorithm 3's update cases and
// property sweeps asserting 2-maximality (no 1-swap and no 2-swap, brute
// forced) and MisState consistency after every update.

#include "src/core/dy_swap.h"

#include <vector>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::HasSwapUpTo;
using testing_util::IsIndependentSet;
using testing_util::IsMaximalIndependentSet;

TEST(DyTwoSwapTest, EmptyGraph) {
  DynamicGraph g(0);
  DySwap algo(&g, 2);
  algo.InitializeEmpty();
  EXPECT_EQ(algo.SolutionSize(), 0);
}

TEST(DyTwoSwapTest, InitializeFindsTwoSwap) {
  // C5 with a chord pattern where a 2-maximal set is strictly larger than a
  // bad maximal one: take K'_3 (triangle with each edge subdivided): the
  // original triangle vertices {0,1,2} are 1-maximal (subdivision vertices
  // 3,4,5 are 2-tight, each pair shares one), but {3,4,5} is the optimum.
  DynamicGraph g = SubdivideEdges(CompleteGraph(3)).ToDynamic();
  DySwap algo(&g, 2);
  algo.Initialize({0, 1, 2});
  // A 2-maximal solution of K'_3 has size 3 and no 2-swap.
  EXPECT_FALSE(HasSwapUpTo(g, algo.Solution(), 2));
  algo.CheckConsistency();
}

TEST(DyTwoSwapTest, OneMaximalButNotTwoMaximalGetsFixed) {
  // Two solution vertices x=0, y=1; three mutually non-adjacent vertices
  // 2, 3, 4 where 2 sees only x, 3 sees only y, 4 sees both. The 1-maximal
  // set {0, 1} admits the 2-swap -> {2, 3, 4}.
  DynamicGraph g(5);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(0, 4);
  g.AddEdge(1, 4);
  DySwap algo(&g, 2);
  algo.Initialize({0, 1});
  EXPECT_EQ(algo.SolutionSize(), 3);
  EXPECT_TRUE(algo.InSolution(4));
  algo.CheckConsistency();
}

TEST(DyTwoSwapTest, EdgeDeletionCaseB) {
  // Owners x=0, y=1. u=2 (tight on x), v=3 (tight on y), w=4 (2-tight on
  // both). Initially u-v edge forces 1-maximality; deleting it enables the
  // 2-swap {x,y} -> {u,v,w} (case ii.b of Algorithm 3).
  DynamicGraph g(5);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(0, 4);
  g.AddEdge(1, 4);
  g.AddEdge(2, 3);  // The edge to delete.
  // Make u and v not form a 1-swap with w: w adjacent to both owners only.
  DySwap algo(&g, 2);
  algo.Initialize({0, 1});
  ASSERT_EQ(algo.SolutionSize(), 2);
  algo.DeleteEdge(2, 3);
  EXPECT_EQ(algo.SolutionSize(), 3);
  EXPECT_FALSE(HasSwapUpTo(g, algo.Solution(), 2));
  algo.CheckConsistency();
}

TEST(DyTwoSwapTest, MatchesOneSwapQualityFloor) {
  // On any graph, a 2-maximal solution is at least as large as some
  // 1-maximal one locally; sanity-check sizes on random inputs.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const EdgeListGraph base = ErdosRenyiGnm(40, 80, &rng);
    DynamicGraph g1 = base.ToDynamic();
    DynamicGraph g2 = base.ToDynamic();
    DySwap one(&g1, 1);
    DySwap two(&g2, 2);
    one.InitializeEmpty();
    two.InitializeEmpty();
    EXPECT_FALSE(HasSwapUpTo(g2, two.Solution(), 2)) << "seed " << seed;
  }
}

struct SweepParam {
  int n;
  double density;
  double edge_op_fraction;
  uint64_t seed;
};

class DyTwoSwapPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DyTwoSwapPropertyTest, TwoMaximalAfterEveryUpdate) {
  const SweepParam param = GetParam();
  Rng rng(SplitMix64(param.seed ^ 0xabcdef));
  const EdgeListGraph base = ErdosRenyiGnm(
      param.n, static_cast<int64_t>(param.n * param.density), &rng);
  DynamicGraph g = base.ToDynamic();
  DySwap algo(&g, 2);
  algo.InitializeEmpty();
  ASSERT_FALSE(HasSwapUpTo(g, algo.Solution(), 2)) << "after init";

  UpdateStreamOptions stream;
  stream.seed = param.seed * 131 + 13;
  stream.edge_op_fraction = param.edge_op_fraction;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 160; ++step) {
    const GraphUpdate update = gen.Next(g);
    algo.Apply(update);
    algo.CheckConsistency();
    const std::vector<VertexId> solution = algo.Solution();
    ASSERT_TRUE(IsIndependentSet(g, solution)) << "step " << step;
    ASSERT_TRUE(IsMaximalIndependentSet(g, solution)) << "step " << step;
    ASSERT_FALSE(HasSwapUpTo(g, solution, 2))
        << "j-swap (j<=2) exists after step " << step << " ("
        << update.DebugString() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DyTwoSwapPropertyTest,
    ::testing::Values(SweepParam{10, 1.0, 0.9, 1}, SweepParam{16, 1.5, 0.9, 2},
                      SweepParam{16, 0.6, 0.5, 3}, SweepParam{22, 2.0, 0.8, 4},
                      SweepParam{22, 2.8, 0.95, 5}, SweepParam{8, 1.5, 0.7, 6},
                      SweepParam{26, 1.2, 0.6, 7},
                      SweepParam{18, 2.2, 1.0, 8}));

TEST(DyTwoSwapTest, PerturbationKeepsInvariants) {
  Rng rng(7);
  const EdgeListGraph base = ErdosRenyiGnm(20, 40, &rng);
  DynamicGraph g = base.ToDynamic();
  MaintainerConfig options;
  options.perturb = true;
  DySwap algo(&g, 2, options);
  algo.InitializeEmpty();
  UpdateStreamOptions stream;
  stream.seed = 4321;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 150; ++step) {
    algo.Apply(gen.Next(g));
    algo.CheckConsistency();
    ASSERT_FALSE(HasSwapUpTo(g, algo.Solution(), 2));
  }
}

// DyTwoSwap must never maintain a smaller solution than DyOneSwap when both
// process the same stream from the same initial solution - not a theorem,
// but the consistent experimental finding of the paper; we check it as a
// statistical property over seeds with a small tolerance.
TEST(DyTwoSwapTest, TracksOrBeatsOneSwapOnAverage) {
  int64_t total_one = 0;
  int64_t total_two = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 997);
    const EdgeListGraph base = ErdosRenyiGnm(60, 150, &rng);
    DynamicGraph g1 = base.ToDynamic();
    DynamicGraph g2 = base.ToDynamic();
    DySwap one(&g1, 1);
    DySwap two(&g2, 2);
    one.InitializeEmpty();
    two.InitializeEmpty();
    UpdateStreamOptions stream;
    stream.seed = seed;
    const std::vector<GraphUpdate> updates =
        MakeUpdateSequence(base, 120, stream);
    for (const GraphUpdate& update : updates) {
      one.Apply(update);
      two.Apply(update);
    }
    total_one += one.SolutionSize();
    total_two += two.SolutionSize();
  }
  EXPECT_GE(total_two, total_one);
}

}  // namespace
}  // namespace dynmis
