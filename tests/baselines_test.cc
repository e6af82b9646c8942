// Baseline maintainers: DyARW must match DyOneSwap's invariant class
// (1-maximality), DGOneDIS/DGTwoDIS must stay maximal (their guarantee),
// and Recompute must always return a maximal greedy solution.

#include <vector>

#include "gtest/gtest.h"
#include "src/baselines/dgdis.h"
#include "src/baselines/dyarw.h"
#include "src/baselines/recompute.h"
#include "src/core/dy_swap.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::HasSwapUpTo;
using testing_util::IsIndependentSet;
using testing_util::IsMaximalIndependentSet;

TEST(DyArwTest, BasicCases) {
  DynamicGraph g = StarGraph(4).ToDynamic();
  DyArw algo(&g);
  algo.Initialize({0});
  EXPECT_EQ(algo.SolutionSize(), 4);  // Swaps hub for leaves.
  algo.CheckConsistency();
}

struct SweepParam {
  int n;
  double density;
  double edge_op_fraction;
  uint64_t seed;
};

class DyArwPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DyArwPropertyTest, OneMaximalAfterEveryUpdate) {
  const SweepParam param = GetParam();
  Rng rng(SplitMix64(param.seed ^ 0xa12));
  const EdgeListGraph base = ErdosRenyiGnm(
      param.n, static_cast<int64_t>(param.n * param.density), &rng);
  DynamicGraph g = base.ToDynamic();
  DyArw algo(&g);
  algo.Initialize({});
  ASSERT_FALSE(HasSwapUpTo(g, algo.Solution(), 1));

  UpdateStreamOptions stream;
  stream.seed = param.seed * 41 + 11;
  stream.edge_op_fraction = param.edge_op_fraction;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 180; ++step) {
    const GraphUpdate update = gen.Next(g);
    algo.Apply(update);
    algo.CheckConsistency();
    ASSERT_TRUE(IsMaximalIndependentSet(g, algo.Solution())) << step;
    ASSERT_FALSE(HasSwapUpTo(g, algo.Solution(), 1))
        << "1-swap after step " << step << " (" << update.DebugString() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DyArwPropertyTest,
    ::testing::Values(SweepParam{12, 1.0, 0.9, 1}, SweepParam{20, 1.5, 0.8, 2},
                      SweepParam{28, 2.0, 0.6, 3},
                      SweepParam{16, 0.8, 1.0, 4}));

// DyARW and DyOneSwap maintain the same invariant class; their sizes over a
// shared stream should track each other closely (paper: "its performance is
// almost the same as DyOneSwap on all graphs").
TEST(DyArwTest, SizeTracksDyOneSwap) {
  int64_t total_arw = 0;
  int64_t total_one = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 17);
    const EdgeListGraph base = ErdosRenyiGnm(80, 200, &rng);
    DynamicGraph ga = base.ToDynamic();
    DynamicGraph gb = base.ToDynamic();
    DyArw arw(&ga);
    DySwap one(&gb, 1);
    arw.Initialize({});
    one.InitializeEmpty();
    UpdateStreamOptions stream;
    stream.seed = seed;
    for (const GraphUpdate& update :
         MakeUpdateSequence(base, 150, stream)) {
      arw.Apply(update);
      one.Apply(update);
    }
    total_arw += arw.SolutionSize();
    total_one += one.SolutionSize();
  }
  const double ratio =
      static_cast<double>(total_arw) / static_cast<double>(total_one);
  EXPECT_GT(ratio, 0.97);
  EXPECT_LT(ratio, 1.03);
}

class DgDisPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DgDisPropertyTest, MaximalAfterEveryUpdate) {
  const SweepParam param = GetParam();
  for (int level : {1, 2}) {
    Rng rng(SplitMix64(param.seed ^ 0xd6d));
    const EdgeListGraph base = ErdosRenyiGnm(
        param.n, static_cast<int64_t>(param.n * param.density), &rng);
    DynamicGraph g = base.ToDynamic();
    DgDis algo(&g, level);
    algo.Initialize({});
    UpdateStreamOptions stream;
    stream.seed = param.seed * 7 + level;
    stream.edge_op_fraction = param.edge_op_fraction;
    UpdateStreamGenerator gen(stream, base);
    for (int step = 0; step < 200; ++step) {
      const GraphUpdate update = gen.Next(g);
      algo.Apply(update);
      algo.CheckConsistency();
      ASSERT_TRUE(IsIndependentSet(g, algo.Solution())) << step;
      ASSERT_TRUE(IsMaximalIndependentSet(g, algo.Solution()))
          << "not maximal after step " << step << " ("
          << update.DebugString() << "), level " << level;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DgDisPropertyTest,
    ::testing::Values(SweepParam{15, 1.2, 0.9, 1}, SweepParam{25, 1.8, 0.7, 2},
                      SweepParam{20, 0.9, 1.0, 3},
                      SweepParam{30, 2.2, 0.5, 4}));

TEST(RecomputeTest, AlwaysMaximal) {
  Rng rng(31);
  const EdgeListGraph base = ErdosRenyiGnm(40, 100, &rng);
  DynamicGraph g = base.ToDynamic();
  RecomputeGreedy algo(&g);
  algo.Initialize({});
  UpdateStreamOptions stream;
  stream.seed = 777;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 100; ++step) {
    algo.Apply(gen.Next(g));
    ASSERT_TRUE(IsMaximalIndependentSet(g, algo.Solution())) << step;
  }
}

TEST(RecomputeTest, AmortizedModeOnlyRecomputesPeriodically) {
  DynamicGraph g(6);
  RecomputeGreedy algo(&g, /*every=*/3);
  algo.Initialize({});
  EXPECT_EQ(algo.SolutionSize(), 6);
  // Two updates without recompute: solution may be stale but must not crash.
  algo.InsertEdge(0, 1);
  algo.InsertEdge(2, 3);
  algo.InsertEdge(4, 5);  // Third update triggers recompute.
  EXPECT_EQ(algo.SolutionSize(), 3);
}

}  // namespace
}  // namespace dynmis
