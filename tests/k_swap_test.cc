// KSwapMaintainer: the generic Algorithm-1 framework. Tests assert exact
// k-maximality (brute force) for k in {1, 2, 3} on small graphs after
// every update, basic invariants for k = 4, and the Fig 9 quality trend
// (larger k never hurts solution size on average).

#include "src/core/k_swap.h"

#include <vector>

#include "gtest/gtest.h"
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

TEST(KSwapTest, KOneMatchesOneSwapSemantics) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const EdgeListGraph base = ErdosRenyiGnm(24, 40, &rng);
    DynamicGraph g = base.ToDynamic();
    KSwapMaintainer algo(&g, 1);
    algo.InitializeEmpty();
    EXPECT_FALSE(HasSwapUpTo(g, algo.Solution(), 1)) << "seed " << seed;
    algo.CheckConsistency();
  }
}

TEST(KSwapTest, KTwoMatchesTwoSwapSemantics) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 3);
    const EdgeListGraph base = ErdosRenyiGnm(18, 36, &rng);
    DynamicGraph g = base.ToDynamic();
    KSwapMaintainer algo(&g, 2);
    algo.InitializeEmpty();
    EXPECT_FALSE(HasSwapUpTo(g, algo.Solution(), 2)) << "seed " << seed;
    algo.CheckConsistency();
  }
}

struct SweepParam {
  int k;
  int n;
  double density;
  uint64_t seed;
};

class KSwapPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KSwapPropertyTest, KMaximalAfterEveryUpdate) {
  const SweepParam param = GetParam();
  Rng rng(SplitMix64(param.seed ^ 0x5eed));
  const EdgeListGraph base = ErdosRenyiGnm(
      param.n, static_cast<int64_t>(param.n * param.density), &rng);
  DynamicGraph g = base.ToDynamic();
  KSwapMaintainer algo(&g, param.k);
  algo.InitializeEmpty();
  ASSERT_FALSE(HasSwapUpTo(g, algo.Solution(), param.k)) << "after init";

  UpdateStreamOptions stream;
  stream.seed = param.seed * 17 + 3;
  UpdateStreamGenerator gen(stream, base);
  const int steps = param.k >= 3 ? 80 : 140;
  for (int step = 0; step < steps; ++step) {
    const GraphUpdate update = gen.Next(g);
    algo.Apply(update);
    algo.CheckConsistency();
    const std::vector<VertexId> solution = algo.Solution();
    ASSERT_TRUE(IsMaximalIndependentSet(g, solution)) << "step " << step;
    ASSERT_FALSE(HasSwapUpTo(g, solution, param.k))
        << "j-swap (j<=" << param.k << ") exists after step " << step << " ("
        << update.DebugString() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KSwapPropertyTest,
    ::testing::Values(SweepParam{1, 20, 1.5, 1}, SweepParam{1, 30, 2.0, 2},
                      SweepParam{2, 14, 1.2, 3}, SweepParam{2, 18, 1.8, 4},
                      SweepParam{3, 12, 1.0, 5}, SweepParam{3, 14, 1.5, 6},
                      SweepParam{3, 10, 2.0, 7}));

TEST(KSwapTest, KFourKeepsBasicInvariants) {
  Rng rng(77);
  const EdgeListGraph base = ErdosRenyiGnm(16, 28, &rng);
  DynamicGraph g = base.ToDynamic();
  KSwapMaintainer algo(&g, 4);
  algo.InitializeEmpty();
  UpdateStreamOptions stream;
  stream.seed = 909;
  UpdateStreamGenerator gen(stream, base);
  for (int step = 0; step < 80; ++step) {
    algo.Apply(gen.Next(g));
    algo.CheckConsistency();
    ASSERT_TRUE(IsMaximalIndependentSet(g, algo.Solution()));
  }
}

// Fig 9 trend: on average over seeds, solution size is non-decreasing in k.
TEST(KSwapTest, QualityImprovesWithK) {
  int64_t totals[4] = {0, 0, 0, 0};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 101);
    const EdgeListGraph base = ErdosRenyiGnm(60, 140, &rng);
    UpdateStreamOptions stream;
    stream.seed = seed;
    const std::vector<GraphUpdate> updates =
        MakeUpdateSequence(base, 100, stream);
    for (int k = 1; k <= 4; ++k) {
      DynamicGraph g = base.ToDynamic();
      KSwapMaintainer algo(&g, k);
      algo.InitializeEmpty();
      for (const GraphUpdate& update : updates) algo.Apply(update);
      totals[k - 1] += algo.SolutionSize();
    }
  }
  EXPECT_GE(totals[1], totals[0]);
  EXPECT_GE(totals[2], totals[1] - 1);  // Allow tiny search-order noise.
  EXPECT_GE(totals[3], totals[1] - 1);
}

// Cross-implementation agreement: KSwap(2) and DyTwoSwap both maintain
// 2-maximal sets over the same stream (sizes may differ slightly because
// tie-breaking differs, but both pass the definitional check).
TEST(KSwapTest, AgreesWithSpecializedImplementations) {
  Rng rng(55);
  const EdgeListGraph base = ErdosRenyiGnm(20, 40, &rng);
  UpdateStreamOptions stream;
  stream.seed = 5555;
  const std::vector<GraphUpdate> updates =
      MakeUpdateSequence(base, 120, stream);

  DynamicGraph ga = base.ToDynamic();
  DynamicGraph gb = base.ToDynamic();
  KSwapMaintainer generic(&ga, 2);
  DySwap specialized(&gb, 2);
  generic.InitializeEmpty();
  specialized.InitializeEmpty();
  for (const GraphUpdate& update : updates) {
    generic.Apply(update);
    specialized.Apply(update);
    ASSERT_FALSE(HasSwapUpTo(ga, generic.Solution(), 2));
    ASSERT_FALSE(HasSwapUpTo(gb, specialized.Solution(), 2));
  }
}

}  // namespace
}  // namespace dynmis
