// Update-trace serialization round trips and the deferred-restoration batch
// mode of DyOneSwap/DyTwoSwap (same invariants at batch end, same-or-better
// throughput path).

#include <cstdio>
#include <filesystem>

#include "gtest/gtest.h"
#include "src/core/dy_swap.h"
#include "src/graph/generators.h"
#include "src/graph/update_trace_io.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::HasSwapUpTo;
using testing_util::IsMaximalIndependentSet;

TEST(UpdateTraceIoTest, FormatAndParseRoundTrip) {
  Rng rng(3);
  const EdgeListGraph base = ErdosRenyiGnm(25, 50, &rng);
  UpdateStreamOptions stream;
  stream.seed = 11;
  stream.edge_op_fraction = 0.7;
  const std::vector<GraphUpdate> updates =
      MakeUpdateSequence(base, 200, stream);

  std::string text = "# round trip\n";
  for (const GraphUpdate& u : updates) text += FormatUpdate(u) + "\n";
  const auto parsed = ParseUpdateTrace(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ((*parsed)[i].kind, updates[i].kind) << i;
    EXPECT_EQ((*parsed)[i].u, updates[i].u) << i;
    EXPECT_EQ((*parsed)[i].v, updates[i].v) << i;
    EXPECT_EQ((*parsed)[i].neighbors, updates[i].neighbors) << i;
  }
  // Replay both and compare final graphs.
  DynamicGraph a = base.ToDynamic();
  DynamicGraph b = base.ToDynamic();
  for (const GraphUpdate& u : updates) ApplyUpdate(&a, u);
  for (const GraphUpdate& u : *parsed) ApplyUpdate(&b, u);
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
}

TEST(UpdateTraceIoTest, FileRoundTrip) {
  std::vector<GraphUpdate> updates(3);
  updates[0] = {UpdateKind::kInsertEdge, 1, 2, {}};
  updates[1] = {UpdateKind::kInsertVertex, kInvalidVertex, kInvalidVertex,
                {0, 1, 2}};
  updates[2] = {UpdateKind::kDeleteVertex, 0, kInvalidVertex, {}};
  const std::string path =
      (std::filesystem::temp_directory_path() / "dynmis_trace_test.txt")
          .string();
  ASSERT_TRUE(SaveUpdateTrace(updates, path));
  const auto loaded = LoadUpdateTrace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[1].neighbors, (std::vector<VertexId>{0, 1, 2}));
}

TEST(UpdateTraceIoTest, RejectsMalformed) {
  EXPECT_FALSE(ParseUpdateTrace("+e 1\n").has_value());        // Missing arg.
  EXPECT_FALSE(ParseUpdateTrace("+e 1 1\n").has_value());      // Self loop.
  EXPECT_FALSE(ParseUpdateTrace("-v\n").has_value());          // Missing arg.
  EXPECT_FALSE(ParseUpdateTrace("xx 1 2\n").has_value());      // Bad opcode.
  EXPECT_FALSE(ParseUpdateTrace("-e 1 2 3\n").has_value());    // Extra arg.
  EXPECT_FALSE(ParseUpdateTrace("+v 1 -2\n").has_value());     // Negative id.
  EXPECT_TRUE(ParseUpdateTrace("# only a comment\n").has_value());
  EXPECT_TRUE(ParseUpdateTrace("+v\n").has_value());  // Isolated vertex OK.
}

TEST(BatchModeTest, BatchEndsKMaximal) {
  for (const bool two_swap : {false, true}) {
    Rng rng(21);
    const EdgeListGraph base = ErdosRenyiGnm(40, 90, &rng);
    UpdateStreamOptions stream;
    stream.seed = 99;
    const std::vector<GraphUpdate> updates =
        MakeUpdateSequence(base, 400, stream);

    DynamicGraph g = base.ToDynamic();
    std::unique_ptr<DynamicMisMaintainer> algo;
    if (two_swap) {
      algo = std::make_unique<DySwap>(&g, 2);
    } else {
      algo = std::make_unique<DySwap>(&g, 1);
    }
    algo->Initialize({});
    // Apply in blocks of 50.
    for (size_t start = 0; start < updates.size(); start += 50) {
      const auto end = std::min(start + 50, updates.size());
      algo->ApplyBatch(
          {updates.begin() + static_cast<long>(start),
           updates.begin() + static_cast<long>(end)});
      ASSERT_TRUE(IsMaximalIndependentSet(g, algo->Solution()));
      ASSERT_FALSE(HasSwapUpTo(g, algo->Solution(), two_swap ? 2 : 1))
          << "after batch ending at " << end;
    }
  }
}

TEST(BatchModeTest, BatchMatchesPerUpdateQualityClosely) {
  Rng rng(8);
  const EdgeListGraph base = ErdosRenyiGnm(80, 200, &rng);
  UpdateStreamOptions stream;
  stream.seed = 5;
  const std::vector<GraphUpdate> updates =
      MakeUpdateSequence(base, 500, stream);

  DynamicGraph g1 = base.ToDynamic();
  DynamicGraph g2 = base.ToDynamic();
  DySwap per_update(&g1, 2);
  DySwap batched(&g2, 2);
  per_update.InitializeEmpty();
  batched.InitializeEmpty();
  for (const GraphUpdate& u : updates) per_update.Apply(u);
  batched.ApplyBatch(updates);
  // Both are 2-maximal on the same final graph; sizes should be within a
  // small factor (identical invariant class).
  EXPECT_NEAR(static_cast<double>(per_update.SolutionSize()),
              static_cast<double>(batched.SolutionSize()),
              0.05 * static_cast<double>(per_update.SolutionSize()) + 2);
}

TEST(BatchModeTest, DefaultImplementationStillWorks) {
  // Maintainers without an override fall back to per-update application.
  Rng rng(13);
  const EdgeListGraph base = ErdosRenyiGnm(30, 60, &rng);
  DynamicGraph g = base.ToDynamic();
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  std::vector<GraphUpdate> empty_batch;
  algo.ApplyBatch(empty_batch);  // No-op must be safe.
  EXPECT_TRUE(IsMaximalIndependentSet(g, algo.Solution()));
}

}  // namespace
}  // namespace dynmis
