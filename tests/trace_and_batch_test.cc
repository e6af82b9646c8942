// Update-trace serialization round trips and the deferred-restoration batch
// mode of DyOneSwap/DyTwoSwap (same invariants at batch end, same-or-better
// throughput path).

#include <algorithm>
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

// Applies `updates` to a fresh DySwap(k) over `base` in blocks of `block`
// ops and checks, after every batch, the maintainer's invariants,
// maximality and that no j-swap (j <= k) exists.
void ExpectBatchesEndKMaximal(const EdgeListGraph& base,
                              const std::vector<GraphUpdate>& updates, int k,
                              size_t block) {
  DynamicGraph g = base.ToDynamic();
  DySwap algo(&g, k);
  algo.InitializeEmpty();
  for (size_t start = 0; start < updates.size(); start += block) {
    const size_t end = std::min(start + block, updates.size());
    algo.ApplyBatch({updates.begin() + static_cast<long>(start),
                     updates.begin() + static_cast<long>(end)});
    algo.CheckConsistency();
    const std::vector<VertexId> solution = algo.Solution();
    ASSERT_TRUE(IsMaximalIndependentSet(g, solution))
        << "after batch ending at " << end;
    ASSERT_FALSE(HasSwapUpTo(g, solution, k))
        << "after batch ending at " << end;
  }
}

// Both stream numberings (base's list, and base.ToDynamic().EdgeList()), in
// blocks of 8 and 50.
void ExpectBatchesEndKMaximal(const EdgeListGraph& base,
                              const UpdateStreamOptions& stream, int k) {
  for (const bool list_numbered : {true, false}) {
    const std::vector<GraphUpdate> updates =
        list_numbered ? MakeUpdateSequence(base, 400, stream)
                      : MakeUpdateSequence(base.ToDynamic(), 400, stream);
    for (const size_t block : {size_t{8}, size_t{50}}) {
      SCOPED_TRACE(::testing::Message()
                   << "k=" << k << " list_numbered=" << list_numbered
                   << " block=" << block);
      ExpectBatchesEndKMaximal(base, updates, k, block);
    }
  }
}

// The SweepParam cases of one_swap_test (k = 1) and two_swap_test (k = 2),
// on the same graphs.
struct BatchSweepCase {
  int k;
  int n;
  double density;  // Edges as a multiple of n.
  double edge_op_fraction;
  uint64_t seed;
};

constexpr BatchSweepCase kBatchSweep[] = {
    {1, 12, 1.0, 0.9, 1},  {1, 20, 1.5, 0.9, 2},  {1, 20, 0.5, 0.5, 3},
    {1, 30, 2.0, 0.8, 4},  {1, 30, 3.0, 0.95, 5}, {1, 8, 2.0, 0.7, 6},
    {1, 40, 1.2, 0.6, 7},  {1, 25, 2.5, 1.0, 8},  {2, 10, 1.0, 0.9, 1},
    {2, 16, 1.5, 0.9, 2},  {2, 16, 0.6, 0.5, 3},  {2, 22, 2.0, 0.8, 4},
    {2, 22, 2.8, 0.95, 5}, {2, 8, 1.5, 0.7, 6},   {2, 26, 1.2, 0.6, 7},
    {2, 18, 2.2, 1.0, 8},
};

// Deferred restoration ends every batch k-maximal. Each sweep case runs its
// own edge-op fraction and a vertex-op-heavy 0.4, so vertex deletes reset
// queued C1 owners and C2 bucket members inside a batch.
TEST(BatchModeTest, BatchEndsKMaximal) {
  for (const int k : {1, 2}) {
    Rng rng(21);
    const EdgeListGraph base = ErdosRenyiGnm(40, 90, &rng);
    UpdateStreamOptions stream;
    stream.seed = 99;
    ExpectBatchesEndKMaximal(base, stream, k);
  }
  for (const BatchSweepCase& param : kBatchSweep) {
    Rng rng(SplitMix64(param.k == 1 ? param.seed : param.seed ^ 0xabcdef));
    const EdgeListGraph base = ErdosRenyiGnm(
        param.n, static_cast<int64_t>(param.n * param.density), &rng);
    for (const double edge_op_fraction : {param.edge_op_fraction, 0.4}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << param.n << " seed=" << param.seed
                   << " edge_op_fraction=" << edge_op_fraction);
      UpdateStreamOptions stream;
      stream.seed = param.seed * 17 + 3;
      stream.edge_op_fraction = edge_op_fraction;
      ExpectBatchesEndKMaximal(base, stream, param.k);
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
