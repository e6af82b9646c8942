// MisEngine: ownership and lifecycle, trace replay with Stats()
// cross-checked against an independently maintained graph replica and the
// maintainer's own MisState consistency validator, UpdateResult id
// surfacing (the old ApplyBatch dropped kInsertVertex ids), and the
// updates_applied count across batches and single ops.

#include "dynmis/engine.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/dy_swap.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::IsMaximalIndependentSet;

EdgeListGraph SmallGraph(uint64_t seed = 7) {
  Rng rng(seed);
  return ErdosRenyiGnm(80, 200, &rng);
}

TEST(EngineTest, CreateFailsCleanlyOnUnknownAlgorithm) {
  EXPECT_EQ(MisEngine::Create(SmallGraph(), {"NoSuchAlgorithm"}), nullptr);
}

TEST(EngineTest, ReplayTraceAndCrossCheckStats) {
  const EdgeListGraph base = SmallGraph();
  auto engine = MisEngine::Create(base, {"DyTwoSwap"});
  ASSERT_NE(engine, nullptr);
  engine->Initialize();

  UpdateStreamOptions stream;
  stream.seed = 13;
  stream.edge_op_fraction = 0.7;  // Plenty of vertex churn.
  const std::vector<GraphUpdate> trace =
      MakeUpdateSequence(base, 400, stream);

  // Replica graph maintained outside the engine (same deterministic ids).
  DynamicGraph replica = base.ToDynamic();
  for (const GraphUpdate& update : trace) {
    const UpdateResult result = engine->Apply(update);
    EXPECT_EQ(result.applied, 1);
    ApplyUpdate(&replica, update);
  }

  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.algorithm, "DyTwoSwap");
  EXPECT_EQ(stats.num_vertices, replica.NumVertices());
  EXPECT_EQ(stats.num_edges, replica.NumEdges());
  EXPECT_EQ(stats.updates_applied, 400);
  EXPECT_GT(stats.structure_memory_bytes, 0u);
  EXPECT_GT(stats.graph_memory_bytes, 0u);
  EXPECT_EQ(stats.solution_size, engine->SolutionSize());
  EXPECT_EQ(static_cast<int64_t>(engine->Solution().size()),
            stats.solution_size);

  // The maintained set is a maximal independent set of the engine's graph,
  // and the maintainer's full internal invariant check passes.
  EXPECT_TRUE(IsMaximalIndependentSet(engine->graph(), engine->Solution()));
  auto* two_swap = dynamic_cast<DySwap*>(&engine->maintainer());
  ASSERT_NE(two_swap, nullptr);
  two_swap->CheckConsistency();
}

TEST(EngineTest, ApplyBatchSurfacesNewVertexIds) {
  // DyTwoSwap overrides ApplyBatch (deferred restoration); DyARW uses the
  // interface default. Both must surface kInsertVertex ids in op order.
  for (const char* algorithm : {"DyTwoSwap", "DyARW"}) {
    auto engine = MisEngine::Create(SmallGraph(3), {algorithm});
    ASSERT_NE(engine, nullptr);
    engine->Initialize();

    std::vector<GraphUpdate> batch;
    GraphUpdate insert_vertex;
    insert_vertex.kind = UpdateKind::kInsertVertex;
    insert_vertex.neighbors = {0, 1};
    batch.push_back(insert_vertex);
    GraphUpdate insert_edge;
    insert_edge.kind = UpdateKind::kInsertEdge;
    insert_edge.u = 2;
    insert_edge.v = kInvalidVertex;
    for (VertexId cand = 3; cand < 80; ++cand) {
      if (!engine->graph().HasEdge(2, cand)) {
        insert_edge.v = cand;
        break;
      }
    }
    ASSERT_NE(insert_edge.v, kInvalidVertex);
    batch.push_back(insert_edge);
    insert_vertex.neighbors = {2, 3};
    batch.push_back(insert_vertex);

    const UpdateResult result = engine->ApplyBatch(batch);
    EXPECT_EQ(result.applied, 3) << algorithm;
    ASSERT_EQ(result.new_vertices.size(), 2u) << algorithm;
    for (const VertexId v : result.new_vertices) {
      EXPECT_TRUE(engine->graph().IsVertexAlive(v)) << algorithm;
    }
    EXPECT_NE(result.new_vertices[0], result.new_vertices[1]) << algorithm;
    EXPECT_TRUE(IsMaximalIndependentSet(engine->graph(), engine->Solution()))
        << algorithm;
  }
}

TEST(EngineTest, TypedOpsAndStatsAccumulate) {
  EdgeListGraph base;
  base.n = 4;
  base.edges = {{0, 1}, {1, 2}};
  auto engine = MisEngine::Create(base, {"DyOneSwap"});
  ASSERT_NE(engine, nullptr);
  engine->Initialize();

  const VertexId v = engine->InsertVertex({0, 3});
  ASSERT_NE(v, kInvalidVertex);
  EXPECT_TRUE(engine->graph().IsVertexAlive(v));
  engine->InsertEdge(2, 3);
  EXPECT_EQ(engine->Stats().num_edges, 5);
  engine->DeleteEdge(2, 3);
  EXPECT_EQ(engine->Stats().num_edges, 4);
  engine->DeleteVertex(v);
  EXPECT_FALSE(engine->graph().IsVertexAlive(v));
  EXPECT_EQ(engine->Stats().updates_applied, 4);
  EXPECT_TRUE(IsMaximalIndependentSet(engine->graph(), engine->Solution()));
}

TEST(EngineTest, BatchesAndSingleOpsCountTowardUpdatesApplied) {
  const EdgeListGraph base = SmallGraph(11);
  auto engine = MisEngine::Create(base, {"DyTwoSwap"});
  auto twin = MisEngine::Create(base, {"DyTwoSwap"});
  ASSERT_NE(engine, nullptr);
  ASSERT_NE(twin, nullptr);
  engine->Initialize();
  twin->Initialize();
  UpdateStreamOptions stream;
  stream.seed = 5;
  const std::vector<GraphUpdate> trace =
      MakeUpdateSequence(base, 50, stream);

  // A batch goes through the maintainer's deferred-settle path: the engine
  // ends where the maintainer's own ApplyBatch does.
  const UpdateResult result = engine->ApplyBatch(trace);
  EXPECT_EQ(result.applied, 50);
  EXPECT_EQ(engine->Stats().updates_applied, 50);
  twin->maintainer().ApplyBatch(trace);
  std::vector<VertexId> batched = engine->Solution();
  std::vector<VertexId> reference = twin->Solution();
  std::sort(batched.begin(), batched.end());
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(batched, reference);

  // One more op counts once.
  GraphUpdate probe;
  probe.kind = UpdateKind::kInsertVertex;
  EXPECT_EQ(engine->Apply(probe).applied, 1);
  EXPECT_EQ(engine->Stats().updates_applied, 51);

  // An empty batch applies nothing.
  EXPECT_EQ(engine->ApplyBatch({}).applied, 0);
  EXPECT_EQ(engine->Stats().updates_applied, 51);
}

}  // namespace
}  // namespace dynmis
