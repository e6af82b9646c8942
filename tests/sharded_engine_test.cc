// ShardedMisEngine: independence + maximality of the resolved solution
// under churn, hash vs range partition plans, deterministic replay (both
// across runs and across flush/block boundaries), S=1 degeneration to the
// single engine, vertex inserts landing in the plan's shard, and snapshot
// round-trips including empty shards.

#include "dynmis/sharded_engine.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "dynmis/engine.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/ingest/temporal.h"
#include "src/serve/workload.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::IsIndependentSet;
using testing_util::IsMaximalIndependentSet;

EdgeListGraph SmallGraph(uint64_t seed = 7, int n = 200, int m = 600) {
  Rng rng(seed);
  return ErdosRenyiGnm(n, m, &rng);
}

std::vector<GraphUpdate> ChurnTrace(const EdgeListGraph& base, int count,
                                    uint64_t seed) {
  UpdateStreamOptions stream;
  stream.seed = seed;
  stream.edge_op_fraction = 0.7;  // Plenty of vertex churn.
  return MakeUpdateSequence(base.ToDynamic(), count, stream);
}

ShardedEngineOptions Opts(int shards, PartitionStrategy strategy =
                                          PartitionStrategy::kHash) {
  ShardedEngineOptions options;
  options.num_shards = shards;
  options.partition = strategy;
  return options;
}

TEST(ShardedEngineTest, CreateRejectsBadConfiguration) {
  const EdgeListGraph base = SmallGraph();
  EXPECT_EQ(ShardedMisEngine::Create(base, {"NoSuchAlgorithm"}, Opts(2)),
            nullptr);
  EXPECT_EQ(ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(0)), nullptr);
}

TEST(ShardedEngineTest, PartitionPlanCoversAllShards) {
  const PartitionPlan one = PartitionPlan::Hash(1);
  for (VertexId v = 0; v < 1000; ++v) EXPECT_EQ(one.ShardOf(v), 0);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    const PartitionPlan plan = PartitionPlan::Make(strategy, 5, 1000);
    std::vector<int> hits(5, 0);
    for (VertexId v = 0; v < 5000; ++v) {
      const int s = plan.ShardOf(v);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 5);
      ++hits[s];
    }
    // Both strategies spread a dense id range over every shard — including
    // ids far past the range plan's expected capacity.
    for (int s = 0; s < 5; ++s) EXPECT_GT(hits[s], 0) << s;
  }
}

// The headline invariant: at every barrier the resolved solution is an
// independent — in fact maximal — set of the *global* graph, which an
// independently maintained replica verifies.
TEST(ShardedEngineTest, SolutionStaysMaximalIndependentUnderChurn) {
  const EdgeListGraph base = SmallGraph();
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 600, 13);

  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  DynamicGraph replica = base.ToDynamic();
  EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()));

  int applied = 0;
  for (const GraphUpdate& update : trace) {
    engine->Apply(update);
    ApplyUpdate(&replica, update);
    if (++applied % 150 == 0) {
      EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
          << "after " << applied << " updates";
    }
  }
  const std::vector<VertexId> solution = engine->Solution();
  EXPECT_TRUE(IsMaximalIndependentSet(replica, solution));
  EXPECT_EQ(static_cast<int64_t>(solution.size()), engine->SolutionSize());
  for (VertexId v : solution) EXPECT_TRUE(engine->InSolution(v));

  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.num_vertices, replica.NumVertices());
  EXPECT_EQ(stats.num_edges, replica.NumEdges());
  EXPECT_EQ(stats.updates_applied, 600);
  EXPECT_GT(stats.structure_memory_bytes, 0u);
  EXPECT_GT(stats.graph_memory_bytes, 0u);

  const ShardedStats sharded = engine->ShardStats();
  EXPECT_EQ(sharded.num_shards, 4);
  EXPECT_EQ(sharded.partition, "hash");
  EXPECT_EQ(sharded.intra_edges + sharded.cut_edges, replica.NumEdges());
  EXPECT_GT(sharded.cut_edges, 0);
  EXPECT_GT(sharded.cut_edge_fraction, 0.0);
  EXPECT_LT(sharded.cut_edge_fraction, 1.0);
  EXPECT_EQ(sharded.shard_solution_sizes.size(), 4u);
}

TEST(ShardedEngineTest, HashAndRangePlansBothMaintainInvariants) {
  const EdgeListGraph base = SmallGraph(17);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 19);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    auto engine =
        ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(3, strategy));
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    DynamicGraph replica = base.ToDynamic();
    for (const GraphUpdate& update : trace) {
      engine->Apply(update);
      ApplyUpdate(&replica, update);
    }
    EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
        << PartitionStrategyName(strategy);
  }
}

// The final solution is a pure function of the update sequence: replaying
// with a different block size, a different batch chopping, and extra
// mid-stream barriers must reproduce it exactly.
TEST(ShardedEngineTest, DeterministicReplayAcrossFlushBoundaries) {
  const EdgeListGraph base = SmallGraph(23);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 500, 29);

  auto run = [&](int block_ops, int chunk, int query_every) {
    ShardedEngineOptions options = Opts(3);
    options.block_ops = block_ops;
    auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
    EXPECT_NE(engine, nullptr);
    engine->Initialize();
    size_t i = 0;
    int since_query = 0;
    while (i < trace.size()) {
      const size_t end = std::min(trace.size(), i + chunk);
      engine->ApplyBatch(
          {trace.begin() + static_cast<long>(i),
           trace.begin() + static_cast<long>(end)});
      i = end;
      if (query_every > 0 && ++since_query >= query_every) {
        since_query = 0;
        engine->SolutionSize();  // Forces a barrier + resolution mid-run.
      }
    }
    return engine->Solution();
  };

  const std::vector<VertexId> a = run(1024, 97, 0);
  const std::vector<VertexId> b = run(7, 1, 3);
  const std::vector<VertexId> c = run(256, 500, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// S=1 is the degenerate case: every edge is intra-shard and the single
// worker replays exactly the single engine's op sequence, so the solutions
// agree verbatim.
TEST(ShardedEngineTest, SingleShardMatchesSingleEngine) {
  const EdgeListGraph base = SmallGraph(31);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 37);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    auto sharded =
        ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(1, strategy));
    ASSERT_NE(sharded, nullptr);
    sharded->Initialize();
    auto single = MisEngine::Create(base, {"DyTwoSwap"});
    ASSERT_NE(single, nullptr);
    single->Initialize();

    for (const GraphUpdate& update : trace) {
      const UpdateResult a = sharded->Apply(update);
      const UpdateResult b = single->Apply(update);
      // Global id allocation mirrors the single engine exactly.
      EXPECT_EQ(a.new_vertices, b.new_vertices);
    }
    std::vector<VertexId> expected = single->Solution();
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sharded->Solution(), expected)
        << PartitionStrategyName(strategy);
    EXPECT_EQ(sharded->ShardStats().cut_edges, 0);
    EXPECT_EQ(sharded->Stats().num_edges, single->Stats().num_edges);
  }
}

// Vertex inserts that grow the id space land in the shard the plan names,
// with their neighbor edges split into intra-shard and cut correctly.
TEST(ShardedEngineTest, GrowingVertexInsertsLandInPlanShard) {
  EdgeListGraph base;
  base.n = 8;
  base.edges = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  auto engine = ShardedMisEngine::Create(
      base, {"DyOneSwap"}, Opts(4, PartitionStrategy::kRange));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();

  std::vector<VertexId> inserted;
  for (int i = 0; i < 12; ++i) {
    const VertexId v = engine->InsertVertex({static_cast<VertexId>(i % 8)});
    ASSERT_NE(v, kInvalidVertex);
    EXPECT_GE(v, 8) << "fresh ids only: nothing was deleted";
    inserted.push_back(v);
  }
  engine->Flush();
  for (const VertexId v : inserted) {
    const int home = engine->plan().ShardOf(v);
    EXPECT_TRUE(engine->shard_graph(home).IsVertexAlive(v)) << v;
    for (int s = 0; s < engine->num_shards(); ++s) {
      if (s == home) continue;
      EXPECT_FALSE(engine->shard_graph(s).IsVertexAlive(v))
          << v << " duplicated into shard " << s;
    }
    // The single neighbor edge went to exactly one structure.
    EXPECT_EQ(engine->shard_graph(home).Degree(v) +
                  engine->resolver().CutDegree(v),
              1)
        << v;
  }
  DynamicGraph replica = base.ToDynamic();
  for (int i = 0; i < 12; ++i) {
    GraphUpdate update;
    update.kind = UpdateKind::kInsertVertex;
    update.neighbors = {static_cast<VertexId>(i % 8)};
    ApplyUpdate(&replica, update);
  }
  EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()));
}

TEST(ShardedEngineTest, SnapshotRoundTripAndDeterministicContinuation) {
  const EdgeListGraph base = SmallGraph(41);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 600, 43);

  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(3));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  for (size_t i = 0; i < 300; ++i) engine->Apply(trace[i]);

  std::ostringstream sink;
  ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
  const std::string bytes = sink.str();

  std::istringstream source(bytes);
  SnapshotStatus status;
  auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
  ASSERT_NE(restored, nullptr) << status.message;
  EXPECT_EQ(restored->num_shards(), 3);
  EXPECT_EQ(restored->Solution(), engine->Solution());
  EXPECT_EQ(restored->Stats().updates_applied,
            engine->Stats().updates_applied);

  // The restored engine continues deterministically: the suffix replays to
  // the identical final solution, including recycled vertex ids.
  for (size_t i = 300; i < trace.size(); ++i) {
    const UpdateResult a = engine->Apply(trace[i]);
    const UpdateResult b = restored->Apply(trace[i]);
    EXPECT_EQ(a.new_vertices, b.new_vertices);
  }
  EXPECT_EQ(restored->Solution(), engine->Solution());

  // Corruption anywhere in the container is detected, never mis-parsed.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^
                                                  0x20);
  std::istringstream bad(corrupt);
  EXPECT_EQ(ShardedMisEngine::LoadSnapshot(bad, &status), nullptr);
  EXPECT_FALSE(status.ok);

  std::istringstream truncated(bytes.substr(0, bytes.size() / 3));
  EXPECT_EQ(ShardedMisEngine::LoadSnapshot(truncated, &status), nullptr);
  EXPECT_FALSE(status.ok);
}

// Regression: the polish pass bounds its quadratic pair search to a small
// low-degree pool, but every exclusively-covered neighbor of the swapped-out
// member must still rejoin — truncating the re-add loop to the pool left
// the overflow vertices uncovered (a non-maximal result). Construction: a
// shard-0 hub v with 17 cut neighbors u_i (more than the pool) whose
// intra-shard covers w_i all get evicted at the barrier, so after the
// resolution's eviction/re-extension steps every u_i is covered only by v
// and the polish must swap v for all 17.
TEST(ShardedEngineTest, PolishReaddsBeyondPairPool) {
  constexpr int kFan = 17;  // One more than the polish pair pool.
  EdgeListGraph base;
  base.n = 102;  // Range plan, 3 shards: blocks 0..33 / 34..67 / 68..101.
  const VertexId v = 0;
  for (int i = 0; i < kFan; ++i) {
    const VertexId w = 34 + i;  // Shard 1, low ids: the local greedy's pick.
    const VertexId u = 51 + i;  // Shard 1, covered only by w intra-shard.
    const VertexId x = 68 + i;  // Shard 2: evicts w across the cut.
    base.edges.emplace_back(v, u);  // Cut 0-1.
    base.edges.emplace_back(w, u);  // Intra shard 1.
    base.edges.emplace_back(w, x);  // Cut 1-2.
  }
  auto engine = ShardedMisEngine::Create(
      base, {"DyTwoSwap"}, Opts(3, PartitionStrategy::kRange));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  const std::vector<VertexId> solution = engine->Solution();
  // The construction must actually have driven the polish (if the local
  // greedy picked the u side instead of w, this scenario degenerates).
  EXPECT_GE(engine->ShardStats().swaps, 1);
  EXPECT_TRUE(IsMaximalIndependentSet(base.ToDynamic(), solution));
  for (int i = 0; i < kFan; ++i) {
    EXPECT_TRUE(engine->InSolution(51 + i)) << "u_" << i << " left uncovered";
  }
}

TEST(ShardedEngineTest, EmptyShardsSurviveSnapshotRoundTrip) {
  EdgeListGraph base;
  base.n = 3;
  base.edges = {{0, 1}};
  // Range plan with block size 1: vertices 0..2 own shards 0..2, shards
  // 3..7 start — and stay — empty.
  auto engine = ShardedMisEngine::Create(
      base, {"DyTwoSwap"}, Opts(8, PartitionStrategy::kRange));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  engine->InsertEdge(1, 2);
  engine->Flush();

  int empty_shards = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    if (engine->shard_graph(s).NumVertices() == 0) ++empty_shards;
  }
  EXPECT_GE(empty_shards, 5);

  std::ostringstream sink;
  ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
  std::istringstream source(sink.str());
  SnapshotStatus status;
  auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
  ASSERT_NE(restored, nullptr) << status.message;
  EXPECT_EQ(restored->Solution(), engine->Solution());

  // Empty shards keep working after the round trip.
  const VertexId v = restored->InsertVertex({0});
  EXPECT_NE(v, kInvalidVertex);
  DynamicGraph replica = base.ToDynamic();
  replica.AddEdge(1, 2);
  GraphUpdate update;
  update.kind = UpdateKind::kInsertVertex;
  update.neighbors = {0};
  ApplyUpdate(&replica, update);
  EXPECT_TRUE(IsMaximalIndependentSet(replica, restored->Solution()));
}

// A graph with planted community structure on consecutive id blocks:
// mostly intra-cluster edges plus a thin sprinkle of inter-cluster ones.
// The streaming locality plan should keep clusters together; hash scatters
// them by construction.
EdgeListGraph ClusteredGraph(int clusters, int cluster_size,
                             int intra_per_vertex, int inter_edges,
                             uint64_t seed) {
  Rng rng(seed);
  EdgeListGraph g;
  g.n = clusters * cluster_size;
  std::set<std::pair<VertexId, VertexId>> seen;
  auto add = [&](VertexId u, VertexId v) {
    if (u == v) return;
    if (u > v) std::swap(u, v);
    if (seen.insert({u, v}).second) g.edges.emplace_back(u, v);
  };
  for (int c = 0; c < clusters; ++c) {
    const VertexId lo = static_cast<VertexId>(c) * cluster_size;
    for (int i = 0; i < cluster_size * intra_per_vertex; ++i) {
      add(lo + static_cast<VertexId>(
                   rng.NextBounded(static_cast<uint64_t>(cluster_size))),
          lo + static_cast<VertexId>(
                   rng.NextBounded(static_cast<uint64_t>(cluster_size))));
    }
  }
  for (int i = 0; i < inter_edges; ++i) {
    add(static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(g.n))),
        static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(g.n))));
  }
  return g;
}

// The asynchronous resolver's inbox drains at every barrier: after Flush()
// the backlog is zero, the worker has consumed the shards' transition
// streams, and the conflicts those streams produced were repaired before
// Solution() returned (the solution is maximal-independent globally).
TEST(ShardedEngineTest, AsyncResolverDrainsBacklogBeforeBarrier) {
  const EdgeListGraph base = SmallGraph(47);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 600, 53);

  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  EXPECT_TRUE(engine->resolver().worker_running());

  DynamicGraph replica = base.ToDynamic();
  // Route the whole stream without a single intermediate barrier, so the
  // resolver worker really is consuming transitions concurrently with the
  // shards (conflicts are injected mid-stream, not at a quiescent point).
  for (const GraphUpdate& update : trace) {
    engine->Apply(update);
    ApplyUpdate(&replica, update);
  }
  engine->Flush();
  EXPECT_EQ(engine->resolver().BacklogOps(), 0);
  EXPECT_GT(engine->resolver().TransitionsConsumed(), 0);

  EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()));
  const ShardedStats stats = engine->ShardStats();
  EXPECT_TRUE(stats.async_resolver);
  EXPECT_EQ(stats.resolver_backlog, 0);
  EXPECT_GT(stats.transitions_consumed, 0);
  // The churn actually produced cut conflicts (otherwise this test proves
  // nothing about the repair path).
  EXPECT_GT(stats.conflicts, 0);
}

// Both resolver modes maintain the verified-maximal invariant on the same
// trace, and at S=1 (no cut edges, so the resolver never repairs anything)
// they reproduce the single engine's solution bit-for-bit.
TEST(ShardedEngineTest, SequentialResolverFallbackMatchesInvariants) {
  const EdgeListGraph base = SmallGraph(59);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 61);

  for (const bool async : {false, true}) {
    ShardedEngineOptions options = Opts(4);
    options.async_resolver = async;
    auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    DynamicGraph replica = base.ToDynamic();
    for (const GraphUpdate& update : trace) {
      engine->Apply(update);
      ApplyUpdate(&replica, update);
    }
    EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
        << (async ? "async" : "sequential");
    EXPECT_EQ(engine->ShardStats().async_resolver, async);
  }

  std::vector<VertexId> solutions[2];
  for (const bool async : {false, true}) {
    ShardedEngineOptions options = Opts(1);
    options.async_resolver = async;
    auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    for (const GraphUpdate& update : trace) engine->Apply(update);
    solutions[async ? 1 : 0] = engine->Solution();
  }
  EXPECT_EQ(solutions[0], solutions[1]);
}

// At S > 1 the barrier pass repairs real conflicts, and both resolvers must
// repair them identically: on a TTL stream over the serve layer's smoke
// graph, every 512-op barrier returns the same solution from the async and
// the sequential resolver, under hash and range plans alike.
TEST(ShardedEngineTest, AsyncAndSequentialResolversAgreeOnWindowStream) {
  const EdgeListGraph base = serve::BuildServeWorkloadGraph("smoke");
  ingest::TemporalStreamOptions window = serve::ServeWorkloadWindow("temporal");
  window.ttl_ticks = 512;
  const std::vector<GraphUpdate> stream =
      ingest::MakeTemporalSequence(base.ToDynamic(), 40000, window, nullptr);
  constexpr size_t kBarrier = 512;
  for (const int shards : {2, 4}) {
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
      std::vector<std::vector<VertexId>> barriers[2];
      for (const bool async : {false, true}) {
        ShardedEngineOptions options = Opts(shards, strategy);
        options.async_resolver = async;
        auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
        ASSERT_NE(engine, nullptr);
        engine->Initialize();
        for (size_t begin = 0; begin < stream.size(); begin += kBarrier) {
          const size_t end = std::min(stream.size(), begin + kBarrier);
          engine->ApplyBatch(std::vector<GraphUpdate>(
              stream.begin() + static_cast<std::ptrdiff_t>(begin),
              stream.begin() + static_cast<std::ptrdiff_t>(end)));
          barriers[async ? 1 : 0].push_back(engine->Solution());
        }
      }
      ASSERT_EQ(barriers[0].size(), barriers[1].size());
      for (size_t i = 0; i < barriers[0].size(); ++i) {
        ASSERT_EQ(barriers[0][i], barriers[1][i])
            << "S=" << shards << " plan " << static_cast<int>(strategy)
            << " barrier " << i;
      }
    }
  }
}

// Replay determinism extends to the locality plan under the asynchronous
// resolver: block size, batch chopping, and mid-stream barriers must not
// change the final solution (the plan assigns ids in stream order, which
// is identical across runs).
TEST(ShardedEngineTest, LocalityPlanDeterministicReplayWithAsyncResolver) {
  const EdgeListGraph base = SmallGraph(67);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 500, 71);

  auto run = [&](int block_ops, int chunk, int query_every) {
    ShardedEngineOptions options = Opts(3, PartitionStrategy::kLocality);
    options.block_ops = block_ops;
    auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
    EXPECT_NE(engine, nullptr);
    engine->Initialize();
    size_t i = 0;
    int since_query = 0;
    while (i < trace.size()) {
      const size_t end = std::min(trace.size(), i + chunk);
      engine->ApplyBatch(
          {trace.begin() + static_cast<long>(i),
           trace.begin() + static_cast<long>(end)});
      i = end;
      if (query_every > 0 && ++since_query >= query_every) {
        since_query = 0;
        engine->SolutionSize();
      }
    }
    return engine->Solution();
  };

  const std::vector<VertexId> a = run(1024, 97, 0);
  const std::vector<VertexId> b = run(7, 1, 3);
  const std::vector<VertexId> c = run(256, 500, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// On a graph with planted communities, the streaming-greedy locality plan
// cuts strictly fewer edges than hash scattering, while the maintained
// solution stays maximal-independent under churn.
TEST(ShardedEngineTest, LocalityPlanLowersCutFractionOnClusteredGraph) {
  const EdgeListGraph base = ClusteredGraph(4, 60, 4, 80, 73);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 300, 79);

  double cut[2] = {0, 0};
  int i = 0;
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kLocality}) {
    auto engine =
        ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4, strategy));
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    DynamicGraph replica = base.ToDynamic();
    for (const GraphUpdate& update : trace) {
      engine->Apply(update);
      ApplyUpdate(&replica, update);
    }
    EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
        << PartitionStrategyName(strategy);
    const ShardedStats stats = engine->ShardStats();
    EXPECT_EQ(stats.partition, PartitionStrategyName(strategy));
    cut[i++] = stats.cut_edge_fraction;
  }
  EXPECT_LT(cut[1], cut[0]);
  // The balance cap keeps the plan honest: no shard may swallow the graph.
  EXPECT_GT(cut[1], 0.0);
}

// The locality plan's owner table is state (unlike hash/range it cannot be
// recomputed from ids), so it must round-trip through the snapshot: the
// restored engine keeps every ownership decision, continues replaying
// deterministically, and resharding via CreateFromGraph reassigns fresh
// locality owners at the new shard count.
TEST(ShardedEngineTest, LocalityPlanRoundTripsThroughSnapshotAndReshard) {
  const EdgeListGraph base = ClusteredGraph(3, 50, 4, 60, 83);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 89);

  auto engine = ShardedMisEngine::Create(
      base, {"DyTwoSwap"}, Opts(3, PartitionStrategy::kLocality));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  for (size_t i = 0; i < 200; ++i) engine->Apply(trace[i]);

  std::ostringstream sink;
  ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
  std::istringstream source(sink.str());
  SnapshotStatus status;
  auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
  ASSERT_NE(restored, nullptr) << status.message;
  EXPECT_EQ(restored->options().partition, PartitionStrategy::kLocality);
  EXPECT_EQ(restored->Solution(), engine->Solution());
  // Every ownership decision survived the round trip verbatim.
  for (VertexId v : engine->Solution()) {
    EXPECT_EQ(restored->plan().ShardOf(v), engine->plan().ShardOf(v)) << v;
  }

  for (size_t i = 200; i < trace.size(); ++i) {
    const UpdateResult a = engine->Apply(trace[i]);
    const UpdateResult b = restored->Apply(trace[i]);
    EXPECT_EQ(a.new_vertices, b.new_vertices);
  }
  EXPECT_EQ(restored->Solution(), engine->Solution());

  // The resharding primitive: rebuild at a different shard count with a
  // fresh locality assignment over the live global graph.
  DynamicGraph global = restored->BuildGlobalGraph();
  auto resharded = ShardedMisEngine::CreateFromGraph(
      global, {"DyTwoSwap"}, Opts(5, PartitionStrategy::kLocality));
  ASSERT_NE(resharded, nullptr);
  resharded->Initialize();
  EXPECT_TRUE(IsMaximalIndependentSet(global, resharded->Solution()));
  EXPECT_EQ(resharded->ShardStats().partition, "locality");
}

}  // namespace
}  // namespace dynmis
