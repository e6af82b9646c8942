// ShardedMisEngine: independence + maximality of the resolved solution
// under churn, hash vs range partition plans, deterministic replay (both
// across runs and across batch/barrier boundaries), S=1 degeneration to the
// single engine (also past the pending-block cap), vertex inserts landing
// in the plan's shard, snapshot round-trips including empty shards and the
// resolution counters, and an engine that starts no thread.

#include "dynmis/sharded_engine.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dynmis/engine.h"
#include "dynmis/registry.h"
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

// The cumulative resolution counters of ShardStats().
std::vector<int64_t> ResolutionCounters(ShardedMisEngine* engine) {
  const ShardedStats stats = engine->ShardStats();
  return {stats.barriers, stats.conflicts, stats.evictions, stats.readded,
          stats.swaps};
}

// Threads of this process: one entry each in /proc/self/task.
int ThreadCount() {
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(ShardedEngineTest, CreateRejectsBadConfiguration) {
  const EdgeListGraph base = SmallGraph();
  EXPECT_EQ(ShardedMisEngine::Create(base, {"NoSuchAlgorithm"}, Opts(2)),
            nullptr);
  EXPECT_EQ(ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(0)), nullptr);
}

// The engine runs on its caller's thread: creating, initializing,
// updating, querying, saving and restoring a 4-shard engine starts none.
TEST(ShardedEngineTest, StartsNoThreads) {
  const int threads = ThreadCount();
  const EdgeListGraph base = SmallGraph(59);
  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4));
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(ThreadCount(), threads) << "Create";
  engine->Initialize();
  EXPECT_EQ(ThreadCount(), threads) << "Initialize";
  engine->ApplyBatch(ChurnTrace(base, 300, 61));
  EXPECT_EQ(ThreadCount(), threads) << "ApplyBatch";
  const std::vector<VertexId> solution = engine->Solution();
  EXPECT_FALSE(solution.empty());
  EXPECT_EQ(ThreadCount(), threads) << "Solution";
  std::ostringstream sink;
  ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
  EXPECT_EQ(ThreadCount(), threads) << "SaveSnapshot";
  std::istringstream source(sink.str());
  SnapshotStatus status;
  auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
  ASSERT_NE(restored, nullptr) << status.message;
  EXPECT_EQ(ThreadCount(), threads) << "LoadSnapshot";
  EXPECT_EQ(restored->Solution(), solution);
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
// with a different batch chopping and extra mid-stream barriers must
// reproduce it exactly.
TEST(ShardedEngineTest, DeterministicReplayAcrossFlushBoundaries) {
  const EdgeListGraph base = SmallGraph(23);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 500, 29);

  auto run = [&](int chunk, int query_every) {
    auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(3));
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

  const std::vector<VertexId> a = run(97, 0);
  const std::vector<VertexId> b = run(1, 3);
  const std::vector<VertexId> c = run(500, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// S=1 is the degenerate case: every edge is intra-shard and the one shard
// applies exactly the single engine's op sequence, op by op, so the
// solutions agree verbatim. Two inputs: a trace sent op by op, and one
// longer than the 1 << 16 ops a shard's pending block holds, sent to the
// sharded engine in one ApplyBatch before the first query, so routing
// applies the block when it fills.
TEST(ShardedEngineTest, SingleShardMatchesSingleEngine) {
  const EdgeListGraph base = SmallGraph(31);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 400, 37);
  // A larger graph, so that the long trace's vertex churn does not drain
  // it.
  const EdgeListGraph long_base = SmallGraph(31, 2000, 6000);
  constexpr size_t kCap = size_t{1} << 16;
  const std::vector<GraphUpdate> long_trace =
      ChurnTrace(long_base, static_cast<int>(kCap) + 4000, 41);
  // The edges after the first kCap ops of the long trace, sorted.
  auto sorted_edges = [](const DynamicGraph& g) {
    std::vector<std::pair<VertexId, VertexId>> edges = g.EdgeList();
    std::sort(edges.begin(), edges.end());
    return edges;
  };
  DynamicGraph at_cap = long_base.ToDynamic();
  for (size_t i = 0; i < kCap; ++i) ApplyUpdate(&at_cap, long_trace[i]);
  const std::vector<std::pair<VertexId, VertexId>> edges_at_cap =
      sorted_edges(at_cap);

  for (const PartitionStrategy strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kRange}) {
    for (const bool batched : {false, true}) {
      const EdgeListGraph& start = batched ? long_base : base;
      auto sharded =
          ShardedMisEngine::Create(start, {"DyTwoSwap"}, Opts(1, strategy));
      ASSERT_NE(sharded, nullptr);
      sharded->Initialize();
      auto single = MisEngine::Create(start, {"DyTwoSwap"});
      ASSERT_NE(single, nullptr);
      single->Initialize();

      if (batched) {
        const UpdateResult a = sharded->ApplyBatch(long_trace);
        // Op by op: MisEngine::ApplyBatch defers swap restoration to the
        // end of the batch, which the shards never do.
        std::vector<VertexId> new_vertices;
        for (const GraphUpdate& update : long_trace) {
          const UpdateResult b = single->Apply(update);
          new_vertices.insert(new_vertices.end(), b.new_vertices.begin(),
                              b.new_vertices.end());
        }
        EXPECT_EQ(a.new_vertices, new_vertices);
        // Routing applied the first kCap ops when the block filled; the
        // rest wait for the barrier.
        EXPECT_EQ(sharded->shard_graph(0).NumVertices(),
                  at_cap.NumVertices());
        EXPECT_EQ(sorted_edges(sharded->shard_graph(0)), edges_at_cap);
      } else {
        for (const GraphUpdate& update : trace) {
          const UpdateResult a = sharded->Apply(update);
          const UpdateResult b = single->Apply(update);
          // Global id allocation mirrors the single engine exactly.
          EXPECT_EQ(a.new_vertices, b.new_vertices);
        }
      }
      std::vector<VertexId> expected = single->Solution();
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(sharded->Solution(), expected)
          << PartitionStrategyName(strategy) << (batched ? " batched" : "");
      EXPECT_EQ(sharded->ShardStats().cut_edges, 0);
      EXPECT_EQ(sharded->Stats().num_edges, single->Stats().num_edges);
    }
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
  // The restored engine counts the passes the saved one ran, no more.
  EXPECT_EQ(ResolutionCounters(restored.get()),
            ResolutionCounters(engine.get()));
  EXPECT_EQ(restored->Solution(), engine->Solution());
  EXPECT_EQ(restored->Stats().updates_applied,
            engine->Stats().updates_applied);

  // The restored engine continues deterministically: the suffix replays to
  // the identical final solution, including recycled vertex ids, and the
  // counters stay equal.
  for (size_t i = 300; i < trace.size(); ++i) {
    const UpdateResult a = engine->Apply(trace[i]);
    const UpdateResult b = restored->Apply(trace[i]);
    EXPECT_EQ(a.new_vertices, b.new_vertices);
  }
  EXPECT_EQ(restored->Solution(), engine->Solution());
  EXPECT_EQ(ResolutionCounters(restored.get()),
            ResolutionCounters(engine.get()));

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

// ShardedEngineOptions::async_resolver is ignored, but the sharded snapshot
// section still carries its byte, so snapshots load in both directions:
// engines saved with the byte at 0 and at 1 restore with the flag intact
// and continue identically, barrier for barrier.
TEST(ShardedEngineTest, SnapshotsWithEitherResolverByteContinueAlike) {
  const EdgeListGraph base = SmallGraph(103);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 500, 107);
  constexpr size_t kSaveAt = 200;
  std::vector<std::vector<VertexId>> continuations[2];
  for (const bool flag : {false, true}) {
    ShardedEngineOptions options = Opts(3);
    options.async_resolver = flag;
    auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    for (size_t i = 0; i < kSaveAt; ++i) engine->Apply(trace[i]);
    std::ostringstream sink;
    ASSERT_TRUE(engine->SaveSnapshot(sink).ok);
    std::istringstream source(sink.str());
    SnapshotStatus status;
    auto restored = ShardedMisEngine::LoadSnapshot(source, &status);
    ASSERT_NE(restored, nullptr) << status.message;
    EXPECT_EQ(restored->options().async_resolver, flag);
    std::vector<std::vector<VertexId>>& out = continuations[flag ? 1 : 0];
    out.push_back(restored->Solution());
    for (size_t i = kSaveAt; i < trace.size(); ++i) {
      const UpdateResult a = engine->Apply(trace[i]);
      const UpdateResult b = restored->Apply(trace[i]);
      EXPECT_EQ(a.new_vertices, b.new_vertices);
      if ((i + 1) % 50 == 0) {
        out.push_back(restored->Solution());
        EXPECT_EQ(out.back(), engine->Solution()) << "op " << i;
      }
    }
  }
  EXPECT_EQ(continuations[0], continuations[1]);
}

// Every registered maintainer — the wholesale-rebuild baselines (DyARW,
// DGOneDIS, DGTwoDIS, Recompute) included — goes through the one barrier
// pass, which must return a maximal independent set of the global graph
// at every barrier of a churn trace on a 3-shard engine.
TEST(ShardedEngineTest, EveryMaintainerResolvesToMaximalSetsAtEveryBarrier) {
  const EdgeListGraph base = SmallGraph(109);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 300, 113);
  const std::vector<std::string> names =
      MaintainerRegistry::Global().ListNames();
  for (const char* baseline : {"DyARW", "DGOneDIS", "DGTwoDIS", "Recompute"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), baseline), names.end())
        << baseline;
  }
  for (const std::string& name : names) {
    auto engine = ShardedMisEngine::Create(base, {name}, Opts(3));
    ASSERT_NE(engine, nullptr) << name;
    engine->Initialize();
    DynamicGraph replica = base.ToDynamic();
    ASSERT_TRUE(IsMaximalIndependentSet(replica, engine->Solution())) << name;
    int applied = 0;
    for (const GraphUpdate& update : trace) {
      engine->Apply(update);
      ApplyUpdate(&replica, update);
      if (++applied % 50 == 0) {
        ASSERT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()))
            << name << " after " << applied << " updates";
      }
    }
    EXPECT_GT(engine->ShardStats().conflicts, 0) << name;
  }
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

// The whole stream routes without a single intermediate barrier, so the
// conflicts the shards' solutions accumulate meet the resolver all at once:
// the one barrier at the end must repair them into a maximal independent
// set of the global graph.
TEST(ShardedEngineTest, OneBarrierRepairsUnbrokenStream) {
  const EdgeListGraph base = SmallGraph(47);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 600, 53);

  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, Opts(4));
  ASSERT_NE(engine, nullptr);
  engine->Initialize();

  DynamicGraph replica = base.ToDynamic();
  for (const GraphUpdate& update : trace) {
    engine->Apply(update);
    ApplyUpdate(&replica, update);
  }
  engine->Flush();

  EXPECT_TRUE(IsMaximalIndependentSet(replica, engine->Solution()));
  // The churn actually produced cut conflicts (otherwise this test proves
  // nothing about the repair path).
  EXPECT_GT(engine->ShardStats().conflicts, 0);
}

// FNV-1a over the four little-endian bytes of `word`.
uint64_t Fold(uint64_t h, uint32_t word) {
  for (int i = 0; i < 4; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins the barrier pass at S > 1, where it repairs real conflicts: on a TTL
// stream over the serve layer's smoke graph, every 512-op barrier's
// solution (its size, then its ids) folds into one FNV-1a chain per
// configuration, under hash and range plans at S = 2 and 4.
TEST(ShardedEngineTest, WindowStreamBarrierSolutionsArePinned) {
  const EdgeListGraph base = serve::BuildServeWorkloadGraph("smoke");
  ingest::TemporalStreamOptions window = serve::ServeWorkloadWindow("temporal");
  window.ttl_ticks = 512;
  const std::vector<GraphUpdate> stream =
      ingest::MakeTemporalSequence(base.ToDynamic(), 40000, window, nullptr);
  constexpr size_t kBarrier = 512;
  struct Pin {
    int shards;
    PartitionStrategy strategy;
    uint64_t hash;
  };
  const Pin pins[] = {
      {2, PartitionStrategy::kHash, 0x359448f3596d4e26ULL},
      {2, PartitionStrategy::kRange, 0xd2ea755ce9b0fa5fULL},
      {4, PartitionStrategy::kHash, 0xa08c6e50f0f5695cULL},
      {4, PartitionStrategy::kRange, 0x6271926eed754ad1ULL},
  };
  for (const Pin& pin : pins) {
    auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"},
                                           Opts(pin.shards, pin.strategy));
    ASSERT_NE(engine, nullptr);
    engine->Initialize();
    uint64_t h = 0xcbf29ce484222325ULL;
    int barriers = 0;
    for (size_t begin = 0; begin < stream.size(); begin += kBarrier) {
      const size_t end = std::min(stream.size(), begin + kBarrier);
      engine->ApplyBatch(std::vector<GraphUpdate>(
          stream.begin() + static_cast<std::ptrdiff_t>(begin),
          stream.begin() + static_cast<std::ptrdiff_t>(end)));
      const std::vector<VertexId> solution = engine->Solution();
      h = Fold(h, static_cast<uint32_t>(solution.size()));
      for (const VertexId v : solution) h = Fold(h, static_cast<uint32_t>(v));
      ++barriers;
    }
    EXPECT_EQ(barriers, 79);
    EXPECT_EQ(h, pin.hash) << "S=" << pin.shards << " plan "
                           << static_cast<int>(pin.strategy) << ": 0x"
                           << std::hex << h;
  }
}

// Replay determinism extends to the locality plan: batch chopping and
// mid-stream barriers must not change the final solution (the plan assigns
// ids in stream order, which is identical across runs).
TEST(ShardedEngineTest, LocalityPlanDeterministicReplay) {
  const EdgeListGraph base = SmallGraph(67);
  const std::vector<GraphUpdate> trace = ChurnTrace(base, 500, 71);

  auto run = [&](int chunk, int query_every) {
    auto engine = ShardedMisEngine::Create(
        base, {"DyTwoSwap"}, Opts(3, PartitionStrategy::kLocality));
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

  const std::vector<VertexId> a = run(97, 0);
  const std::vector<VertexId> b = run(1, 3);
  const std::vector<VertexId> c = run(500, 1);
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
