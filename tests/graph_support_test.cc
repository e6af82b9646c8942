// StaticGraph, degree statistics, update streams, datasets and utility
// formatting.

#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/datasets.h"
#include "src/graph/degree_stats.h"
#include "src/graph/generators.h"
#include "src/graph/static_graph.h"
#include "src/graph/update_stream.h"
#include "src/util/random.h"
#include "src/util/table.h"

namespace dynmis {
namespace {

DynamicGraph MediumRandomGraph() {
  Rng rng(44);
  return ErdosRenyiGnm(25, 50, &rng).ToDynamic();
}

TEST(StaticGraphTest, BuildsSortedCsr) {
  const StaticGraph g(4, {{0, 1}, {2, 0}, {3, 0}});
  EXPECT_EQ(g.NumVertices(), 4);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.MaxDegree(), 3);
  const auto nbrs = g.Neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(StaticGraphTest, FromDynamicCompactsAliveVertices) {
  DynamicGraph g(5);
  g.AddEdge(1, 3);
  g.AddEdge(3, 4);
  g.RemoveVertex(0);
  const StaticGraph s = StaticGraph::FromDynamic(g);
  EXPECT_EQ(s.NumVertices(), 4);
  EXPECT_EQ(s.NumEdges(), 2);
  // Solutions translate back to dynamic ids.
  std::vector<VertexId> all;
  for (VertexId v = 0; v < s.NumVertices(); ++v) all.push_back(v);
  const std::vector<VertexId> originals = s.ToOriginalIds(all);
  EXPECT_EQ(originals, (std::vector<VertexId>{1, 2, 3, 4}));
}

TEST(StaticGraphTest, InducedSubgraphComposesOriginalIds) {
  DynamicGraph g(6);
  g.AddEdge(2, 3);
  g.AddEdge(3, 5);
  g.RemoveVertex(0);
  const StaticGraph s = StaticGraph::FromDynamic(g);  // ids 1..5 -> 0..4.
  const StaticGraph sub = s.InducedSubgraph({1, 2, 4});  // = {2, 3, 5}.
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(sub.NumEdges(), 2);
  EXPECT_EQ(sub.OriginalId(0), 2);
  EXPECT_EQ(sub.OriginalId(2), 5);
}

TEST(DegreeStatsTest, CountsAndBuckets) {
  const DegreeStats stats = ComputeDegreeStats(StarGraph(7).ToStatic());
  EXPECT_EQ(stats.n, 8);
  EXPECT_EQ(stats.m, 7);
  EXPECT_EQ(stats.max_degree, 7);
  EXPECT_EQ(stats.min_degree, 1);
  EXPECT_EQ(stats.counts[1], 7);
  EXPECT_EQ(stats.counts[7], 1);
  // Buckets: [1,2) -> 7 leaves; [4,8) -> hub.
  EXPECT_EQ(stats.bucket_counts[0], 7);
  EXPECT_EQ(stats.bucket_counts[2], 1);
}

TEST(UpdateStreamTest, SequencesAreReplayable) {
  Rng rng(3);
  const EdgeListGraph base = ErdosRenyiGnm(30, 60, &rng);
  UpdateStreamOptions options;
  options.seed = 17;
  const std::vector<GraphUpdate> updates =
      MakeUpdateSequence(base, 300, options);
  EXPECT_EQ(updates.size(), 300u);
  // Replaying on two fresh copies yields identical final graphs.
  DynamicGraph a = base.ToDynamic();
  DynamicGraph b = base.ToDynamic();
  for (const GraphUpdate& update : updates) {
    const VertexId va = ApplyUpdate(&a, update);
    const VertexId vb = ApplyUpdate(&b, update);
    ASSERT_EQ(va, vb);  // Deterministic id allocation keeps copies aligned.
  }
  EXPECT_EQ(a.NumVertices(), b.NumVertices());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
}

TEST(UpdateStreamTest, RespectsEdgeFraction) {
  DynamicGraph g = MediumRandomGraph();
  UpdateStreamOptions options;
  options.seed = 5;
  options.edge_op_fraction = 1.0;  // Edge ops only.
  UpdateStreamGenerator gen(options);
  for (int i = 0; i < 200; ++i) {
    const GraphUpdate update = gen.Next(g);
    ASSERT_TRUE(update.kind == UpdateKind::kInsertEdge ||
                update.kind == UpdateKind::kDeleteEdge);
    ApplyUpdate(&g, update);
  }
}

TEST(UpdateStreamTest, HandlesEmptyGraph) {
  DynamicGraph g(0);
  UpdateStreamOptions options;
  options.seed = 9;
  UpdateStreamGenerator gen(options);
  // The only valid first update is a vertex insertion.
  const GraphUpdate update = gen.Next(g);
  EXPECT_EQ(update.kind, UpdateKind::kInsertVertex);
  ApplyUpdate(&g, update);
  EXPECT_EQ(g.NumVertices(), 1);
}

// The samplers' numbering: list order, last-freed-first reuse, an inserted
// vertex's edges ending at the id AddVertex returns, and a deleted vertex
// freeing its edges most recent first.
TEST(UpdateStreamTest, EdgeIdTableNumbersEdgesInStep) {
  EdgeListGraph base;
  base.n = 4;
  base.edges = {{0, 1}, {2, 1}, {0, 3}};
  DynamicGraph g = base.ToDynamic();
  EdgeIdTable ids(base.edges);
  auto apply = [&](UpdateKind kind, VertexId u, VertexId v,
                   std::vector<VertexId> neighbors = {}) {
    GraphUpdate update;
    update.kind = kind;
    update.u = u;
    update.v = v;
    update.neighbors = std::move(neighbors);
    ids.Apply(g, update);
    const VertexId added = ApplyUpdate(&g, update);
    EXPECT_EQ(ids.NumEdges(), g.NumEdges());
    return added;
  };
  using Ends = std::pair<VertexId, VertexId>;
  EXPECT_EQ(ids.Endpoints(1), (Ends{2, 1}));
  apply(UpdateKind::kDeleteEdge, 1, 0);
  EXPECT_FALSE(ids.IsAlive(0));
  apply(UpdateKind::kInsertEdge, 3, 2);
  EXPECT_EQ(ids.Endpoints(0), (Ends{3, 2}));
  // Vertex 2's edges, newest first: {3, 2} (id 0), then {2, 1} (id 1).
  apply(UpdateKind::kDeleteVertex, 2, kInvalidVertex);
  EXPECT_FALSE(ids.IsAlive(0));
  EXPECT_FALSE(ids.IsAlive(1));
  EXPECT_EQ(apply(UpdateKind::kInsertVertex, kInvalidVertex, kInvalidVertex,
                  {0, 1}),
            2);
  EXPECT_EQ(ids.Endpoints(1), (Ends{0, 2}));
  EXPECT_EQ(ids.Endpoints(0), (Ends{1, 2}));
  EXPECT_EQ(ids.Capacity(), 3);
}

TEST(DatasetsTest, RegistryIsComplete) {
  EXPECT_EQ(EasyDatasets().size(), 13u);
  EXPECT_EQ(HardDatasets().size(), 9u);
  EXPECT_NE(FindDataset("hollywood"), nullptr);
  EXPECT_NE(FindDataset("uk-2007"), nullptr);
  EXPECT_EQ(FindDataset("no-such-graph"), nullptr);
}

TEST(DatasetsTest, GenerationIsDeterministicAndRoughlyToSpec) {
  const DatasetSpec* spec = FindDataset("Epinions");
  ASSERT_NE(spec, nullptr);
  const EdgeListGraph a = GenerateDataset(*spec);
  const EdgeListGraph b = GenerateDataset(*spec);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.n, spec->n);
  EXPECT_GT(a.AverageDegree(), spec->avg_degree * 0.4);
  EXPECT_LT(a.AverageDegree(), spec->avg_degree * 1.8);
}

TEST(TableTest, Formatting) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-42000), "-42,000");
  EXPECT_EQ(FormatPercent(0.99874), "99.87%");
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(uint64_t{3} << 20), "3.0 MiB");
}

TEST(RandomTest, BoundedIsUniformish) {
  Rng rng(123);
  int histogram[10] = {0};
  for (int i = 0; i < 100000; ++i) ++histogram[rng.NextBounded(10)];
  for (int count : histogram) {
    EXPECT_GT(count, 9000);
    EXPECT_LT(count, 11000);
  }
}

TEST(RandomTest, SeedDeterminism) {
  Rng a(1);
  Rng b(1);
  Rng c(2);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

}  // namespace
}  // namespace dynmis
