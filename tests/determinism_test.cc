// Determinism regression: every registered maintainer name (canonical and
// alias) must produce the identical final solution when the same seeded
// update stream is replayed twice. This is the prerequisite for comparing
// sharded against single-engine output — and for the bench driver's
// cross-run comparability guarantee ("final_solution_size must stay
// identical for a deterministic scenario").
//
// The pinned test below goes further: it fixes the exact solutions the swap
// maintainers, the 2-shard engine and the two stream generators produce on
// seeded inputs, so a refactor that changes behaviour by a single vertex
// fails here. Only solutions are pinned; memory bytes follow the standard
// library's growth policy and are left to the bench files.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dynmis/engine.h"
#include "dynmis/registry.h"
#include "dynmis/sharded_engine.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/ingest/temporal.h"
#include "src/io/snapshot.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

std::vector<VertexId> ReplayOnce(const EdgeListGraph& base,
                                 const std::vector<GraphUpdate>& trace,
                                 const std::string& algorithm) {
  auto engine = MisEngine::Create(base, {algorithm});
  EXPECT_NE(engine, nullptr) << algorithm;
  engine->Initialize();
  for (const GraphUpdate& update : trace) engine->Apply(update);
  std::vector<VertexId> solution = engine->Solution();
  std::sort(solution.begin(), solution.end());
  return solution;
}

TEST(DeterminismTest, EveryRegisteredMaintainerReplaysIdentically) {
  Rng rng(9);
  const EdgeListGraph base = ErdosRenyiGnm(120, 320, &rng);
  UpdateStreamOptions stream;
  stream.seed = 21;
  stream.edge_op_fraction = 0.8;
  const std::vector<GraphUpdate> trace =
      MakeUpdateSequence(base, 300, stream);

  DynamicGraph replica = base.ToDynamic();
  for (const GraphUpdate& update : trace) ApplyUpdate(&replica, update);

  for (const std::string& name : MaintainerRegistry::Global().ListNames()) {
    const std::vector<VertexId> first = ReplayOnce(base, trace, name);
    const std::vector<VertexId> second = ReplayOnce(base, trace, name);
    EXPECT_EQ(first, second) << name << " diverged between identical runs";
    EXPECT_TRUE(testing_util::IsIndependentSet(replica, first)) << name;
  }
}

// --- Pinned behaviour ------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr int kFoldEvery = 50;
constexpr int kBatchOps = 64;

// FNV-1a over the four little-endian bytes of `word`.
uint64_t Fold(uint64_t h, uint32_t word) {
  for (int i = 0; i < 4; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t FoldSolution(uint64_t h, std::vector<VertexId> solution) {
  std::sort(solution.begin(), solution.end());
  h = Fold(h, static_cast<uint32_t>(solution.size()));
  for (VertexId v : solution) h = Fold(h, static_cast<uint32_t>(v));
  return h;
}

uint64_t FoldStream(uint64_t h, const std::vector<GraphUpdate>& stream) {
  for (const GraphUpdate& update : stream) {
    h = Fold(h, static_cast<uint32_t>(update.kind));
    h = Fold(h, static_cast<uint32_t>(update.u));
    h = Fold(h, static_cast<uint32_t>(update.v));
    h = Fold(h, static_cast<uint32_t>(update.neighbors.size()));
    for (VertexId w : update.neighbors) h = Fold(h, static_cast<uint32_t>(w));
  }
  return h;
}

struct PinnedInput {
  EdgeListGraph base;
  std::vector<GraphUpdate> stream;
};

// A random geometric graph: n points in the unit square, adjacent within
// distance r. Its triangles put adjacent 1-tight vertices under one owner,
// so edge deletions reach the swap maintainers' deletion cases ii.a and
// ii.c, which random graphs almost never do.
EdgeListGraph RandomGeometric(int n, double r, Rng* rng) {
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng->NextDouble();
    y[i] = rng->NextDouble();
  }
  EdgeListGraph g;
  g.n = n;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx * dx + dy * dy < r * r) g.edges.emplace_back(i, j);
    }
  }
  return g;
}

// Two seeded graphs, each with a uniform stream that includes vertex ops
// and a degree-biased one.
std::vector<PinnedInput> PinnedInputs() {
  Rng geo_rng(31);
  Rng pl_rng(37);
  const EdgeListGraph graphs[] = {RandomGeometric(400, 0.07, &geo_rng),
                                  ChungLuPowerLaw(400, 2.3, 6.0, &pl_rng)};
  std::vector<PinnedInput> inputs;
  uint64_t seed = 41;
  for (const EdgeListGraph& base : graphs) {
    UpdateStreamOptions uniform;
    uniform.edge_op_fraction = 0.8;
    uniform.seed = seed++;
    UpdateStreamOptions biased;
    biased.bias = EndpointBias::kDegreeProportional;
    biased.seed = seed++;
    for (const UpdateStreamOptions& options : {uniform, biased}) {
      inputs.push_back(
          {base, MakeUpdateSequence(base, 1000, options)});
    }
  }
  return inputs;
}

// Replays `input` through a MisEngine running `name`, single-op or in
// ApplyBatch blocks of kBatchOps, and chains the sorted solution into `h`
// after initialization, after every kFoldEvery ops (every block when
// batched) and at the end.
uint64_t PinnedRun(uint64_t h, const PinnedInput& input,
                   const std::string& name, bool batched) {
  auto engine = MisEngine::Create(input.base, {name});
  EXPECT_NE(engine, nullptr) << name;
  if (engine == nullptr) return h;
  engine->Initialize();
  h = FoldSolution(h, engine->Solution());
  const std::vector<GraphUpdate>& stream = input.stream;
  if (batched) {
    for (size_t i = 0; i < stream.size(); i += kBatchOps) {
      const size_t end = std::min(stream.size(), i + kBatchOps);
      engine->ApplyBatch(std::vector<GraphUpdate>(stream.begin() + i,
                                                  stream.begin() + end));
      h = FoldSolution(h, engine->Solution());
    }
  } else {
    for (size_t i = 0; i < stream.size(); ++i) {
      engine->Apply(stream[i]);
      if ((i + 1) % kFoldEvery == 0) h = FoldSolution(h, engine->Solution());
    }
  }
  return FoldSolution(h, engine->Solution());
}

TEST(DeterminismTest, PinnedSwapMaintainerSolutions) {
  struct Pin {
    const char* name;
    uint64_t single;
    uint64_t batched;
  };
  const Pin pins[] = {
      {"DyOneSwap", 0x8faeb9e2c05eebe0ULL, 0xa0097a1b4dd2323aULL},
      {"DyOneSwap*", 0xfae3c7806591e76aULL, 0x81b116ba94f4ed81ULL},
      {"DyTwoSwap", 0x9465d9c67ccd00ecULL, 0x6c1ce6b640cf304eULL},
      {"DyTwoSwap*", 0x9d65afa413c325edULL, 0x4f43df163093b010ULL},
      {"KSwap1", 0x31ce0c68f6b8d5d6ULL, 0xd84ecfd6bd00694cULL},
      {"KSwap2", 0xe4b880998e71b5edULL, 0x641bfb5639d36352ULL},
      {"KSwap3", 0xc740cc781272a360ULL, 0x795049cf2784f0ebULL},
      {"KSwap4", 0xe2888a149690beb6ULL, 0x994caf8e5e36c2ddULL},
  };
  const std::vector<PinnedInput> inputs = PinnedInputs();
  for (const Pin& pin : pins) {
    for (const bool batched : {false, true}) {
      uint64_t h = kFnvOffset;
      for (const PinnedInput& input : inputs) {
        h = PinnedRun(h, input, pin.name, batched);
      }
      EXPECT_EQ(h, batched ? pin.batched : pin.single)
          << pin.name << (batched ? " ApplyBatch" : " Apply") << ": 0x"
          << std::hex << h;
    }
  }
}

TEST(DeterminismTest, PinnedShardedSolutions) {
  Rng rng(43);
  const EdgeListGraph base = ErdosRenyiGnm(300, 900, &rng);
  ingest::TemporalStreamOptions temporal;
  temporal.ttl_ticks = 150;
  temporal.seed = 47;
  const std::vector<GraphUpdate> stream =
      ingest::MakeTemporalSequence(base, 2000, temporal, nullptr);
  ShardedEngineOptions options;
  options.num_shards = 2;
  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  uint64_t h = FoldSolution(kFnvOffset, engine->Solution());
  for (size_t i = 0; i < stream.size(); ++i) {
    engine->Apply(stream[i]);
    if ((i + 1) % kFoldEvery == 0) h = FoldSolution(h, engine->Solution());
  }
  h = FoldSolution(h, engine->Solution());
  EXPECT_EQ(h, 0xf83dcc27daba052bULL) << "0x" << std::hex << h;
}

TEST(DeterminismTest, PinnedStreamGenerators) {
  const std::vector<PinnedInput> inputs = PinnedInputs();
  uint64_t h = kFnvOffset;
  for (const PinnedInput& input : inputs) h = FoldStream(h, input.stream);
  EXPECT_EQ(h, 0x68f0fefea97e1709ULL) << "update streams: 0x" << std::hex << h;

  Rng rng(53);
  const EdgeListGraph base = ChungLuPowerLaw(300, 2.3, 6.0, &rng);
  ingest::TemporalStreamOptions temporal;
  temporal.ttl_ticks = 100;
  temporal.inserts_per_tick = 2;
  temporal.bias = EndpointBias::kDegreeProportional;
  temporal.seed = 59;
  const std::vector<GraphUpdate> windowed =
      ingest::MakeTemporalSequence(base, 1500, temporal, nullptr);
  const uint64_t t = FoldStream(kFnvOffset, windowed);
  EXPECT_EQ(t, 0x168129ada80e047bULL) << "temporal stream: 0x" << std::hex << t;

  // massive-churn's input path: the sorted, deduplicated list an ingest
  // yields, built into a graph and drawn with that workload's options.
  Rng sorted_rng(61);
  EdgeListGraph sorted = ChungLuPowerLaw(2000, 2.3, 10.0, &sorted_rng);
  for (auto& [u, v] : sorted.edges) {
    if (u > v) std::swap(u, v);
  }
  std::sort(sorted.edges.begin(), sorted.edges.end());
  sorted.edges.erase(std::unique(sorted.edges.begin(), sorted.edges.end()),
                     sorted.edges.end());
  UpdateStreamOptions churn;
  churn.edge_op_fraction = 1.0;
  churn.insert_fraction = 0.5;
  churn.bias = EndpointBias::kDegreeProportional;
  churn.seed = 67;
  const uint64_t s = FoldStream(
      kFnvOffset, MakeUpdateSequence(sorted.ToDynamic(), 4000, churn));
  EXPECT_EQ(s, 0xe2a76f9754aaa145ULL)
      << "sorted-list stream: 0x" << std::hex << s;

  // `dynmis_cli snapshot load --random`'s path: a churned graph's
  // snapshot-loaded copy, drawn op by op through Next.
  Rng churn_rng(71);
  DynamicGraph churned = ChungLuPowerLaw(600, 2.3, 8.0, &churn_rng).ToDynamic();
  for (int step = 0; step < 6000; ++step) {
    const int cap = churned.VertexCapacity();
    const auto u = static_cast<VertexId>(churn_rng.NextBounded(cap));
    const auto v = static_cast<VertexId>(churn_rng.NextBounded(cap));
    if (!churned.IsVertexAlive(u) || !churned.IsVertexAlive(v) || u == v) {
      continue;
    }
    if (step % 97 == 0) {
      churned.RemoveVertex(u);
    } else if (step % 89 == 0) {
      churned.AddVertex();
    } else if (!churned.RemoveEdgeBetween(u, v)) {
      churned.AddEdge(u, v);
    }
  }
  SnapshotWriter writer;
  churned.SaveTo(&writer);
  std::stringstream bytes;
  ASSERT_TRUE(writer.WriteTo(bytes).ok);
  SnapshotReader reader;
  ASSERT_TRUE(reader.ReadFrom(bytes).ok);
  DynamicGraph loaded;
  ASSERT_TRUE(loaded.LoadFrom(&reader)) << reader.error();
  UpdateStreamOptions resume;
  resume.edge_op_fraction = 0.8;
  resume.bias = EndpointBias::kDegreeProportional;
  resume.seed = 73;
  UpdateStreamGenerator generator(resume);
  std::vector<GraphUpdate> resumed;
  for (int i = 0; i < 3000; ++i) {
    resumed.push_back(generator.Next(loaded));
    ApplyUpdate(&loaded, resumed.back());
  }
  const uint64_t l = FoldStream(kFnvOffset, resumed);
  EXPECT_EQ(l, 0x0500313f8d7a6ad1ULL)
      << "snapshot-loaded stream: 0x" << std::hex << l;
}

}  // namespace
}  // namespace dynmis
