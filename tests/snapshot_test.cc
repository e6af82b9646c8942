// Snapshot round-trip property tests: for every registered maintainer, a
// random churn prefix followed by save -> load into a fresh engine must
// reproduce the identical solution set and pass full consistency checks;
// for the core swap maintainers the restored engine must additionally
// behave *identically* on a shared update suffix (same solutions, same
// recycled vertex ids) and must restore without any recomputation —
// verified by the MisState MoveIn/MoveOut op counter, which stays at zero
// across LoadState. Corrupted, truncated, version-bumped and
// unknown-algorithm snapshots must be rejected with a structured error.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dynmis/dynmis.h"
#include "gtest/gtest.h"
#include "src/core/swap_maintainer.h"
#include "src/io/atomic_file.h"
#include "src/util/faultfs.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

using testing_util::IsMaximalIndependentSet;

UpdateStreamOptions ChurnOptions(uint64_t seed) {
  UpdateStreamOptions options;
  options.edge_op_fraction = 0.6;  // Heavy vertex churn: ids get recycled.
  options.insert_fraction = 0.5;
  options.seed = seed;
  return options;
}

std::unique_ptr<MisEngine> MakeChurnedEngine(const std::string& name,
                                             uint64_t seed, int updates) {
  Rng rng(2024);
  const EdgeListGraph base = ErdosRenyiGnm(60, 150, &rng);
  auto engine = MisEngine::Create(base, name);
  if (engine == nullptr) return nullptr;
  engine->Initialize();
  UpdateStreamGenerator gen(ChurnOptions(seed));
  for (int i = 0; i < updates; ++i) {
    engine->Apply(gen.Next(engine->graph()));
  }
  return engine;
}

std::string SaveToString(const MisEngine& engine) {
  std::ostringstream out;
  const SnapshotStatus status = engine.SaveSnapshot(out);
  EXPECT_TRUE(status.ok) << status.message;
  return std::move(out).str();
}

std::unique_ptr<MisEngine> LoadFromString(const std::string& blob,
                                          SnapshotStatus* status) {
  std::istringstream in(blob);
  return MisEngine::LoadSnapshot(in, status);
}

std::vector<VertexId> SortedSolution(const MisEngine& engine) {
  std::vector<VertexId> solution = engine.Solution();
  std::sort(solution.begin(), solution.end());
  return solution;
}

// The state-transition op counter and consistency hook of the swap
// maintainers, reached through the facade. Returns -1 for other types.
int64_t StateTransitionOps(const DynamicMisMaintainer& maintainer) {
  auto* swap = dynamic_cast<const SwapMaintainer*>(&maintainer);
  return swap != nullptr ? swap->StateTransitionOps() : -1;
}

void CheckCoreConsistency(const DynamicMisMaintainer& maintainer) {
  if (auto* swap = dynamic_cast<const SwapMaintainer*>(&maintainer)) {
    swap->CheckConsistency();
  }
}

TEST(SnapshotTest, RoundTripEveryRegisteredMaintainer) {
  const std::vector<std::string> names =
      MaintainerRegistry::Global().ListNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    auto engine = MakeChurnedEngine(name, /*seed=*/7, /*updates=*/400);
    ASSERT_NE(engine, nullptr) << name;
    const std::string blob = SaveToString(*engine);
    ASSERT_FALSE(blob.empty()) << name;

    SnapshotStatus status;
    auto loaded = LoadFromString(blob, &status);
    ASSERT_NE(loaded, nullptr) << name << ": " << status.message;
    EXPECT_EQ(SortedSolution(*loaded), SortedSolution(*engine)) << name;

    const EngineStats before = engine->Stats();
    const EngineStats after = loaded->Stats();
    EXPECT_EQ(after.algorithm, before.algorithm) << name;
    EXPECT_EQ(after.num_vertices, before.num_vertices) << name;
    EXPECT_EQ(after.num_edges, before.num_edges) << name;
    EXPECT_EQ(after.solution_size, before.solution_size) << name;
    EXPECT_EQ(after.updates_applied, before.updates_applied) << name;

    EXPECT_TRUE(IsMaximalIndependentSet(loaded->graph(), loaded->Solution()))
        << name;
    CheckCoreConsistency(loaded->maintainer());
  }
}

TEST(SnapshotTest, CoreMaintainersRestoreWithoutRecompute) {
  for (const std::string name :
       {"DyOneSwap", "DyTwoSwap", "DyTwoSwap*", "KSwap3"}) {
    auto engine = MakeChurnedEngine(name, /*seed=*/13, /*updates=*/500);
    ASSERT_NE(engine, nullptr) << name;
    const std::string blob = SaveToString(*engine);

    SnapshotStatus status;
    auto loaded = LoadFromString(blob, &status);
    ASSERT_NE(loaded, nullptr) << name << ": " << status.message;
    // LoadState restores the flat arrays verbatim: zero MoveIn/MoveOut
    // transitions means no Initialize pass and no swap-restoration ran —
    // restore is O(state), never a recompute.
    EXPECT_EQ(StateTransitionOps(loaded->maintainer()), 0) << name;
    CheckCoreConsistency(loaded->maintainer());
  }
}

TEST(SnapshotTest, CoreMaintainersResumeIdenticallyAfterRestore) {
  for (const std::string name :
       {"DyOneSwap", "DyTwoSwap", "DyTwoSwap*", "KSwap2", "KSwap3"}) {
    auto engine = MakeChurnedEngine(name, /*seed=*/19, /*updates=*/400);
    ASSERT_NE(engine, nullptr) << name;
    SnapshotStatus status;
    auto loaded = LoadFromString(SaveToString(*engine), &status);
    ASSERT_NE(loaded, nullptr) << name << ": " << status.message;

    // One shared suffix, pre-drawn against the snapshot-time graph; both
    // engines must stay in lockstep: same solutions and — because the
    // graph's free lists travel with the snapshot — the same recycled ids
    // for inserted vertices.
    const std::vector<GraphUpdate> suffix =
        MakeUpdateSequence(engine->graph(), 300, ChurnOptions(/*seed=*/23));
    for (size_t i = 0; i < suffix.size(); ++i) {
      const UpdateResult a = engine->Apply(suffix[i]);
      const UpdateResult b = loaded->Apply(suffix[i]);
      ASSERT_EQ(b.new_vertices, a.new_vertices) << name << " op " << i;
      if (i % 25 == 0) {
        ASSERT_EQ(SortedSolution(*loaded), SortedSolution(*engine))
            << name << " op " << i;
      }
    }
    EXPECT_EQ(SortedSolution(*loaded), SortedSolution(*engine)) << name;
    CheckCoreConsistency(loaded->maintainer());
    CheckCoreConsistency(engine->maintainer());
  }
}

TEST(SnapshotTest, FormerLazyFlagIsWrittenAsOne) {
  // The engine and mis sections keep the byte that once selected lazy
  // collection, always 1 with no tightness lists after the counts: the
  // encoding a reader from before the single-mode MisState accepts.
  auto engine = MakeChurnedEngine("DyTwoSwap", /*seed=*/31, /*updates=*/300);
  ASSERT_NE(engine, nullptr);
  std::istringstream in(SaveToString(*engine));
  SnapshotReader reader;
  ASSERT_TRUE(reader.ReadFrom(in).ok);
  ASSERT_TRUE(reader.OpenSection("engine"));
  reader.GetString();  // algorithm
  reader.GetString();  // display name
  reader.GetI32();     // k
  EXPECT_EQ(reader.GetU8(), 1);
  ASSERT_TRUE(reader.OpenSection("mis"));
  EXPECT_EQ(reader.GetI32(), 2);  // k
  EXPECT_EQ(reader.GetU8(), 1);
  reader.GetI64();  // |I|
  std::vector<uint8_t> status;
  std::vector<int32_t> count;
  ASSERT_TRUE(reader.GetU8Array(&status));
  ASSERT_TRUE(reader.GetI32Array(&count));
  EXPECT_TRUE(reader.AtSectionEnd());
}

TEST(SnapshotTest, EmptyEngineRoundTrips) {
  EdgeListGraph base;  // No vertices, no edges.
  auto engine = MisEngine::Create(base, "DyTwoSwap");
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  SnapshotStatus status;
  auto loaded = LoadFromString(SaveToString(*engine), &status);
  ASSERT_NE(loaded, nullptr) << status.message;
  EXPECT_EQ(loaded->SolutionSize(), 0);
  EXPECT_EQ(loaded->Stats().num_vertices, 0);
}

TEST(SnapshotTest, RejectsCorruptedHeadersAndTruncatedFiles) {
  auto engine = MakeChurnedEngine("DyTwoSwap", /*seed=*/5, /*updates=*/200);
  ASSERT_NE(engine, nullptr);
  const std::string blob = SaveToString(*engine);
  ASSERT_GT(blob.size(), 64u);

  {
    // Bad magic.
    std::string bad = blob;
    bad[0] ^= 0x5a;
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(bad, &status), nullptr);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("magic"), std::string::npos)
        << status.message;
  }
  {
    // Unsupported version (bytes 8..11, little-endian).
    std::string bad = blob;
    bad[8] = 0x63;
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(bad, &status), nullptr);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("version"), std::string::npos)
        << status.message;
  }
  {
    // Truncation at a spread of byte lengths: never a crash, always a
    // structured error.
    for (size_t len : {size_t{0}, size_t{4}, size_t{11}, blob.size() / 4,
                       blob.size() / 2, blob.size() - 1}) {
      SnapshotStatus status;
      EXPECT_EQ(LoadFromString(blob.substr(0, len), &status), nullptr)
          << "length " << len;
      EXPECT_FALSE(status.ok) << "length " << len;
      EXPECT_FALSE(status.message.empty()) << "length " << len;
    }
  }
  {
    // Single-bit corruption across the payload is caught by the per-section
    // CRC before any content is interpreted.
    for (size_t offset = 20; offset < blob.size(); offset += 977) {
      std::string bad = blob;
      bad[offset] ^= 0x01;
      SnapshotStatus status;
      EXPECT_EQ(LoadFromString(bad, &status), nullptr) << "offset " << offset;
      EXPECT_FALSE(status.ok) << "offset " << offset;
    }
  }
}

TEST(SnapshotTest, RejectsUnknownAlgorithmAndMissingSections) {
  {
    SnapshotWriter w;
    w.BeginSection("engine");
    w.PutString("NoSuchMaintainer");
    w.PutString("NoSuchMaintainer");
    w.PutI32(2);
    w.PutU8(0);
    w.PutU8(0);
    w.PutI32(1);
    w.PutI64(0);
    w.PutDouble(0);
    w.EndSection();
    std::ostringstream out;
    ASSERT_TRUE(w.WriteTo(out).ok);
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
    EXPECT_NE(status.message.find("unknown algorithm"), std::string::npos)
        << status.message;
  }
  {
    // A valid engine section but no graph section.
    SnapshotWriter w;
    w.BeginSection("engine");
    w.PutString("DyTwoSwap");
    w.PutString("DyTwoSwap");
    w.PutI32(2);
    w.PutU8(0);
    w.PutU8(0);
    w.PutI32(1);
    w.PutI64(0);
    w.PutDouble(0);
    w.EndSection();
    std::ostringstream out;
    ASSERT_TRUE(w.WriteTo(out).ok);
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
    EXPECT_NE(status.message.find("missing section"), std::string::npos)
        << status.message;
  }
}

// A hand-built snapshot of the graph 0 - 1 whose "mis" section uses the
// former eager encoding (lazy byte 0): status/count followed by the
// intrusive I(v)/bar1 (and, for k = 2, bar2) list arrays, filled in as the
// eager maintainer laid them out for this graph.
std::string EagerMisSnapshot(const std::vector<uint8_t>& status,
                             const std::vector<int32_t>& count,
                             const std::string& algorithm = "DyTwoSwap") {
  const int k = algorithm == "DyOneSwap" ? 1 : 2;
  SnapshotWriter w;
  w.BeginSection("engine");
  w.PutString(algorithm);
  w.PutString(algorithm);
  w.PutI32(2);
  w.PutU8(0);
  w.PutU8(0);
  w.PutI32(1);
  w.PutI64(0);
  w.PutDouble(0);
  w.EndSection();
  w.BeginSection("graph");
  w.PutI64(2);                    // num_vertices
  w.PutI64(1);                    // num_edges
  w.PutI32(2);                    // vertex capacity
  w.PutI32(1);                    // edge capacity
  w.PutI32Array({0, 0});          // heads
  w.PutI32Array({1, 1});          // degrees
  w.PutI32Array({0, 1, -1, -1});  // edge (0, 1), end of both chains
  w.PutI32Array({-1, -1});        // edge_prev
  w.PutI32Array({});              // free vertices
  w.PutI32Array({});              // free edges
  w.EndSection();
  // Edge 0 sits in I(v) of a 1-tight v and in bar1 of its owner.
  std::vector<int32_t> inb_head(2, -1), bar1_head(2, -1), bar1_size(2, 0),
      bar1_edge(2, -1);
  for (int v = 0; v < 2; ++v) {
    if (status[v] == 0 && count[v] == 1) {
      inb_head[v] = 0;
      bar1_edge[v] = 0;
      bar1_head[1 - v] = 0;
      bar1_size[1 - v] = 1;
    }
  }
  int64_t size = 0;
  for (uint8_t s : status) size += s;
  w.BeginSection("mis");
  w.PutI32(k);
  w.PutU8(0);      // eager
  w.PutI64(size);  // |I|
  w.PutU8Array(status);
  w.PutI32Array(count);
  w.PutI32Array(inb_head);
  w.PutI32Array(bar1_head);
  w.PutI32Array(bar1_size);
  w.PutI32Array(bar1_edge);
  w.PutI32Array({-1, -1, -1, -1});  // inb_links
  w.PutI32Array({-1, -1, -1, -1});  // bar1_links
  if (k == 2) {
    w.PutI32Array({-1, -1});          // bar2_head
    w.PutI32Array({-1, -1});          // bar2_edge0
    w.PutI32Array({-1, -1});          // bar2_edge1
    w.PutI32Array({-1, -1, -1, -1});  // bar2_links
  }
  w.EndSection();
  std::ostringstream out;
  EXPECT_TRUE(w.WriteTo(out).ok);
  return std::move(out).str();
}

TEST(SnapshotTest, LoadsLegacyEagerMaintainerState) {
  // The list arrays are read past; status/count validation accepts the
  // state and the load rebuilds the owner sums without a MoveIn/MoveOut.
  for (const std::string algorithm : {"DyOneSwap", "DyTwoSwap"}) {
    const std::string blob = EagerMisSnapshot({1, 0}, {0, 1}, algorithm);
    SnapshotStatus status;
    auto loaded = LoadFromString(blob, &status);
    ASSERT_NE(loaded, nullptr) << algorithm << ": " << status.message;
    EXPECT_EQ(SortedSolution(*loaded), (std::vector<VertexId>{0}));
    EXPECT_EQ(StateTransitionOps(loaded->maintainer()), 0) << algorithm;
    CheckCoreConsistency(loaded->maintainer());
    // The rebuilt sums drive the next update: deleting the edge frees 1.
    loaded->DeleteEdge(0, 1);
    EXPECT_EQ(SortedSolution(*loaded), (std::vector<VertexId>{0, 1}));
    CheckCoreConsistency(loaded->maintainer());
  }
}

TEST(SnapshotTest, RejectsSemanticallyCorruptMaintainerState) {
  // A CRC-valid snapshot whose graph is fine but whose "mis" section marks
  // both endpoints of an edge as solution members: LoadSnapshot must reject
  // it during MisState validation, not abort (or loop) in a later update.
  SnapshotStatus status;
  EXPECT_EQ(LoadFromString(EagerMisSnapshot({1, 1}, {0, 0}), &status),
            nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("independent"), std::string::npos)
      << status.message;
}

TEST(SnapshotTest, RejectsNonMaximalMaintainerState) {
  // Same valid 2-vertex graph, but an all-empty solution: no maintainer
  // ever saves a non-maximal state, and a restored engine would never
  // repair it (updates only react to changes), so load must reject it.
  SnapshotStatus status;
  EXPECT_EQ(LoadFromString(EagerMisSnapshot({0, 0}, {0, 0}), &status),
            nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("maximal"), std::string::npos)
      << status.message;
}

TEST(SnapshotTest, RejectsStructurallyInvalidGraphSections) {
  // A CRC-valid snapshot whose graph arrays are internally inconsistent
  // (here: a degree sum that cannot match the edge count) must fail the
  // structural validation, not crash.
  SnapshotWriter w;
  w.BeginSection("engine");
  w.PutString("DyTwoSwap");
  w.PutString("DyTwoSwap");
  w.PutI32(2);
  w.PutU8(0);
  w.PutU8(0);
  w.PutI32(1);
  w.PutI64(0);
  w.PutDouble(0);
  w.EndSection();
  w.BeginSection("graph");
  w.PutI64(2);                          // num_vertices
  w.PutI64(1);                          // num_edges
  w.PutI32(2);                          // vertex capacity
  w.PutI32(1);                          // edge capacity
  w.PutI32Array({0, 0});                // heads: both claim edge 0
  w.PutI32Array({5, 5});                // degrees: impossible sum
  w.PutI32Array({0, 1, -1, -1});        // one edge (0, 1), no next links
  w.PutI32Array({-1, -1});              // edge_prev
  w.PutI32Array({});                    // free vertices
  w.PutI32Array({});                    // free edges
  w.EndSection();
  std::ostringstream out;
  ASSERT_TRUE(w.WriteTo(out).ok);
  SnapshotStatus status;
  EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("graph"), std::string::npos)
      << status.message;
}

// The SNAPSHOT verb publishes through io::WriteFileAtomic (tmp + fsync +
// rename). A crash between the tmp write and its rename — scripted here
// with faultfs's `torn` mode — must leave the previously published
// snapshot byte-identical and only the stale .tmp behind, never a
// half-written file under the published name.
TEST(AtomicPublishDeathTest, TornRenameLeavesPublishedSnapshotIntact) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir() + "/snap_torn_publish";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.snap";
  std::string error;
  ASSERT_TRUE(io::WriteFileAtomic(path, "generation-1", &error)) << error;
  EXPECT_EXIT(
      {
        std::string plan_error;
        if (!faultfs::ArmPlan("rename:torn~state.snap", &plan_error)) {
          _exit(3);
        }
        io::WriteFileAtomic(path, "generation-2", &plan_error);
        _exit(4);  // Unreachable: torn kills the process pre-rename.
      },
      ::testing::ExitedWithCode(faultfs::kCrashExitCode), "");
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), "generation-1");
  // The in-flight generation is parked under .tmp, invisible to readers.
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace dynmis
