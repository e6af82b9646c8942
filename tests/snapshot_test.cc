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
#include "tests/snapshot_sections.h"
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
  UpdateStreamGenerator gen(ChurnOptions(seed), base);
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

// The "engine" section of a hand-built DyTwoSwap snapshot.
void PutEngineSection(SnapshotWriter* w) {
  w->BeginSection("engine");
  w->PutString("DyTwoSwap");
  w->PutString("DyTwoSwap");
  w->PutI32(2);     // k
  w->PutU8(0);      // perturb
  w->PutI32(1);     // recompute_every
  w->PutI64(0);     // updates applied
  w->PutDouble(0);  // retired slot
  w->EndSection();
}

TEST(SnapshotTest, RejectsUnknownAlgorithmAndMissingSections) {
  {
    SnapshotWriter w;
    w.BeginSection("engine");
    w.PutString("NoSuchMaintainer");
    w.PutString("NoSuchMaintainer");
    w.PutI32(2);
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
    PutEngineSection(&w);
    std::ostringstream out;
    ASSERT_TRUE(w.WriteTo(out).ok);
    SnapshotStatus status;
    EXPECT_EQ(LoadFromString(std::move(out).str(), &status), nullptr);
    EXPECT_NE(status.message.find("missing section"), std::string::npos)
        << status.message;
  }
}

TEST(SnapshotTest, RetiredEngineSlotIsWrittenAsZeroAndIgnoredOnLoad) {
  // The engine section's last 8 bytes held the lifetime update seconds in
  // earlier builds. A save writes 0.0 there and a load discards the value,
  // so files load across builds without a format bump.
  auto engine = MakeChurnedEngine("DyTwoSwap", /*seed=*/11, /*updates=*/300);
  ASSERT_NE(engine, nullptr);
  const std::string blob = SaveToString(*engine);
  const std::string section = testing_util::SectionPayload(blob, "engine");
  ASSERT_GE(section.size(), 8u);
  const size_t slot = section.size() - 8;
  EXPECT_EQ(section.substr(slot), std::string(8, '\0'));

  // A nonzero slot, as an earlier build writes it, loads the same engine;
  // saved again, it is the original file byte for byte, graph included.
  std::string timed = section;
  testing_util::SetDoubleAt(&timed, slot, 12.75);
  SnapshotStatus status;
  auto loaded = LoadFromString(
      testing_util::WithSectionPayload(blob, "engine", timed), &status);
  ASSERT_NE(loaded, nullptr) << status.message;
  EXPECT_EQ(SortedSolution(*loaded), SortedSolution(*engine));
  EXPECT_EQ(loaded->Stats().updates_applied, engine->Stats().updates_applied);
  EXPECT_EQ(SaveToString(*loaded), blob);

  // One byte past the slot is still rejected.
  const std::string extended =
      testing_util::WithSectionPayload(blob, "engine", section + '\0');
  EXPECT_EQ(LoadFromString(extended, &status), nullptr);
  EXPECT_NE(status.message.find("engine: trailing bytes"), std::string::npos)
      << status.message;
}

TEST(SnapshotTest, VersionOneFilesAreRejectedByEveryLoader) {
  // A file whose header says version 1 fails in the container reader,
  // before any section is read, whichever loader reads it.
  auto engine = MakeChurnedEngine("DyTwoSwap", /*seed=*/5, /*updates=*/50);
  ASSERT_NE(engine, nullptr);
  std::string blob = SaveToString(*engine);
  blob[8] = 0x01;  // The version field, bytes 8..11, little-endian.
  const std::string want =
      "snapshot: unsupported version 1 (this build reads version 2)";
  SnapshotStatus status;
  EXPECT_EQ(LoadFromString(blob, &status), nullptr);
  EXPECT_EQ(status.message, want);
  {
    std::istringstream in(blob);
    EXPECT_EQ(ShardedMisEngine::LoadSnapshot(in, &status), nullptr);
    EXPECT_EQ(status.message, want);
  }
  {
    std::istringstream in(blob);
    std::string error;
    EXPECT_EQ(serve::RestoreServingBackend(in, &error), nullptr);
    EXPECT_EQ(error, "restore failed: " + want);
  }
}

// The fields of a "graph" section (see DynamicGraph::SaveTo).
struct GraphFields {
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  std::vector<int32_t> degrees;
  std::vector<int32_t> neighbours;
  std::vector<int32_t> free_vertices;
  bool trailing_byte = false;
};

// A hand-built DyTwoSwap snapshot of `graph` whose "mis" section holds
// `status`.
std::string HandBuiltSnapshot(const GraphFields& graph,
                              const std::vector<uint8_t>& status) {
  SnapshotWriter w;
  PutEngineSection(&w);
  w.BeginSection("graph");
  w.PutI64(graph.num_vertices);
  w.PutI64(graph.num_edges);
  w.PutI32Array(graph.degrees);
  w.PutI32Array(graph.neighbours);
  w.PutI32Array(graph.free_vertices);
  if (graph.trailing_byte) w.PutU8(0);
  w.EndSection();
  int64_t size = 0;
  for (const uint8_t s : status) size += s;
  w.BeginSection("mis");
  w.PutI32(2);     // k
  w.PutI64(size);  // |I|
  w.PutU8Array(status);
  w.EndSection();
  std::ostringstream out;
  EXPECT_TRUE(w.WriteTo(out).ok);
  return std::move(out).str();
}

// The graph 0 - 1.
GraphFields OneEdge() { return {2, 1, {1, 1}, {1, 0}, {}}; }

TEST(SnapshotTest, HandBuiltStateLoadsAndDrivesUpdates) {
  // The counts and owner sums are derived on load, without a MoveIn or
  // MoveOut, and drive the next update: deleting the edge frees 1.
  SnapshotStatus status;
  auto loaded = LoadFromString(HandBuiltSnapshot(OneEdge(), {1, 0}), &status);
  ASSERT_NE(loaded, nullptr) << status.message;
  EXPECT_EQ(SortedSolution(*loaded), (std::vector<VertexId>{0}));
  EXPECT_EQ(StateTransitionOps(loaded->maintainer()), 0);
  CheckCoreConsistency(loaded->maintainer());
  loaded->DeleteEdge(0, 1);
  EXPECT_EQ(SortedSolution(*loaded), (std::vector<VertexId>{0, 1}));
  CheckCoreConsistency(loaded->maintainer());
}

TEST(SnapshotTest, RejectsSemanticallyCorruptMaintainerState) {
  // A CRC-valid snapshot whose graph is fine but whose "mis" section marks
  // both endpoints of an edge as solution members: LoadSnapshot must reject
  // it during MisState validation, not abort (or loop) in a later update.
  SnapshotStatus status;
  EXPECT_EQ(LoadFromString(HandBuiltSnapshot(OneEdge(), {1, 1}), &status),
            nullptr);
  EXPECT_EQ(status.message, "snapshot: mis: solution is not independent");
}

TEST(SnapshotTest, RejectsNonMaximalMaintainerState) {
  // Same valid 2-vertex graph, but an all-empty solution: no maintainer
  // ever saves a non-maximal state, and a restored engine would never
  // repair it (updates only react to changes), so load must reject it.
  SnapshotStatus status;
  EXPECT_EQ(LoadFromString(HandBuiltSnapshot(OneEdge(), {0, 0}), &status),
            nullptr);
  EXPECT_EQ(status.message, "snapshot: mis: solution is not maximal");
}

TEST(SnapshotTest, RejectsDeadVertexMarkedInSolution) {
  // 0 - 1 with vertex 2 dead: a "mis" section that marks vertex 2 must be
  // rejected by its status scan, with a size that matches the marks.
  const GraphFields graph = {2, 1, {1, 1, -1}, {1, 0}, {2}};
  SnapshotStatus status;
  ASSERT_NE(LoadFromString(HandBuiltSnapshot(graph, {1, 0, 0}), &status),
            nullptr)
      << status.message;
  EXPECT_EQ(LoadFromString(HandBuiltSnapshot(graph, {1, 0, 1}), &status),
            nullptr);
  EXPECT_EQ(status.message, "snapshot: mis: dead vertex marked in solution");
}

// The bytewise CRC-32 that Crc32's eight-byte steps must reproduce.
uint32_t BytewiseCrc32(const unsigned char* data, size_t size,
                       uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(SnapshotTest, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);  // The standard check.
  Rng rng(4321);
  std::vector<unsigned char> buffer(1024 + 8);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextU64());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 1024; ++size) {
      const unsigned char* data = buffer.data() + offset;
      const uint32_t expected = BytewiseCrc32(data, size, 0);
      ASSERT_EQ(Crc32(data, size), expected) << offset << " " << size;
      // Chained through `seed` from any split point.
      const size_t split = rng.NextBounded(size + 1);
      ASSERT_EQ(Crc32(data + split, size - split, Crc32(data, split)),
                expected)
          << offset << " " << size << " " << split;
    }
  }
}

TEST(SnapshotTest, RejectsStructurallyInvalidGraphSections) {
  // One CRC-valid graph section per validation rule, each a small edit of
  // the path 0 - 1 - 2 with dead vertices 3 and 4, must fail with that
  // rule's message.
  const GraphFields path = {3, 2, {1, 2, 1, -1, -1}, {1, 0, 2, 1}, {4, 3}};
  const std::vector<uint8_t> solution = {1, 0, 1, 0, 0};
  SnapshotStatus status;
  ASSERT_NE(LoadFromString(HandBuiltSnapshot(path, solution), &status),
            nullptr)
      << status.message;
  GraphFields g = path;
  // Loads `g`, expects `message`, and resets `g` for the next case.
  auto rejects = [&](const std::string& message) {
    EXPECT_EQ(LoadFromString(HandBuiltSnapshot(g, solution), &status),
              nullptr)
        << message;
    EXPECT_EQ(status.message, "snapshot: graph: " + message);
    g = path;
  };
  g.degrees[4] = -2;
  rejects("vertex degree below -1");
  g.degrees[0] = 1 << 26;
  rejects("vertex degree above the limit");
  g.num_vertices = 4;
  rejects("alive-vertex count mismatch");
  g.num_edges = 3;
  rejects("degree sum does not equal 2m");
  g.num_edges = -2;
  rejects("degree sum does not equal 2m");
  g.neighbours.push_back(0);
  rejects("neighbour list length does not match the degrees");
  g.neighbours[0] = 5;
  rejects("neighbour id out of range");
  g.neighbours[0] = -1;
  rejects("neighbour id out of range");
  g.neighbours[0] = 3;
  rejects("neighbour is a dead vertex");
  g.neighbours[0] = 0;
  rejects("self loop");
  // 0 lists 2 and 1 lists 0, but neither is listed back.
  g.neighbours[0] = 2;
  rejects("asymmetric adjacency");
  // 1 lists only 2, so 0's edge to 1 finds no partner at 1.
  g.degrees = {1, 1, 2, -1, -1};
  g.neighbours = {1, 2, 1, 0};
  rejects("asymmetric adjacency");
  // 1 and 2 list 0, which lists no one.
  g.num_edges = 1;
  g.degrees = {0, 1, 1, -1, -1};
  g.neighbours = {0, 0};
  rejects("asymmetric adjacency");
  // Two copies of 0 - 1: the lower endpoint 0 lists 1 twice.
  g.degrees = {2, 2, 0, -1, -1};
  g.neighbours = {1, 1, 0, 0};
  rejects("parallel edge");
  // 0 lists 1 once, but the higher endpoint 1 lists 0 twice.
  g.neighbours = {1, 0, 0, 1};
  rejects("parallel edge");
  g.free_vertices = {4};
  rejects("free-vertex list size mismatch");
  g.free_vertices = {4, 1};
  rejects("free-vertex list names a vertex that is not dead");
  g.free_vertices = {4, 5};
  rejects("free-vertex list names a vertex that is not dead");
  g.free_vertices = {3, 3};
  rejects("free-vertex list repeats an id");
  g.trailing_byte = true;
  rejects("trailing bytes after the last field");
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
