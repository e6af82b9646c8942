// Workload-subsystem tests: the external-key map (bind/release semantics,
// allocation-free steady state via stable buffer capacity, byte-identical
// deterministic persistence), the timing wheel (exact TTL expiry timing,
// FastForward rules), the pre-drawn temporal sequences (determinism, valid
// replay, deletion-storm shape) and the streaming edge-list ingester, the
// library's one edge-list loader (header pre-sizing, SNAP format,
// dedup/self-loop drops, id compaction, malformed input rejection, empty
// files, deterministic generation, `.gz` decoding).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/edge_list.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/ingest/ingest.h"
#include "src/ingest/key_map.h"
#include "src/ingest/temporal.h"
#include "src/io/snapshot.h"
#include "src/util/random.h"

namespace dynmis {
namespace {

// --- KeyMap -----------------------------------------------------------------

TEST(KeyMapTest, BindLookupReleaseRebind) {
  ingest::KeyMap map;
  EXPECT_TRUE(map.Bind("alice", 3));
  EXPECT_EQ(map.Lookup("alice"), 3);
  EXPECT_EQ(map.KeyOf(3), "alice");
  EXPECT_EQ(map.Size(), 1u);

  // Duplicate key and duplicate id both refuse without side effects.
  EXPECT_FALSE(map.Bind("alice", 4));
  EXPECT_FALSE(map.Bind("bob", 3));
  EXPECT_EQ(map.Lookup("alice"), 3);
  EXPECT_EQ(map.Size(), 1u);

  // Empty keys are invalid; unknown keys miss.
  EXPECT_FALSE(map.Bind("", 5));
  EXPECT_EQ(map.Lookup("bob"), kInvalidVertex);
  EXPECT_EQ(map.Release("bob"), kInvalidVertex);

  EXPECT_EQ(map.Release("alice"), 3);
  EXPECT_EQ(map.Lookup("alice"), kInvalidVertex);
  EXPECT_TRUE(map.KeyOf(3).empty());
  EXPECT_EQ(map.Size(), 0u);

  // Both the key and the id are free again after release.
  EXPECT_TRUE(map.Bind("alice", 7));
  EXPECT_TRUE(map.Bind("bob", 3));
  EXPECT_EQ(map.Lookup("alice"), 7);
  EXPECT_EQ(map.Lookup("bob"), 3);
}

TEST(KeyMapTest, ReleaseId) {
  ingest::KeyMap map;
  ASSERT_TRUE(map.Bind("sku-9", 42));
  EXPECT_TRUE(map.ReleaseId(42));
  EXPECT_EQ(map.Lookup("sku-9"), kInvalidVertex);
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_FALSE(map.ReleaseId(42));
  EXPECT_FALSE(map.ReleaseId(12345));  // Never-bound id.
}

TEST(KeyMapTest, ChurnStaysConsistentAcrossRebuilds) {
  ingest::KeyMap map;
  // Bind/release far more keys than any initial capacity so tombstone and
  // dead-arena pressure force several rebuilds, then verify every surviving
  // binding.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 500; ++i) {
      const std::string key =
          "k" + std::to_string(round) + "-" + std::to_string(i);
      ASSERT_TRUE(map.Bind(key, round * 500 + i));
    }
    for (int i = 0; i < 500; i += 2) {
      const std::string key =
          "k" + std::to_string(round) + "-" + std::to_string(i);
      ASSERT_EQ(map.Release(key), round * 500 + i);
    }
  }
  EXPECT_EQ(map.Size(), 8u * 250u);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 500; ++i) {
      const std::string key =
          "k" + std::to_string(round) + "-" + std::to_string(i);
      const VertexId want = i % 2 == 0 ? kInvalidVertex : round * 500 + i;
      EXPECT_EQ(map.Lookup(key), want) << key;
    }
  }
}

TEST(KeyMapTest, SteadyStateChurnKeepsCapacityStable) {
  ingest::KeyMap map;
  map.Reserve(1024);
  // Warm up: fill to the working-set size, then churn one full working set
  // so both the live and the spare buffers have seen their peak.
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(map.Bind("warm" + std::to_string(i), i));
  }
  for (int i = 0; i < 4096; ++i) {
    const std::string key = "warm" + std::to_string(i % 512);
    ASSERT_EQ(map.Release(key), i % 512);
    ASSERT_TRUE(map.Bind(key, i % 512));
  }
  // Steady state: the same churn must not grow the buffers — Rebuild swaps
  // warm spares instead of allocating (the testable face of the
  // allocation-free constraint).
  const size_t warm_bytes = map.MemoryUsageBytes();
  for (int i = 0; i < 20000; ++i) {
    const std::string key = "warm" + std::to_string(i % 512);
    ASSERT_EQ(map.Release(key), i % 512);
    ASSERT_TRUE(map.Bind(key, i % 512));
  }
  EXPECT_EQ(map.MemoryUsageBytes(), warm_bytes);
  EXPECT_EQ(map.Size(), 512u);
}

std::string Serialize(const ingest::KeyMap& map) {
  SnapshotWriter writer;
  map.SaveTo(&writer);
  std::ostringstream out;
  EXPECT_TRUE(writer.WriteTo(out).ok);
  return out.str();
}

TEST(KeyMapTest, SaveLoadRoundTrip) {
  ingest::KeyMap map;
  ASSERT_TRUE(map.Bind("alice", 0));
  ASSERT_TRUE(map.Bind("bob", 5));
  ASSERT_TRUE(map.Bind("carol", 2));
  ASSERT_EQ(map.Release("bob"), 5);

  const std::string bytes = Serialize(map);
  std::istringstream in(bytes);
  SnapshotReader reader;
  ASSERT_TRUE(reader.ReadFrom(in).ok);
  ASSERT_TRUE(reader.HasSection("keymap"));

  ingest::KeyMap loaded;
  ASSERT_TRUE(loaded.LoadFrom(&reader));
  EXPECT_EQ(loaded.Size(), 2u);
  EXPECT_EQ(loaded.Lookup("alice"), 0);
  EXPECT_EQ(loaded.Lookup("carol"), 2);
  EXPECT_EQ(loaded.Lookup("bob"), kInvalidVertex);
  EXPECT_EQ(loaded.KeyOf(2), "carol");
}

TEST(KeyMapTest, SerializationIsHistoryIndependent) {
  // Two maps that arrive at the same bindings through different insertion
  // orders and intermediate churn must serialize byte-identically — this is
  // what lets a follower's keymap section be compared against the
  // primary's. SaveTo guarantees it by emitting in ascending id order.
  ingest::KeyMap a;
  ASSERT_TRUE(a.Bind("alice", 0));
  ASSERT_TRUE(a.Bind("bob", 1));
  ASSERT_TRUE(a.Bind("carol", 2));

  ingest::KeyMap b;
  ASSERT_TRUE(b.Bind("carol", 2));
  ASSERT_TRUE(b.Bind("stale", 0));
  ASSERT_TRUE(b.Bind("bob", 1));
  ASSERT_EQ(b.Release("stale"), 0);
  ASSERT_TRUE(b.Bind("alice", 0));

  EXPECT_EQ(Serialize(a), Serialize(b));

  // A round-tripped map also re-serializes identically.
  std::istringstream in(Serialize(a));
  SnapshotReader reader;
  ASSERT_TRUE(reader.ReadFrom(in).ok);
  ingest::KeyMap loaded;
  ASSERT_TRUE(loaded.LoadFrom(&reader));
  EXPECT_EQ(Serialize(loaded), Serialize(a));
}

TEST(KeyMapTest, LoadFromRejectsTruncatedSection) {
  // A keymap section declaring more entries than it carries must fail the
  // load, not fabricate bindings.
  SnapshotWriter writer;
  writer.BeginSection("keymap");
  writer.PutU64(3);
  writer.PutString("only-one");
  writer.PutU32(0);
  writer.EndSection();
  std::ostringstream out;
  ASSERT_TRUE(writer.WriteTo(out).ok);

  std::istringstream in(out.str());
  SnapshotReader reader;
  ASSERT_TRUE(reader.ReadFrom(in).ok);
  ingest::KeyMap map;
  EXPECT_FALSE(map.LoadFrom(&reader));
  EXPECT_FALSE(reader.ok());
}

// --- TimingWheel ------------------------------------------------------------

TEST(TimingWheelTest, ExpiresExactlyOneTtlAfterSchedule) {
  ingest::TimingWheel wheel(4);
  EXPECT_EQ(wheel.ttl_ticks(), 4u);
  wheel.Schedule(1, 2);
  EXPECT_EQ(wheel.scheduled(), 1u);

  std::vector<std::pair<VertexId, VertexId>> out;
  for (int tick = 1; tick <= 3; ++tick) {
    wheel.Advance(&out);
    EXPECT_TRUE(out.empty()) << "expired early at tick " << tick;
  }
  wheel.Advance(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], std::make_pair(VertexId{1}, VertexId{2}));
  EXPECT_EQ(wheel.scheduled(), 0u);
  EXPECT_EQ(wheel.now(), 4u);
}

TEST(TimingWheelTest, DrainsEachSlotAtItsOwnTickAndAppends) {
  ingest::TimingWheel wheel(3);
  std::vector<std::pair<VertexId, VertexId>> out;
  wheel.Schedule(0, 1);  // Expires at tick 3.
  wheel.Advance(&out);   // now = 1.
  wheel.Schedule(2, 3);  // Expires at tick 4.
  wheel.Schedule(4, 5);  // Expires at tick 4.
  EXPECT_EQ(wheel.scheduled(), 3u);

  wheel.Advance(&out);  // now = 2.
  EXPECT_TRUE(out.empty());
  wheel.Advance(&out);  // now = 3: first edge.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], std::make_pair(VertexId{0}, VertexId{1}));

  // Advance appends without clearing: the earlier drain stays in place.
  wheel.Advance(&out);  // now = 4: the other two edges.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], std::make_pair(VertexId{2}, VertexId{3}));
  EXPECT_EQ(out[2], std::make_pair(VertexId{4}, VertexId{5}));
  EXPECT_EQ(wheel.scheduled(), 0u);
}

TEST(TimingWheelTest, SlotReuseAfterWrapAround) {
  ingest::TimingWheel wheel(2);
  std::vector<std::pair<VertexId, VertexId>> out;
  // Several full revolutions of the wheel: every edge must come out exactly
  // one TTL after it went in, never early from a stale slot.
  for (VertexId i = 0; i < 10; ++i) {
    wheel.Schedule(i, i + 100);
    out.clear();
    wheel.Advance(&out);
    if (i == 0) {
      EXPECT_TRUE(out.empty());
    } else {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].first, i - 1);
    }
  }
}

TEST(TimingWheelTest, FastForwardSkipsIdleStretches) {
  ingest::TimingWheel wheel(8);
  wheel.FastForward(100);
  EXPECT_EQ(wheel.now(), 100u);
  wheel.FastForward(50);  // Not ahead of now: no-op.
  EXPECT_EQ(wheel.now(), 100u);
  wheel.FastForward(100);  // Equal is not ahead either.
  EXPECT_EQ(wheel.now(), 100u);

  // Scheduling after the jump still expires exactly one TTL later.
  wheel.Schedule(7, 8);
  std::vector<std::pair<VertexId, VertexId>> out;
  for (int i = 0; i < 7; ++i) wheel.Advance(&out);
  EXPECT_TRUE(out.empty());
  wheel.Advance(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(wheel.now(), 108u);
}

// --- Temporal sequences -----------------------------------------------------

EdgeListGraph SmallBase() {
  Rng rng(91);
  return ChungLuPowerLaw(400, 2.3, 6.0, &rng);
}

bool SameUpdate(const GraphUpdate& a, const GraphUpdate& b) {
  return a.kind == b.kind && a.u == b.u && a.v == b.v &&
         a.neighbors == b.neighbors && a.key == b.key;
}

TEST(TemporalSequenceTest, DeterministicForFixedOptions) {
  const EdgeListGraph base = SmallBase();
  ingest::TemporalStreamOptions options;
  options.ttl_ticks = 64;
  options.inserts_per_tick = 2;
  options.seed = 17;

  ingest::TemporalStats stats_a;
  ingest::TemporalStats stats_b;
  const std::vector<GraphUpdate> a =
      ingest::MakeTemporalSequence(base, 2000, options, &stats_a);
  const std::vector<GraphUpdate> b =
      ingest::MakeTemporalSequence(base, 2000, options, &stats_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameUpdate(a[i], b[i])) << "diverged at update " << i;
  }
  EXPECT_EQ(stats_a.inserts, stats_b.inserts);
  EXPECT_EQ(stats_a.expiries, stats_b.expiries);
  EXPECT_EQ(stats_a.window_peak_edges, stats_b.window_peak_edges);

  // A different seed draws a different stream.
  options.seed = 18;
  const std::vector<GraphUpdate> c =
      ingest::MakeTemporalSequence(base, 2000, options, nullptr);
  bool any_diff = false;
  for (size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (!SameUpdate(a[i], c[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TemporalSequenceTest, ReplaysCleanlyAndDeletesOnlyExpiredInserts) {
  const EdgeListGraph base = SmallBase();
  ingest::TemporalStreamOptions options;
  options.ttl_ticks = 32;
  options.inserts_per_tick = 1;
  options.seed = 23;

  ingest::TemporalStats stats;
  const std::vector<GraphUpdate> updates =
      ingest::MakeTemporalSequence(base, 3000, options, &stats);
  EXPECT_EQ(stats.ttl_ticks, 32u);
  EXPECT_EQ(stats.inserts + stats.expiries,
            static_cast<int64_t>(updates.size()));
  EXPECT_GT(stats.expiries, 0);
  EXPECT_GT(stats.window_peak_edges, 0u);
  EXPECT_NEAR(stats.deletion_share,
              static_cast<double>(stats.expiries) /
                  static_cast<double>(updates.size()),
              1e-9);

  // Replay: every insert adds a new edge, every deletion removes an edge
  // inserted by this stream (never a base edge), and with a steady one
  // insert per tick the window converges to ~ttl edges.
  DynamicGraph replay = base.ToDynamic();
  int64_t inserts = 0;
  int64_t expiries = 0;
  std::vector<std::pair<VertexId, VertexId>> window;
  for (const GraphUpdate& update : updates) {
    if (update.kind == UpdateKind::kInsertEdge) {
      ASSERT_FALSE(replay.HasEdge(update.u, update.v));
      window.emplace_back(update.u, update.v);
      ++inserts;
    } else {
      ASSERT_EQ(update.kind, UpdateKind::kDeleteEdge);
      ASSERT_TRUE(replay.HasEdge(update.u, update.v));
      const std::pair<VertexId, VertexId> edge(update.u, update.v);
      const auto it = std::find(window.begin(), window.end(), edge);
      ASSERT_TRUE(it != window.end())
          << "expiry of an edge this stream never inserted";
      window.erase(it);
      ++expiries;
    }
    ApplyUpdate(&replay, update);
  }
  EXPECT_EQ(inserts, stats.inserts);
  EXPECT_EQ(expiries, stats.expiries);
  EXPECT_LE(window.size(), static_cast<size_t>(options.ttl_ticks));
}

TEST(TemporalSequenceTest, StormExpiresWholeBurstsAtOnce) {
  const EdgeListGraph base = SmallBase();
  ingest::TemporalStreamOptions options;
  options.storm = true;
  options.ttl_ticks = 64;
  options.storm_burst = 32;
  options.storm_period = 16;
  options.seed = 29;

  ingest::TemporalStats stats;
  const std::vector<GraphUpdate> updates =
      ingest::MakeTemporalSequence(base, 1500, options, &stats);
  EXPECT_GT(stats.expiries, 0);
  // The adversarial point of the mode: a whole insert burst lands on one
  // expiry tick, so the peak single-tick deletion batch is the burst size.
  EXPECT_EQ(stats.expiry_backlog_peak, static_cast<size_t>(32));

  // Deletions arrive as contiguous runs of exactly the burst size (the
  // final run may be cut off by the update budget).
  size_t run = 0;
  std::vector<size_t> runs;
  for (const GraphUpdate& update : updates) {
    if (update.kind == UpdateKind::kDeleteEdge) {
      ++run;
    } else if (run > 0) {
      runs.push_back(run);
      run = 0;
    }
  }
  if (run > 0) runs.push_back(run);
  ASSERT_FALSE(runs.empty());
  for (size_t i = 0; i + 1 < runs.size(); ++i) {
    EXPECT_EQ(runs[i], static_cast<size_t>(32));
  }
}

// --- Ingester ---------------------------------------------------------------

class IngestFileTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "ingest_test_" + name;
  }

  void WriteFile(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << contents;
    ASSERT_TRUE(out.good());
  }

  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::vector<std::string> cleanup_;
};

TEST_F(IngestFileTest, ParsesDedupsAndCompacts) {
  const std::string path = TempPath("small.txt");
  cleanup_.push_back(path);
  // Sparse ids (10/20/30/40), a duplicate in each orientation, a self-loop,
  // comments and blank lines, and a size header before the first edge.
  WriteFile(path,
            "# Nodes: 4 Edges: 3\n"
            "# comment line\n"
            "\n"
            "10 20\n"
            "20 30\n"
            "30 20\n"  // Duplicate of 20-30, other orientation.
            "10 20\n"  // Duplicate, same orientation.
            "30 30\n"  // Self-loop.
            "30 40 # trailing comment\n");

  EdgeListGraph graph;
  ingest::IngestReport report;
  std::string error;
  ASSERT_TRUE(ingest::IngestEdgeList(path, &graph, &report, &error)) << error;

  EXPECT_EQ(report.vertices, 4);
  EXPECT_EQ(report.edges, 3);
  EXPECT_EQ(report.lines, 6);
  EXPECT_EQ(report.dropped_self_loops, 1);
  EXPECT_EQ(report.dropped_duplicates, 2);
  EXPECT_TRUE(report.header_reserved);
  EXPECT_FALSE(report.gzip);
  EXPECT_GT(report.graph_bytes, 0u);
  EXPECT_GT(report.bytes_per_edge, 0.0);
  EXPECT_GT(report.peak_rss_bytes, 0u);

  // Ids are compacted to 0..n-1 and the graph is simple.
  EXPECT_EQ(graph.n, 4);
  ASSERT_EQ(graph.NumEdges(), 3);
  for (const auto& [u, v] : graph.edges) {
    EXPECT_GE(u, 0);
    EXPECT_LT(u, 4);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 4);
    EXPECT_NE(u, v);
  }
}

TEST_F(IngestFileTest, RejectsMalformedTokensAndMissingFiles) {
  const std::string path = TempPath("bad.txt");
  cleanup_.push_back(path);
  WriteFile(path, "1 2\n3 oops\n");

  EdgeListGraph graph;
  std::string error;
  EXPECT_FALSE(ingest::IngestEdgeList(path, &graph, nullptr, &error));
  EXPECT_FALSE(error.empty());

  // An id past int64 is malformed, whether it would wrap negative or wrap
  // around to a positive id (here 1, which would make a self-loop).
  for (const char* bad : {"1 18446744073709551617", "1 99999999999999999999",
                          "1 9223372036854775808"}) {
    WriteFile(path, std::string("0 1\n") + bad + "\n");
    error.clear();
    EXPECT_FALSE(ingest::IngestEdgeList(path, &graph, nullptr, &error)) << bad;
    EXPECT_EQ(error, path + ":2: malformed edge line") << bad;
  }
  WriteFile(path, "1 9223372036854775807\n");
  ASSERT_TRUE(ingest::IngestEdgeList(path, &graph, nullptr, &error)) << error;
  EXPECT_EQ(graph.n, 2);
  EXPECT_EQ(graph.NumEdges(), 1);

  error.clear();
  EXPECT_FALSE(ingest::IngestEdgeList(TempPath("does_not_exist.txt"), &graph,
                                      nullptr, &error));
  EXPECT_FALSE(error.empty());
}

// A size header is trusted only as far as the file could hold it (an edge
// line takes at least 4 bytes, an id at least 2), and a `.gz` file's not at
// all, so a lying header cannot make the ingester allocate for it.
TEST_F(IngestFileTest, IgnoresAHeaderTheFileCannotHold) {
  const std::string path = TempPath("hostile.txt");
  cleanup_.push_back(path);
  EdgeListGraph graph;
  ingest::IngestReport report;
  std::string error;
  // With the short headers these files take 33 bytes, room for 16 ids and
  // 8 edge lines: a header at that limit counts, one past it does not.
  for (const auto& [header, trusted] :
       {std::pair{"# nodes: 1000000000000 edges: 1000000000000\n", false},
        std::pair{"# Nodes: 1000000000000 Edges: 1\n", false},
        std::pair{"# nodes: 3 edges: 1000000000000\n", false},
        std::pair{"# nodes: 16 edges: 8\n", true},
        std::pair{"# nodes: 17 edges: 8\n", false},
        std::pair{"# nodes: 16 edges: 9\n", false}}) {
    WriteFile(path, std::string(header) + "1 2\n3 4\n5 6\n");
    ASSERT_TRUE(ingest::IngestEdgeList(path, &graph, &report, &error))
        << header << error;
    EXPECT_EQ(report.header_reserved, trusted) << header;
    EXPECT_EQ(graph.NumEdges(), 3);
  }

  if (std::system("command -v gzip >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "gzip not available";
  }
  const std::string gz = path + ".gz";
  cleanup_.push_back(gz);
  for (const char* header : {"# nodes: 1000000000000 edges: 1000000000000\n",
                             "# nodes: 2 edges: 1\n"}) {
    WriteFile(path, std::string(header) + "1 2\n");
    ASSERT_EQ(std::system(("gzip -kf " + path).c_str()), 0);
    ASSERT_TRUE(ingest::IngestEdgeList(gz, &graph, &report, &error))
        << header << error;
    EXPECT_TRUE(report.gzip);
    EXPECT_FALSE(report.header_reserved) << header;
    EXPECT_EQ(graph.NumEdges(), 1);
  }
}

TEST_F(IngestFileTest, ParsesSnapFormat) {
  const std::string path = TempPath("snap.txt");
  cleanup_.push_back(path);
  WriteFile(path,
            "# Directed graph (each unordered pair of nodes is saved once)\n"
            "# Nodes: 4 Edges: 4\n"
            "10\t20\n"
            "20 10\n"   // Duplicate in the other orientation.
            "20\t30\n"
            "30\t30\n"  // Self loop: dropped.
            "40 10 # trailing comment\n");
  EdgeListGraph graph;
  std::string error;
  ASSERT_TRUE(ingest::IngestEdgeList(path, &graph, nullptr, &error)) << error;
  EXPECT_EQ(graph.n, 4);
  EXPECT_EQ(graph.NumEdges(), 3);
}

TEST_F(IngestFileTest, RejectsMalformedLinesAndLoadsAnEmptyFile) {
  const std::string path = TempPath("lines.txt");
  cleanup_.push_back(path);
  EdgeListGraph graph;
  std::string error;
  for (const char* bad : {"1 2 3\n", "1\n"}) {  // Three tokens, one token.
    WriteFile(path, bad);
    EXPECT_FALSE(ingest::IngestEdgeList(path, &graph, nullptr, &error)) << bad;
  }
  WriteFile(path, "");
  ASSERT_TRUE(ingest::IngestEdgeList(path, &graph, nullptr, &error)) << error;
  EXPECT_EQ(graph.n, 0);
  EXPECT_EQ(graph.NumEdges(), 0);
}

TEST_F(IngestFileTest, LoadsAWrittenGraph) {
  Rng rng(12);
  const EdgeListGraph g = ErdosRenyiGnm(30, 60, &rng);
  const std::string path = TempPath("round_trip.txt");
  cleanup_.push_back(path);
  std::string text = "# nodes: " + std::to_string(g.n) +
                     " edges: " + std::to_string(g.edges.size()) + "\n";
  for (const auto& [u, v] : g.edges) {
    text += std::to_string(u) + "\t" + std::to_string(v) + "\n";
  }
  WriteFile(path, text);
  EdgeListGraph loaded;
  std::string error;
  ASSERT_TRUE(ingest::IngestEdgeList(path, &loaded, nullptr, &error)) << error;
  EXPECT_EQ(loaded.n, g.n);
  EXPECT_EQ(loaded.NumEdges(), g.NumEdges());
}

TEST_F(IngestFileTest, GeneratorIsDeterministicAndIngestible) {
  const std::string a = TempPath("gen_a.txt");
  const std::string b = TempPath("gen_b.txt");
  cleanup_.push_back(a);
  cleanup_.push_back(b);

  std::string error;
  const int64_t edges_a =
      ingest::GeneratePowerLawEdgeFile(a, 2000, 8.0, 2.3, 11, &error);
  ASSERT_GT(edges_a, 0) << error;
  const int64_t edges_b =
      ingest::GeneratePowerLawEdgeFile(b, 2000, 8.0, 2.3, 11, &error);
  ASSERT_EQ(edges_a, edges_b);

  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  std::stringstream sa;
  std::stringstream sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str()) << "generator output is not deterministic";

  // The generated header pre-sizes the ingest, and the edge count matches
  // what the generator reported.
  EdgeListGraph graph;
  ingest::IngestReport report;
  ASSERT_TRUE(ingest::IngestEdgeList(a, &graph, &report, &error)) << error;
  EXPECT_TRUE(report.header_reserved);
  EXPECT_EQ(report.edges, edges_a);
  EXPECT_EQ(report.dropped_duplicates, 0);
  EXPECT_EQ(report.dropped_self_loops, 0);
  EXPECT_LE(graph.n, 2000);
}

TEST_F(IngestFileTest, DecodesGzipTransparently) {
  if (std::system("command -v gzip >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "gzip not available";
  }
  const std::string plain = TempPath("gz_src.txt");
  const std::string gz = plain + ".gz";
  cleanup_.push_back(plain);
  cleanup_.push_back(gz);

  std::string error;
  ASSERT_GT(ingest::GeneratePowerLawEdgeFile(plain, 500, 6.0, 2.3, 13, &error),
            0)
      << error;
  ASSERT_EQ(std::system(("gzip -kf " + plain).c_str()), 0);

  EdgeListGraph from_plain;
  EdgeListGraph from_gz;
  ingest::IngestReport report_gz;
  ASSERT_TRUE(ingest::IngestEdgeList(plain, &from_plain, nullptr, &error))
      << error;
  ASSERT_TRUE(ingest::IngestEdgeList(gz, &from_gz, &report_gz, &error))
      << error;
  EXPECT_TRUE(report_gz.gzip);
  EXPECT_EQ(from_plain.n, from_gz.n);
  EXPECT_EQ(from_plain.edges, from_gz.edges);
}

// --- Ingester against a reference -------------------------------------------

// How a random edge file draws its raw ids.
enum class IdSpace {
  kDense,          // 0..n-1 in random order.
  kDenseHubFirst,  // 0..n-1, with a hub's high neighbours on the first lines.
  kSparse,         // Far apart, above 2^40.
};

// The ingester's contract computed the plain way: ids compacted in
// first-seen order, self-loops dropped, each edge as (lower, higher), then
// std::sort + std::unique.
struct ReferenceIngest {
  EdgeListGraph graph;
  int64_t lines = 0;
  int64_t self_loops = 0;
  int64_t duplicates = 0;
};

ReferenceIngest Reference(const std::vector<std::pair<int64_t, int64_t>>& raw) {
  ReferenceIngest ref;
  std::unordered_map<int64_t, VertexId> ids;
  auto intern = [&](int64_t id) {
    return ids.try_emplace(id, static_cast<VertexId>(ids.size())).first->second;
  };
  for (const auto& [a, b] : raw) {
    ++ref.lines;
    if (a == b) {
      ++ref.self_loops;
      continue;
    }
    const VertexId u = intern(a);
    const VertexId v = intern(b);
    ref.graph.edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::vector<std::pair<VertexId, VertexId>>& edges = ref.graph.edges;
  std::sort(edges.begin(), edges.end());
  const auto last = std::unique(edges.begin(), edges.end());
  ref.duplicates = std::distance(last, edges.end());
  edges.erase(last, edges.end());
  ref.graph.n = static_cast<int>(ids.size());
  return ref;
}

// Draws `lines` raw edge lines over an id space of about `n` vertices, with
// duplicates in both orientations and self-loops, and renders them as a
// file with comments, blank lines, mixed separators, `\r\n` endings, an
// optional size header and sometimes no final newline.
std::string RandomEdgeFile(Rng* rng, IdSpace space, int n, int lines,
                           bool header,
                           std::vector<std::pair<int64_t, int64_t>>* raw) {
  auto id = [&](int64_t slot) -> int64_t {
    return space == IdSpace::kSparse ? (int64_t{1} << 40) + slot * 1000003
                                     : slot;
  };
  raw->clear();
  while (static_cast<int>(raw->size()) < lines) {
    const uint64_t roll = rng->NextBounded(100);
    int64_t a = id(static_cast<int64_t>(rng->NextBounded(n)));
    int64_t b = id(static_cast<int64_t>(rng->NextBounded(n)));
    if (space == IdSpace::kDenseHubFirst &&
        raw->size() < static_cast<size_t>(std::min(64, n / 2))) {
      // A hub with a small id lists its neighbours first, highest first.
      a = 0;
      b = n - 1 - static_cast<int64_t>(raw->size());
    } else if (roll < 10 && !raw->empty()) {
      const auto& [x, y] = (*raw)[rng->NextBounded(raw->size())];
      a = rng->NextBounded(2) != 0 ? x : y;
      b = a == x ? y : x;
    } else if (roll < 13) {
      b = a;
    }
    raw->emplace_back(a, b);
  }
  std::string text;
  if (header) {
    const bool snap = rng->NextBounded(2) != 0;  // SNAP capitalizes.
    text += (snap ? "# Nodes: " : "# nodes: ") + std::to_string(n);
    text += (snap ? " Edges: " : " edges: ") + std::to_string(lines) + "\n";
  }
  static const char* const kSeparators[] = {" ", "\t", "  ", " \t "};
  for (const auto& [a, b] : *raw) {
    const uint64_t roll = rng->NextBounded(100);
    if (roll < 3) text += "# a comment line\n";
    if (roll >= 3 && roll < 5) text += "\n";
    if (roll >= 5 && roll < 6) text += " \t\r\n";
    if (roll >= 6 && roll < 8) text += " ";
    text += std::to_string(a);
    text += kSeparators[rng->NextBounded(4)];
    text += std::to_string(b);
    if (roll >= 8 && roll < 11) text += " # trailing comment";
    text += roll >= 11 && roll < 21 ? "\r\n" : "\n";
  }
  if (rng->NextBounded(2) != 0) text.pop_back();
  return text;
}

// Seeded random files, each ingested and compared edge for edge and count
// for count against the reference: dense, hub-first and sparse (> 2^40) id
// spaces, with and without a size header, one file past the reader's 1 MiB
// chunk. The report also says whether ids went through the hash map.
TEST_F(IngestFileTest, MatchesReferenceOnRandomFiles) {
  const std::string path = TempPath("random.txt");
  cleanup_.push_back(path);
  Rng rng(2611);
  std::vector<std::pair<int64_t, int64_t>> raw;
  int files = 0;
  for (const IdSpace space :
       {IdSpace::kDense, IdSpace::kDenseHubFirst, IdSpace::kSparse}) {
    for (const bool header : {false, true}) {
      for (const auto& [n, lines] :
           {std::pair{40, 300}, std::pair{3000, 4000}, std::pair{20000, 90000}}) {
        SCOPED_TRACE(testing::Message()
                     << "file " << files++ << ": space "
                     << static_cast<int>(space) << ", header " << header
                     << ", n " << n << ", lines " << lines);
        WriteFile(path, RandomEdgeFile(&rng, space, n, lines, header, &raw));
        const ReferenceIngest ref = Reference(raw);
        EdgeListGraph graph;
        ingest::IngestReport report;
        std::string error;
        ASSERT_TRUE(ingest::IngestEdgeList(path, &graph, &report, &error))
            << error;
        EXPECT_EQ(graph.n, ref.graph.n);
        ASSERT_EQ(graph.edges, ref.graph.edges);
        EXPECT_EQ(report.vertices, ref.graph.n);
        EXPECT_EQ(report.edges, ref.graph.NumEdges());
        EXPECT_EQ(report.lines, ref.lines);
        EXPECT_EQ(report.dropped_self_loops, ref.self_loops);
        EXPECT_EQ(report.dropped_duplicates, ref.duplicates);
        if (header) {
          // Under a trusted header dense ids stay on the flat table, even
          // a hub's high ones on the first lines; sparse ids are hashed.
          EXPECT_TRUE(report.header_reserved);
          EXPECT_EQ(report.hashed_ids, space == IdSpace::kSparse);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dynmis
