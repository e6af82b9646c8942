// Byte-exact pin of the serving layer's wire replies. One fixed session on
// a text connection and one on a binary connection run against a fresh
// engine-backend server over a fixed graph, and every reply — the
// greetings, each admission rejection reason, deferred acks with insert
// ids, BATCH acks, an aborted frame, the queries, the keyed verbs, VERIFY,
// REPL STATUS, QUIT, and the STATS key sequence with its values masked —
// is compared with the constants below. Other tests check fragments; this
// one holds the whole surface still, so a change inside the server cannot
// alter a reply unnoticed.
//
// Determinism: the flush deadline and batch cap are far out of reach, so a
// batch closes only at a barrier (a query verb) and its boundaries follow
// the request script, never the clock. Requests go out a round at a time,
// each round ending in a barrier, and every reply of the round is read
// before the next round is sent.

#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "dynmis/serve.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/serve/binary.h"
#include "src/serve/line_client.h"
#include "src/util/random.h"

namespace dynmis {
namespace serve {
namespace {

EdgeListGraph TranscriptGraph() {
  Rng rng(7);
  return ErdosRenyiGnm(150, 400, &rng);
}

// Binary replies are pinned as "bin:" + lowercase hex of the frame payload
// (response code plus body).
std::string Hex(const std::string& bytes) {
  std::string out = "bin:";
  char buf[4];
  for (const char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

// STATS with every scalar value replaced by `_`: the key sequence and the
// nesting stay, the run-dependent numbers go.
std::string MaskStats(const std::string& line) {
  static const std::regex kValue(R"re(:(-?[0-9][^,}\]]*|"[^"]*"))re");
  return std::regex_replace(line, kValue, ":_");
}

class TranscriptServer {
 public:
  TranscriptServer() {
    ServeOptions options;
    options.port = 0;
    options.io_threads = 1;
    options.batch_max_ops = 1 << 20;
    options.flush_deadline_us = 600e6;
    std::string error;
    auto backend = MakeServingBackend(TranscriptGraph(), options, &error);
    EXPECT_NE(backend, nullptr) << error;
    server_ = std::make_unique<Server>(std::move(backend), options);
    EXPECT_TRUE(server_->Start(&error)) << error;
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~TranscriptServer() {
    server_->Stop();
    thread_.join();
  }

  int port() const { return server_->port(); }

 private:
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

// Sends `lines` in one write and reads `replies` lines back.
std::vector<std::string> TextRound(LineClient* client,
                                   const std::vector<std::string>& lines,
                                   size_t replies) {
  std::string bytes;
  for (const std::string& line : lines) bytes += line + "\n";
  EXPECT_TRUE(client->SendAll(bytes));
  std::vector<std::string> out;
  for (size_t i = 0; i < replies; ++i) {
    std::string line;
    if (!client->ReadLine(&line)) {
      ADD_FAILURE() << "connection closed after " << i << " replies";
      break;
    }
    out.push_back(line);
  }
  return out;
}

std::vector<std::string> BinaryRound(LineClient* client,
                                     const std::string& frames,
                                     size_t replies) {
  EXPECT_TRUE(client->SendAll(frames));
  std::vector<std::string> out;
  for (size_t i = 0; i < replies; ++i) {
    std::string frame;
    if (!client->ReadFrame(&frame)) {
      ADD_FAILURE() << "connection closed after " << i << " frames";
      break;
    }
    out.push_back(Hex(frame));
  }
  return out;
}

GraphUpdate Edge(UpdateKind kind, VertexId u, VertexId v) {
  GraphUpdate update;
  update.kind = kind;
  update.u = u;
  update.v = v;
  return update;
}

GraphUpdate NewVertex(std::vector<VertexId> neighbors,
                      const std::string& key = "") {
  GraphUpdate update;
  update.kind = UpdateKind::kInsertVertex;
  update.neighbors = std::move(neighbors);
  update.key = key;
  return update;
}

std::vector<std::string> RunSession() {
  const DynamicGraph graph = TranscriptGraph().ToDynamic();
  // The first absent and the first two present edges at low ids.
  VertexId absent = 1;
  while (graph.HasEdge(0, absent)) ++absent;
  std::vector<std::pair<VertexId, VertexId>> present;
  for (VertexId u = 0; present.size() < 3; ++u) {
    for (VertexId v = u + 1; v < 150 && present.size() < 3; ++v) {
      if (graph.HasEdge(u, v)) present.emplace_back(u, v);
    }
  }
  const auto edge = [](const char* verb, VertexId u, VertexId v) {
    return std::string(verb) + " " + std::to_string(u) + " " +
           std::to_string(v);
  };

  TranscriptServer server;
  std::vector<std::string> transcript;
  const auto append = [&transcript](const std::vector<std::string>& part) {
    transcript.insert(transcript.end(), part.begin(), part.end());
  };
  std::string error;
  LineClient text;
  EXPECT_TRUE(text.Connect("127.0.0.1", server.port(), &error)) << error;
  append(TextRound(&text, {"HELLO 1"}, 1));
  append(TextRound(&text,
                   {edge("INS", 0, absent), "INS 3 3", "INS 0 999",
                    edge("INS", 0, absent), edge("DEL", 0, absent + 1000),
                    edge("DEL", 4, 4), edge("DEL", present[0].first,
                                            present[0].second),
                    "INSV 0 1", "INSV 999", "INSV 2 2", "INSV", "DELV 999",
                    "DELV 5", "KINS alpha 0 7", "KINS alpha 3", "KDEL beta",
                    "QUERY 0", "QUERY 5"},
                   18));
  append(TextRound(&text,
                   {"BATCH 4", "INSV 1", "INS 0 0", "KINS gamma 2",
                    edge("DEL", present[1].first, present[1].second), "END",
                    "BATCH 3", "INSV", "FOO 1", "END", "KQUERY alpha",
                    "KQUERY beta", "KDEL alpha", "KQUERY alpha",
                    "QUERY 999", "QUERY 1"},
                   9));
  append(TextRound(&text, {"SOLUTION", "VERIFY", "REPL STATUS"}, 3));

  LineClient binary;
  EXPECT_TRUE(binary.Connect("127.0.0.1", server.port(), &error)) << error;
  append(TextRound(&binary, {"HELLO 2 BIN"}, 1));
  std::string frames;
  AppendInsFrame(&frames, 0, absent + 1);
  AppendInsFrame(&frames, 6, 6);
  AppendDelFrame(&frames, 0, absent + 1000);
  AppendInsVFrame(&frames, {2, 3});
  AppendInsVFrame(&frames, {4, 4});
  AppendDelVFrame(&frames, 8);
  AppendDelVFrame(&frames, 8);
  AppendKInsFrame(&frames, "delta", {9});
  AppendKInsFrame(&frames, "delta", {});
  AppendKDelFrame(&frames, "epsilon");
  const std::vector<GraphUpdate> batch = {
      NewVertex({10}), Edge(UpdateKind::kInsertEdge, 11, 11),
      NewVertex({}, "zeta"),
      Edge(UpdateKind::kDeleteEdge, present[2].first, present[2].second)};
  AppendBatchFrame(&frames, batch, 0, batch.size());
  AppendQueryFrame(&frames, 10);
  AppendKQueryFrame(&frames, "delta");
  AppendKQueryFrame(&frames, "epsilon");
  AppendKDelFrame(&frames, "delta");
  AppendQueryFrame(&frames, 999);
  append(BinaryRound(&binary, frames, 16));
  binary.Close();

  append(TextRound(&text, {"SOLUTION", "VERIFY", "REPL STATUS"}, 3));
  // The second STATS is the pinned one: by then the I/O thread has
  // published the decode counters of every earlier request, the first
  // STATS included.
  TextRound(&text, {"STATS"}, 1);
  const std::vector<std::string> stats = TextRound(&text, {"STATS"}, 1);
  if (!stats.empty()) transcript.push_back(MaskStats(stats[0]));
  append(TextRound(&text, {"QUIT"}, 1));
  return transcript;
}

const std::vector<std::string> kTranscript = {
    R"(OK DYNMIS 1 backend=engine shards=1 algorithm=DyTwoSwap)",
    R"(OK)",
    R"(ERR rejected: self loop)",
    R"(ERR rejected: unknown vertex)",
    R"(ERR rejected: edge exists)",
    R"(ERR rejected: no such edge)",
    R"(ERR rejected: no such edge)",
    R"(OK)",
    R"(OK 150)",
    R"(ERR rejected: unknown neighbor)",
    R"(ERR rejected: duplicate neighbor)",
    R"(OK 151)",
    R"(ERR rejected: unknown vertex)",
    R"(OK)",
    R"(OK 5)",
    R"(ERR rejected: key exists)",
    R"(ERR rejected: unknown key)",
    R"(OK 0)",
    R"(OK 1)",
    R"(OK 3 1 152 153)",
    R"(ERR BATCH: unknown command: FOO)",
    R"(ERR END without BATCH)",
    R"(OK 5 1)",
    R"(ERR unknown key)",
    R"(OK)",
    R"(ERR unknown key)",
    R"(ERR unknown vertex)",
    R"(OK 0)",
    R"(OK 63 3 4 8 9 10 11 14 16 17 19 20 21 27 28 29 30 31 32 33 35 38 41 )"
    R"(42 43 50 51 53 54 56 57 60 61 74 79 80 81 85 89 91 92 93 94 108 110 )"
    R"(111 115 128 130 131 135 139 140 142 143 144 146 147 148 150 151 152 )"
    R"(153 154)",
    R"(OK independent=1 maximal=1 size=63)",
    R"(OK REPL 3 EPOCH 0)",
    R"(OK DYNMIS 2 BIN backend=engine shards=1 algorithm=DyTwoSwap)",
    R"(bin:80)",
    R"(bin:8273656c66206c6f6f70)",
    R"(bin:826e6f20737563682065646765)",
    R"(bin:8105000000)",
    R"(bin:826475706c6963617465206e65696768626f72)",
    R"(bin:80)",
    R"(bin:82756e6b6e6f776e20766572746578)",
    R"(bin:8108000000)",
    R"(bin:826b657920657869737473)",
    R"(bin:82756e6b6e6f776e206b6579)",
    R"(bin:830300000001000000020000009b0000009c000000)",
    R"(bin:8401)",
    R"(bin:860800000000)",
    R"(bin:85756e6b6e6f776e206b6579)",
    R"(bin:80)",
    R"(bin:85756e6b6e6f776e20766572746578)",
    R"(OK 64 4 5 9 10 11 14 16 17 19 20 21 27 28 29 30 31 32 33 35 38 41 )"
    R"(42 43 50 51 53 54 56 57 60 61 66 74 79 80 81 85 89 91 92 93 94 97 )"
    R"(108 110 111 115 128 130 131 135 139 140 143 144 146 147 148 150 151 )"
    R"(152 153 154 156)",
    R"(OK independent=1 maximal=1 size=64)",
    R"(OK REPL 5 EPOCH 0)",
    R"(OK {"backend":_,"protocol_version":_,"shards":_,)"
    R"("engine":{"algorithm":_,"solution_size":_,"num_vertices":_,)"
    R"("num_edges":_,"structure_memory_bytes":_,"graph_memory_bytes":_,)"
    R"("updates_applied":_,"update_seconds":_},)"
    R"("serving":{"connections_open":_,"connections_accepted":_,)"
    R"("protocol_errors":_,"ops_admitted":_,"ops_applied":_,)"
    R"("ops_rejected":_,"batches_flushed":_,"mean_batch_occupancy":_,)"
    R"("flushes_full":_,"flushes_deadline":_,"flushes_barrier":_,)"
    R"("keymap_entries":_,"window_edges":_,"expired_ops":_,)"
    R"("uptime_seconds":_,"ops_per_sec":_,"update_latency_us":{"count":_,)"
    R"("p50":_,"p99":_},"query_latency_us":{"count":_,"p50":_,"p99":_},)"
    R"("commands":{"HELLO":_,"INS":_,"DEL":_,"INSV":_,"DELV":_,"QUERY":_,)"
    R"("SOLUTION":_,"STATS":_,"SNAPSHOT":_,"TRACE":_,"VERIFY":_,"BATCH":_,)"
    R"("END":_,"REPL":_,"PROMOTE":_,"RESHARD":_,"KINS":_,"KDEL":_,)"
    R"("KQUERY":_,"QUIT":_}},"io":{"threads":_,"per_thread":[{"wakeups":_,)"
    R"("frames_decoded":_,"bytes_read":_,"bytes_written":_,)"
    R"("decode_errors":_,"connections":_,"inbox_depth_high_water":_,)"
    R"("decode_latency_us":{"HELLO":{"count":_,"p50":_,"p99":_},)"
    R"("INS":{"count":_,"p50":_,"p99":_},"DEL":{"count":_,"p50":_,"p99":_},)"
    R"("INSV":{"count":_,"p50":_,"p99":_},"DELV":{"count":_,"p50":_,)"
    R"("p99":_},"QUERY":{"count":_,"p50":_,"p99":_},"SOLUTION":{"count":_,)"
    R"("p50":_,"p99":_},"STATS":{"count":_,"p50":_,"p99":_},)"
    R"("VERIFY":{"count":_,"p50":_,"p99":_},"BATCH":{"count":_,"p50":_,)"
    R"("p99":_},"END":{"count":_,"p50":_,"p99":_},"REPL":{"count":_,)"
    R"("p50":_,"p99":_},"KINS":{"count":_,"p50":_,"p99":_},)"
    R"("KDEL":{"count":_,"p50":_,"p99":_},"KQUERY":{"count":_,"p50":_,)"
    R"("p99":_}}}]},"replication":{"role":_,"epoch":_,"fenced":_,)"
    R"("degraded":_,"degraded_reason":_,"reconnects":_,"next_seq":_,)"
    R"("batches_logged":_,"ops_logged":_,"segments":_,"batches_streamed":_,)"
    R"("batches_applied":_,"snapshots_written":_,"snapshots_failed":_,)"
    R"("last_base_seq":_,"subscribers":_,"lag_batches":_,)"
    R"("lag_ops_estimate":_,"lag_segments":_,"promotions":_,"resharded":_,)"
    R"("reshard_in_progress":_}})",
    R"(OK bye)",
};

TEST(ServeTranscriptTest, RepliesAreByteIdentical) {
  const std::vector<std::string> transcript = RunSession();
  ASSERT_EQ(transcript.size(), kTranscript.size());
  for (size_t i = 0; i < transcript.size(); ++i) {
    EXPECT_EQ(transcript[i], kTranscript[i]) << "reply " << i;
  }
}

}  // namespace
}  // namespace serve
}  // namespace dynmis
