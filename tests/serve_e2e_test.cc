// Loopback end-to-end tests for the serving layer: a real Server on an
// ephemeral port driven through real sockets — concurrent churn from
// several clients, the handshake policy, both wire protocols (newline text
// and the HELLO 2 BIN length-prefixed binary upgrade), client-batch
// framing, solution verification, trace-faithful replay, and
// snapshot/restore warm failover across a simulated process hand-off. Every
// server here runs with --io-threads 4, so the engine/I/O mailbox handoff
// is always exercised multi-threaded. Runs under ASan and TSan in CI (the
// serving thread + I/O threads + client threads are exactly the concurrency
// TSan should be watching).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dynmis/serve.h"
#include "dynmis/sharded_engine.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/ingest/key_map.h"
#include "src/serve/binary.h"
#include "src/serve/line_client.h"
#include "src/serve/protocol.h"
#include "src/serve/trace.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace serve {
namespace {

EdgeListGraph TestGraph() {
  Rng rng(7);
  return ErdosRenyiGnm(150, 400, &rng);
}

// A Server on 127.0.0.1:<ephemeral> with its Run() loop on its own thread.
// Stop() joins the loop; after that the replica graph is safe to inspect.
class TestServer {
 public:
  explicit TestServer(ServeOptions options,
                      const EdgeListGraph& base = TestGraph()) {
    std::string error;
    auto backend = MakeServingBackend(base, options, &error);
    EXPECT_NE(backend, nullptr) << error;
    Launch(std::move(backend), std::move(options), {});
  }

  // Warm start from a snapshot file, the way `dynmis_cli serve --restore`
  // does it: the container picks the backend, and its "keymap" section
  // seeds the key bindings.
  static std::unique_ptr<TestServer> Restored(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string error;
    ingest::KeyMap keymap;
    auto backend = RestoreServingBackend(in, &error, &keymap);
    EXPECT_NE(backend, nullptr) << error;
    return std::unique_ptr<TestServer>(
        new TestServer(std::move(backend), std::move(keymap)));
  }

  ~TestServer() { StopAndJoin(); }

  int StopAndJoin() {
    if (thread_.joinable()) {
      server_->Stop();
      thread_.join();
    }
    return run_result_;
  }

  int port() const { return server_->port(); }
  Server& server() { return *server_; }

 private:
  TestServer(std::unique_ptr<ServingBackend> backend, ingest::KeyMap keymap) {
    Launch(std::move(backend), {}, std::move(keymap));
  }

  void Launch(std::unique_ptr<ServingBackend> backend, ServeOptions options,
              ingest::KeyMap keymap) {
    options.port = 0;
    // Always multi-threaded I/O: single-thread is just the degenerate case,
    // and 4 threads is what CI's sanitizer legs should be watching.
    options.io_threads = 4;
    std::string error;
    server_ = std::make_unique<Server>(std::move(backend), options);
    server_->AdoptKeyMap(std::move(keymap));
    EXPECT_TRUE(server_->Start(&error)) << error;
    thread_ = std::thread([this] { run_result_ = server_->Run(); });
  }

  std::unique_ptr<Server> server_;
  std::thread thread_;
  int run_result_ = -1;
};

// Thin gtest wrapper over the shared blocking client (the same framing
// code dynmis_loadgen uses). ReadLine returns "" once the peer closed.
class TestClient {
 public:
  explicit TestClient(int port, bool handshake = true) {
    std::string error;
    EXPECT_TRUE(client_.Connect("127.0.0.1", port, &error)) << error;
    if (handshake) {
      const std::string greeting = Ask("HELLO 1");
      EXPECT_TRUE(greeting.rfind("OK DYNMIS 1 ", 0) == 0) << greeting;
    }
  }

  void Send(const std::string& line) {
    EXPECT_TRUE(client_.SendLine(line));
  }

  std::string ReadLine() {
    std::string line;
    return client_.ReadLine(&line) ? line : "";
  }

  std::string Ask(const std::string& line) {
    Send(line);
    return ReadLine();
  }

  void ShutdownWrite() { client_.ShutdownWrite(); }

 private:
  LineClient client_;
};

std::vector<VertexId> ParseSolution(const std::string& line) {
  std::istringstream in(line);
  std::string ok;
  int64_t count = 0;
  in >> ok >> count;
  EXPECT_EQ(ok, "OK") << line;
  std::vector<VertexId> solution;
  VertexId v = 0;
  while (in >> v) solution.push_back(v);
  EXPECT_EQ(static_cast<int64_t>(solution.size()), count) << line;
  return solution;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Drives `count` protocol updates from one client, drawing from a seeded
// generator over a private mirror (invalid ops against the live server are
// expected and must come back as ERR, never crash anything).
void Churn(int port, uint64_t seed, int count) {
  TestClient client(port);
  DynamicGraph mirror = TestGraph().ToDynamic();
  UpdateStreamOptions stream;
  stream.seed = seed;
  UpdateStreamGenerator generator(stream, TestGraph());
  for (int i = 0; i < count; ++i) {
    const GraphUpdate update = generator.Next(mirror);
    ApplyUpdate(&mirror, update);
    const std::string response = client.Ask(FormatCommandLine(update));
    EXPECT_TRUE(response.rfind("OK", 0) == 0 ||
                response.rfind("ERR rejected", 0) == 0)
        << response;
  }
  EXPECT_EQ(client.Ask("QUIT"), "OK bye");
}

TEST(ServeHandshakeTest, WrongVersionIsRejectedAndClosed) {
  TestServer server({});
  TestClient client(server.port(), /*handshake=*/false);
  const std::string response = client.Ask("HELLO 2");
  EXPECT_TRUE(response.rfind("ERR handshake", 0) == 0) << response;
  EXPECT_EQ(client.ReadLine(), "");  // Server closed the connection.
}

TEST(ServeHandshakeTest, CommandsBeforeHandshakeAreRejected) {
  TestServer server({});
  TestClient client(server.port(), /*handshake=*/false);
  const std::string response = client.Ask("INS 1 2");
  EXPECT_TRUE(response.rfind("ERR handshake", 0) == 0) << response;
  EXPECT_EQ(client.ReadLine(), "");
}

TEST(ServeHandshakeTest, GreetingNamesBackendAndAlgorithm) {
  ServeOptions options;
  options.algo = MaintainerConfig("DyOneSwap");
  TestServer server(options);
  TestClient client(server.port(), /*handshake=*/false);
  const std::string greeting = client.Ask("HELLO 1");
  EXPECT_NE(greeting.find("backend=engine"), std::string::npos) << greeting;
  EXPECT_NE(greeting.find("algorithm=DyOneSwap"), std::string::npos)
      << greeting;
}

TEST(ServeE2eTest, OversizedLineClosesConnection) {
  ServeOptions options;
  options.max_line_bytes = 128;
  TestServer server(options);
  TestClient client(server.port());
  client.Send(std::string(300, 'a'));
  EXPECT_EQ(client.ReadLine(), "ERR line too long");
  EXPECT_EQ(client.ReadLine(), "");
}

TEST(ServeE2eTest, ValidationRejectsWithoutCrashing) {
  TestServer server({});
  TestClient client(server.port());
  EXPECT_TRUE(client.Ask("INS 0 0").rfind("ERR rejected: self loop", 0) == 0);
  EXPECT_TRUE(client.Ask("INS 0 100000").rfind("ERR rejected", 0) == 0);
  EXPECT_TRUE(client.Ask("DEL 0 100000").rfind("ERR rejected", 0) == 0);
  EXPECT_TRUE(client.Ask("DELV 99999").rfind("ERR rejected", 0) == 0);
  EXPECT_TRUE(client.Ask("INSV 0 0").rfind("ERR rejected", 0) == 0);
  EXPECT_TRUE(client.Ask("QUERY 99999").rfind("ERR unknown", 0) == 0);
  // The engine is still healthy afterwards.
  EXPECT_TRUE(client.Ask("VERIFY").find("independent=1 maximal=1") !=
              std::string::npos);
}

TEST(ServeE2eTest, BatchFramingAcksAppliedAndRejected) {
  TestServer server({});
  TestClient client(server.port());
  // Ensure edge {3, 141} exists (the random base may or may not have it),
  // so the frame's DEL below is definitely valid.
  const std::string setup = client.Ask("INS 3 141");
  EXPECT_TRUE(setup.rfind("OK", 0) == 0 ||
              setup.find("edge exists") != std::string::npos)
      << setup;
  client.Send("BATCH 3");
  client.Send("DEL 3 141");
  client.Send("INS 5 5");  // Self loop: rejected.
  client.Send("INSV 7 9");
  client.Send("END");
  const std::string ack = client.ReadLine();
  // "OK <applied> <rejected> <insv ids...>".
  std::istringstream in(ack);
  std::string ok;
  int applied = 0;
  int rejected = 0;
  VertexId insv_id = kInvalidVertex;
  in >> ok >> applied >> rejected >> insv_id;
  EXPECT_EQ(ok, "OK") << ack;
  EXPECT_EQ(applied, 2) << ack;
  EXPECT_EQ(rejected, 1) << ack;
  EXPECT_EQ(insv_id, 150) << ack;  // First id beyond the 150-vertex base.

  // A non-update line mid-frame aborts the frame with an error.
  client.Send("BATCH 2");
  client.Send("STATS");
  const std::string error = client.ReadLine();
  EXPECT_TRUE(error.rfind("ERR BATCH", 0) == 0) << error;
  // The connection is still usable.
  EXPECT_TRUE(client.Ask("VERIFY").rfind("OK", 0) == 0);
}

TEST(ServeE2eTest, ConcurrentChurnYieldsVerifiedMaximalSolution) {
  ServeOptions options;
  options.batch_max_ops = 64;
  options.flush_deadline_us = 500;
  TestServer server(options);

  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back(Churn, server.port(), 100 + i, 300);
  }
  for (std::thread& t : clients) t.join();

  TestClient control(server.port());
  const std::string verify = control.Ask("VERIFY");
  EXPECT_NE(verify.find("independent=1 maximal=1"), std::string::npos)
      << verify;
  const std::vector<VertexId> solution =
      ParseSolution(control.Ask("SOLUTION"));
  const std::string stats = control.Ask("STATS");
  EXPECT_NE(stats.find("\"backend\":\"engine\""), std::string::npos);
  EXPECT_NE(stats.find("\"mean_batch_occupancy\":"), std::string::npos);
  EXPECT_EQ(control.Ask("QUIT"), "OK bye");

  // Join the loop, then check the solution against the replica graph with
  // the brute-force verifiers.
  EXPECT_EQ(server.StopAndJoin(), 0);
  const DynamicGraph& replica = server.server().replica_graph();
  EXPECT_TRUE(testing_util::IsIndependentSet(replica, solution));
  EXPECT_TRUE(testing_util::IsMaximalIndependentSet(replica, solution));
  const ServingMetricsSnapshot metrics = server.server().MetricsSnapshot();
  EXPECT_GT(metrics.ops_applied, 0);
  EXPECT_EQ(metrics.ops_applied, metrics.ops_admitted);
  EXPECT_GT(metrics.batches_flushed, 0);
  EXPECT_GE(metrics.mean_batch_occupancy, 1.0);
}

TEST(ServeE2eTest, ShardedBackendServesAndVerifies) {
  ServeOptions options;
  options.backend = "sharded";
  options.shards = 3;
  TestServer server(options);

  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back(Churn, server.port(), 500 + i, 200);
  }
  for (std::thread& t : clients) t.join();

  TestClient control(server.port());
  const std::string verify = control.Ask("VERIFY");
  EXPECT_NE(verify.find("independent=1 maximal=1"), std::string::npos)
      << verify;
  const std::string stats = control.Ask("STATS");
  EXPECT_NE(stats.find("\"backend\":\"sharded\""), std::string::npos);
  EXPECT_NE(stats.find("\"shards\":3"), std::string::npos);
  EXPECT_NE(stats.find("\"per_shard\":["), std::string::npos);
  const std::vector<VertexId> solution =
      ParseSolution(control.Ask("SOLUTION"));
  EXPECT_EQ(server.StopAndJoin(), 0);
  EXPECT_TRUE(testing_util::IsMaximalIndependentSet(
      server.server().replica_graph(), solution));
}

TEST(ServeE2eTest, TraceReplayReproducesTheSolution) {
  ServeOptions options;
  options.record_trace = true;
  options.batch_max_ops = 32;
  TestServer server(options);

  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back(Churn, server.port(), 900 + i, 250);
  }
  for (std::thread& t : clients) t.join();

  const std::string trace_path = TempPath("serve_e2e_trace.txt");
  TestClient control(server.port());
  EXPECT_TRUE(control.Ask("TRACE " + trace_path).rfind("OK", 0) == 0);
  const std::vector<VertexId> solution =
      ParseSolution(control.Ask("SOLUTION"));
  EXPECT_EQ(server.StopAndJoin(), 0);

  // Reload the trace with its ApplyBatch boundaries and replay in-process.
  ServeTrace trace;
  std::string error;
  ASSERT_TRUE(LoadServeTrace(trace_path, &trace, &error)) << error;
  auto engine = MisEngine::Create(TestGraph(), {});
  ASSERT_NE(engine, nullptr);
  engine->Initialize();
  size_t offset = 0;
  std::vector<GraphUpdate> block;
  for (const int64_t size : trace.batch_sizes) {
    block.assign(trace.updates.begin() + static_cast<int64_t>(offset),
                 trace.updates.begin() + static_cast<int64_t>(offset) + size);
    engine->ApplyBatch(block);
    offset += static_cast<size_t>(size);
  }
  EXPECT_EQ(offset, trace.updates.size());
  std::vector<VertexId> replayed = engine->Solution();
  std::sort(replayed.begin(), replayed.end());
  EXPECT_EQ(replayed, solution);
}

TEST(ServeE2eTest, SnapshotRestoreWarmFailover) {
  ServeOptions options;
  options.record_trace = true;
  TestServer old_server(options);

  Churn(old_server.port(), 1234, 300);

  const std::string snap_path = TempPath("serve_e2e_failover.snap");
  TestClient control(old_server.port());
  EXPECT_TRUE(control.Ask("SNAPSHOT " + snap_path).rfind("OK", 0) == 0);
  const std::vector<VertexId> solution_at_snapshot =
      ParseSolution(control.Ask("SOLUTION"));
  // The old server keeps taking traffic after the checkpoint; the failover
  // target restores the checkpointed state, not the tail.
  EXPECT_TRUE(control.Ask("INSV").rfind("OK ", 0) == 0);
  EXPECT_EQ(old_server.StopAndJoin(), 0);

  // "Failover": a brand-new server warm-starts from the snapshot.
  const auto new_server = TestServer::Restored(snap_path);
  TestClient client(new_server->port());
  const std::vector<VertexId> restored_solution =
      ParseSolution(client.Ask("SOLUTION"));
  EXPECT_EQ(restored_solution, solution_at_snapshot);

  // The restored server accepts further traffic and stays verified,
  // including vertex inserts (id allocation must line up with the replica).
  EXPECT_TRUE(client.Ask("INSV 0 5").rfind("OK ", 0) == 0);
  Churn(new_server->port(), 4321, 150);
  TestClient verifier(new_server->port());
  EXPECT_NE(verifier.Ask("VERIFY").find("independent=1 maximal=1"),
            std::string::npos);
  EXPECT_EQ(new_server->StopAndJoin(), 0);
}

TEST(ServeE2eTest, SnapshotRestoreShardedBackend) {
  ServeOptions options;
  options.backend = "sharded";
  options.shards = 2;
  TestServer old_server(options);
  Churn(old_server.port(), 77, 250);

  const std::string snap_path = TempPath("serve_e2e_sharded.snap");
  TestClient control(old_server.port());
  EXPECT_TRUE(control.Ask("SNAPSHOT " + snap_path).rfind("OK", 0) == 0);
  const std::vector<VertexId> solution_at_snapshot =
      ParseSolution(control.Ask("SOLUTION"));
  EXPECT_EQ(old_server.StopAndJoin(), 0);

  // The container says "sharded"; nothing else needs to.
  const auto new_server = TestServer::Restored(snap_path);
  TestClient client(new_server->port());
  EXPECT_EQ(ParseSolution(client.Ask("SOLUTION")), solution_at_snapshot);
  EXPECT_TRUE(client.Ask("INSV 1 4").rfind("OK ", 0) == 0);
  Churn(new_server->port(), 88, 150);
  TestClient verifier(new_server->port());
  EXPECT_NE(verifier.Ask("VERIFY").find("independent=1 maximal=1"),
            std::string::npos);
  EXPECT_EQ(new_server->StopAndJoin(), 0);
}

// Out-of-range ports are configuration errors at Start(): no bind to the
// port's low 16 bits, no follower retrying a port it can never reach.
TEST(ServeE2eTest, StartRejectsOutOfRangePorts) {
  const auto start_error = [](const ServeOptions& options) {
    std::string error;
    Server server(MakeServingBackend(TestGraph(), options, &error), options);
    EXPECT_FALSE(server.Start(&error));
    return error;
  };
  for (const int port : {70000, 65536, -1}) {
    ServeOptions options;
    options.port = port;
    const std::string error = start_error(options);
    EXPECT_NE(error.find("listen port"), std::string::npos) << error;
  }
  for (const char* addr : {"127.0.0.1:x", "127.0.0.1:70000", "127.0.0.1:0",
                           "127.0.0.1:", "127.0.0.1:+80", "127.0.0.1:8x"}) {
    ServeOptions options;
    options.follow_addr = addr;
    const std::string error = start_error(options);
    EXPECT_NE(error.find("--follow port"), std::string::npos)
        << addr << ": " << error;
  }
}

TEST(ServeE2eTest, EarlySettlingFrameDoesNotStealAnEarlierOpSlot) {
  ServeOptions options;
  // Park the single op in the admission batch so the all-rejected frame
  // below settles while the op's ack slot is still pending.
  options.flush_deadline_us = 500000;
  options.batch_max_ops = 1024;
  TestServer server(options);
  TestClient client(server.port());
  client.Send("INSV");     // Deferred ack in an op slot.
  client.Send("BATCH 1");  // Frame whose only op is rejected: it settles
  client.Send("INS 0 0");  // immediately, but must not claim the op slot.
  client.Send("END");
  client.Send("QUERY 0");  // Barrier: flushes the parked op.
  EXPECT_EQ(client.ReadLine(), "OK 150");  // INSV id, in command order.
  EXPECT_EQ(client.ReadLine(), "OK 0 1");  // Frame ack: 0 applied, 1 reject.
  EXPECT_TRUE(client.ReadLine().rfind("OK", 0) == 0);  // QUERY answer.
}

TEST(ServeE2eTest, HalfClosingClientStillGetsItsResponses) {
  TestServer server({});
  TestClient client(server.port());
  // The update's ack is deferred until the admission batch flushes; the
  // client half-closes immediately after sending, which must not drop the
  // buffered command or its response.
  client.Send("INSV");
  client.ShutdownWrite();
  const std::string ack = client.ReadLine();
  EXPECT_TRUE(ack.rfind("OK ", 0) == 0) << ack;
  EXPECT_EQ(client.ReadLine(), "");  // Server closed after answering.
}

TEST(ServeE2eTest, FileCommandsRefusedOnNonLoopbackListener) {
  ServeOptions options;
  options.host = "0.0.0.0";  // Reachable via loopback, but not loopback-only.
  options.record_trace = true;
  TestServer server(options);
  TestClient client(server.port());
  EXPECT_TRUE(
      client.Ask("SNAPSHOT " + TempPath("refused.snap")).rfind("ERR", 0) == 0);
  EXPECT_TRUE(
      client.Ask("TRACE " + TempPath("refused.txt")).rfind("ERR", 0) == 0);
  // Everything else still works.
  EXPECT_TRUE(client.Ask("VERIFY").rfind("OK", 0) == 0);
}

TEST(ServeE2eTest, QueriesSeeTheirOwnWrites) {
  TestServer server({});
  TestClient client(server.port());
  // A fresh isolated vertex is always added to the maximal solution.
  const std::string ack = client.Ask("INSV");
  ASSERT_TRUE(ack.rfind("OK ", 0) == 0) << ack;
  const VertexId id = std::atoi(ack.c_str() + 3);
  EXPECT_EQ(client.Ask("QUERY " + std::to_string(id)), "OK 1");
}

// --- Binary protocol ---------------------------------------------------------

// Client for the binary protocol: text HELLO 2 BIN handshake, then
// length-prefixed frames both ways.
class BinaryTestClient {
 public:
  explicit BinaryTestClient(int port, bool handshake = true) {
    std::string error;
    EXPECT_TRUE(client_.Connect("127.0.0.1", port, &error)) << error;
    if (handshake) {
      EXPECT_TRUE(client_.SendLine("HELLO 2 BIN"));
      ExpectGreeting();
    }
  }

  void ExpectGreeting() {
    std::string greeting;
    EXPECT_TRUE(client_.ReadLine(&greeting));
    EXPECT_TRUE(greeting.rfind("OK DYNMIS 2 BIN ", 0) == 0) << greeting;
  }

  void SendRaw(const std::string& bytes) {
    EXPECT_TRUE(client_.SendAll(bytes));
  }

  // Reads and decodes the next response frame; reports closed=true (and a
  // default response) once the peer is gone.
  BinaryResponse ReadResponse(bool* closed = nullptr) {
    BinaryResponse resp;
    std::string frame;
    if (!client_.ReadFrame(&frame)) {
      if (closed != nullptr) {
        *closed = true;
      } else {
        ADD_FAILURE() << "peer closed mid-read";
      }
      return resp;
    }
    if (closed != nullptr) *closed = false;
    std::string error;
    EXPECT_TRUE(DecodeResponseFrame(frame, &resp, &error)) << error;
    return resp;
  }

  bool PeerClosed() {
    std::string frame;
    return !client_.ReadFrame(&frame);
  }

  LineClient& raw() { return client_; }

 private:
  LineClient client_;
};

TEST(ServeBinaryTest, UpgradeRoundTripsEveryVerb) {
  TestServer server({});
  BinaryTestClient client(server.port());

  // INSV {0, 5}: first fresh id beyond the 150-vertex base.
  std::string wire;
  AppendInsVFrame(&wire, {0, 5});
  client.SendRaw(wire);
  const BinaryResponse insv = client.ReadResponse();
  EXPECT_EQ(insv.code, kBinRespOkId);
  EXPECT_EQ(insv.id, 150);

  // Pipelined: edge insert + self-loop reject + query + edge delete + DELV.
  wire.clear();
  AppendInsFrame(&wire, 150, 3);
  AppendInsFrame(&wire, 4, 4);
  AppendQueryFrame(&wire, 150);
  AppendDelFrame(&wire, 150, 3);
  AppendDelVFrame(&wire, 150);
  client.SendRaw(wire);
  EXPECT_EQ(client.ReadResponse().code, kBinRespOk);
  const BinaryResponse reject = client.ReadResponse();
  EXPECT_EQ(reject.code, kBinRespReject);
  EXPECT_NE(reject.message.find("self loop"), std::string::npos)
      << reject.message;
  EXPECT_EQ(client.ReadResponse().code, kBinRespQuery);
  EXPECT_EQ(client.ReadResponse().code, kBinRespOk);
  EXPECT_EQ(client.ReadResponse().code, kBinRespOk);

  // Unknown vertex: an error response, but not fatal to the connection.
  wire.clear();
  AppendQueryFrame(&wire, 99999);
  AppendQueryFrame(&wire, 0);
  client.SendRaw(wire);
  EXPECT_EQ(client.ReadResponse().code, kBinRespErr);
  EXPECT_EQ(client.ReadResponse().code, kBinRespQuery);
}

TEST(ServeBinaryTest, PipelinedUpgradeInOnePacket) {
  TestServer server({});
  BinaryTestClient client(server.port(), /*handshake=*/false);
  // HELLO line and binary frames in a single send: the server must hand the
  // bytes behind the newline to the binary decoder, not drop them.
  std::string wire = "HELLO 2 BIN\n";
  AppendInsVFrame(&wire, {});
  AppendQueryFrame(&wire, 0);
  client.SendRaw(wire);
  client.ExpectGreeting();
  EXPECT_EQ(client.ReadResponse().code, kBinRespOkId);
  EXPECT_EQ(client.ReadResponse().code, kBinRespQuery);
}

TEST(ServeBinaryTest, BatchFrameGetsOneAck) {
  TestServer server({});
  BinaryTestClient client(server.port());
  // Ensure edge {3, 141} exists so the batch's DEL is definitely valid.
  std::string wire;
  AppendInsFrame(&wire, 3, 141);
  client.SendRaw(wire);
  const BinaryResponse setup = client.ReadResponse();
  EXPECT_TRUE(setup.code == kBinRespOk || setup.code == kBinRespReject);

  std::vector<GraphUpdate> updates(3);
  updates[0] = {UpdateKind::kDeleteEdge, 3, 141, {}};
  updates[1] = {UpdateKind::kInsertEdge, 5, 5, {}};  // Rejected.
  updates[2] = {UpdateKind::kInsertVertex, kInvalidVertex, kInvalidVertex,
                {7, 9}};
  wire.clear();
  AppendBatchFrame(&wire, updates, 0, updates.size());
  client.SendRaw(wire);
  const BinaryResponse ack = client.ReadResponse();
  EXPECT_EQ(ack.code, kBinRespBatch);
  EXPECT_EQ(ack.applied, 2);
  EXPECT_EQ(ack.rejected, 1);
  EXPECT_EQ(ack.insert_ids, (std::vector<VertexId>{150}));
}

TEST(ServeBinaryTest, BareHello2WithoutBinIsRejected) {
  TestServer server({});
  TestClient client(server.port(), /*handshake=*/false);
  const std::string response = client.Ask("HELLO 2");
  EXPECT_TRUE(response.rfind("ERR handshake", 0) == 0) << response;
  EXPECT_EQ(client.ReadLine(), "");
}

TEST(ServeBinaryTest, GarbageOpcodeAnswersErrAndCloses) {
  TestServer server({});
  BinaryTestClient client(server.port());
  std::string wire;
  AppendFrameHeader(&wire, 0x7f, 0);
  client.SendRaw(wire);
  const BinaryResponse err = client.ReadResponse();
  EXPECT_EQ(err.code, kBinRespErr);
  EXPECT_TRUE(client.PeerClosed());
}

TEST(ServeBinaryTest, OversizedLengthPrefixAnswersErrAndCloses) {
  ServeOptions options;
  options.max_line_bytes = 128;  // Also caps binary frames.
  TestServer server(options);
  BinaryTestClient client(server.port());
  std::string wire;
  AppendU32(&wire, 1 << 20);  // Length prefix far beyond the cap.
  wire.push_back(static_cast<char>(kBinOpQuery));
  client.SendRaw(wire);
  const BinaryResponse err = client.ReadResponse();
  EXPECT_EQ(err.code, kBinRespErr);
  EXPECT_TRUE(client.PeerClosed());
}

TEST(ServeBinaryTest, ConcurrentBinaryChurnStaysVerified) {
  ServeOptions options;
  options.batch_max_ops = 64;
  options.flush_deadline_us = 500;
  TestServer server(options);

  const auto churn = [&server](uint64_t seed) {
    BinaryTestClient client(server.port());
    DynamicGraph mirror = TestGraph().ToDynamic();
    UpdateStreamOptions stream;
    stream.seed = seed;
    UpdateStreamGenerator generator(stream, TestGraph());
    std::string wire;
    for (int i = 0; i < 300; ++i) {
      const GraphUpdate update = generator.Next(mirror);
      ApplyUpdate(&mirror, update);
      wire.clear();
      AppendUpdateFrame(&wire, update);
      client.SendRaw(wire);
      const BinaryResponse resp = client.ReadResponse();
      EXPECT_TRUE(resp.code == kBinRespOk || resp.code == kBinRespOkId ||
                  resp.code == kBinRespReject)
          << static_cast<int>(resp.code);
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) clients.emplace_back(churn, 7100 + i);
  for (std::thread& t : clients) t.join();

  TestClient control(server.port());
  EXPECT_NE(control.Ask("VERIFY").find("independent=1 maximal=1"),
            std::string::npos);
  const std::string stats = control.Ask("STATS");
  EXPECT_NE(stats.find("\"io\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"frames_decoded\":"), std::string::npos) << stats;
  EXPECT_EQ(server.StopAndJoin(), 0);
  const ServingMetricsSnapshot metrics = server.server().MetricsSnapshot();
  EXPECT_EQ(metrics.io_threads, 4);
  EXPECT_GT(metrics.io_frames_decoded, 0);
}

}  // namespace
}  // namespace serve
}  // namespace dynmis
