// Fault-injection and fencing tests for the serving layer, driven through
// real loopback servers with faultfs plans armed in-process: change-log
// append failure degrades the primary to read-only (with auto-recovery
// once the log heals) instead of aborting, a higher fencing epoch —
// arriving via the shared epoch file or a subscriber handshake — fences a
// writable primary, PROMOTE un-fences by claiming a fresh epoch, followers
// reconnect to a restarted primary with backoff and resubscribe from their
// last sequence, and restart cycles over one change-log directory keep the
// recovered state byte-identical to a clean replay. Runs under ASan and
// TSan in CI alongside repl_e2e_test. Live state is observed through the
// protocol (STATS / REPL STATUS — answered on the loop thread);
// MetricsSnapshot() is only read after StopAndJoin.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dynmis/serve.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/repl/bootstrap.h"
#include "src/repl/change_log.h"
#include "src/serve/line_client.h"
#include "src/serve/protocol.h"
#include "src/util/faultfs.h"
#include "src/util/random.h"

namespace dynmis {
namespace serve {
namespace {

EdgeListGraph TestGraph() {
  Rng rng(7);
  return ErdosRenyiGnm(150, 400, &rng);
}

std::string FreshDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

// Disarm on scope exit, so one test's plan can never leak into the next
// (or into gtest's own file I/O).
struct ScopedPlan {
  explicit ScopedPlan(const std::string& plan) {
    std::string error;
    ok = faultfs::ArmPlan(plan, &error);
    EXPECT_TRUE(ok) << error;
  }
  ~ScopedPlan() { faultfs::Disarm(); }
  bool ok = false;
};

// A Server on 127.0.0.1 with its Run() loop on its own thread. Unlike the
// e2e harness this one honours options.port, so a restarted primary can
// rebind its predecessor's port (SO_REUSEADDR) for reconnect tests.
class TestServer {
 public:
  explicit TestServer(ServeOptions options,
                      const EdgeListGraph& base = TestGraph()) {
    std::string error;
    auto backend = MakeServingBackend(base, options, &error);
    EXPECT_NE(backend, nullptr) << error;
    Launch(std::move(backend), std::move(options));
  }

  TestServer(std::unique_ptr<ServingBackend> backend, ServeOptions options) {
    Launch(std::move(backend), std::move(options));
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
  void Launch(std::unique_ptr<ServingBackend> backend, ServeOptions options) {
    options.io_threads = 2;
    std::string error;
    server_ = std::make_unique<Server>(std::move(backend), options);
    EXPECT_TRUE(server_->Start(&error)) << error;
    thread_ = std::thread([this] { run_result_ = server_->Run(); });
  }

  std::unique_ptr<Server> server_;
  std::thread thread_;
  int run_result_ = -1;
};

class TestClient {
 public:
  explicit TestClient(int port) {
    std::string error;
    EXPECT_TRUE(client_.Connect("127.0.0.1", port, &error)) << error;
    const std::string greeting = Ask("HELLO 1");
    EXPECT_TRUE(greeting.rfind("OK DYNMIS 1 ", 0) == 0) << greeting;
  }

  std::string Ask(const std::string& line) {
    std::string response;
    EXPECT_TRUE(client_.Ask(line, &response)) << line;
    return response;
  }

  void Send(const std::string& line) { EXPECT_TRUE(client_.SendLine(line)); }

  std::string ReadLine() {
    std::string line;
    EXPECT_TRUE(client_.ReadLine(&line));
    return line;
  }

 private:
  LineClient client_;
};

// "OK REPL <seq> EPOCH <e>" -> (seq, epoch).
void ReplStatus(TestClient* client, int64_t* seq, int64_t* epoch) {
  const std::string response = client->Ask("REPL STATUS");
  ASSERT_TRUE(response.rfind("OK REPL ", 0) == 0) << response;
  long long s = 0, e = 0;
  ASSERT_EQ(std::sscanf(response.c_str(), "OK REPL %lld EPOCH %lld", &s, &e),
            2)
      << response;
  *seq = s;
  *epoch = e;
}

// One seeded update source: the mirror tracks what the generator believes,
// which may legitimately diverge from the server once writes are refused —
// ops the server then rejects come back "ERR rejected", never a crash.
struct UpdateSource {
  explicit UpdateSource(uint64_t seed) : mirror(TestGraph().ToDynamic()) {
    UpdateStreamOptions stream;
    stream.seed = seed;
    generator = std::make_unique<UpdateStreamGenerator>(stream, TestGraph());
  }

  std::string AskNext(TestClient* client) {
    const GraphUpdate update = generator->Next(mirror);
    ApplyUpdate(&mirror, update);
    return client->Ask(FormatCommandLine(update));
  }

  // Drives updates until `target` have been acked OK. Anything other than
  // OK / ERR rejected fails the test.
  void ChurnAcked(TestClient* client, int target) {
    int acked = 0, sent = 0;
    while (acked < target) {
      const std::string response = AskNext(client);
      if (response.rfind("OK", 0) == 0) {
        ++acked;
      } else {
        ASSERT_TRUE(response.rfind("ERR rejected", 0) == 0) << response;
      }
      ASSERT_LT(++sent, target * 10 + 100) << "churn starved of valid ops";
    }
  }

  // The next response that gets past admission (invalid ops answer
  // "ERR rejected" before reaching the flush path and prove nothing).
  std::string AskPastAdmission(TestClient* client) {
    for (int i = 0; i < 200; ++i) {
      const std::string response = AskNext(client);
      if (response.rfind("ERR rejected", 0) != 0) return response;
    }
    return "ERR test: admission starved";
  }

  DynamicGraph mirror;
  std::unique_ptr<UpdateStreamGenerator> generator;
};

bool WaitUntil(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

void ExpectVerifyOk(TestClient* client) {
  const std::string verdict = client->Ask("VERIFY");
  EXPECT_NE(verdict.find("independent=1"), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("maximal=1"), std::string::npos) << verdict;
}

// A change-log append failure must not abort the server: it keeps serving
// reads, answers writes with ERR readonly (reason in STATS), buffers the
// already-applied batch, and recovers on its own once appends succeed
// again — with every acked record, including the one whose first append
// failed, durable in the log.
TEST(ReplFaultTest, AppendFailureDegradesToReadOnlyThenRecovers) {
  const std::string dir = FreshDir("fault_degraded");
  ServeOptions options;
  options.backend = "sharded";
  options.shards = 2;
  options.change_log_dir = dir;
  // Segment writes: #1 is the header, #2..#5 the first four records; every
  // one from #6 on fails until the plan is disarmed.
  ScopedPlan plan("write:enospc@6x0~seg-");
  TestServer server(options);
  TestClient client(server.port());
  UpdateSource source(77);
  source.ChurnAcked(&client, 4);

  // The fifth append fails. The op was applied and acked OK (it cannot be
  // un-applied; the record is buffered for re-append) — but the server is
  // degraded from that flush on.
  const std::string degrading = source.AskPastAdmission(&client);
  EXPECT_TRUE(degrading.rfind("OK", 0) == 0) << degrading;
  const std::string stats = client.Ask("STATS");
  EXPECT_NE(stats.find("\"degraded\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("No space"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"role\":\"primary\""), std::string::npos) << stats;
  EXPECT_TRUE(source.AskNext(&client).rfind("ERR readonly", 0) == 0);
  ExpectVerifyOk(&client);  // Reads ride through the degradation.

  // Healing the log (disarming the plan) lets the retry tick re-append the
  // buffered record and lift the degradation without a restart.
  faultfs::Disarm();
  ASSERT_TRUE(WaitUntil([&] {
    return client.Ask("STATS").find("\"degraded\":0") != std::string::npos;
  }));
  source.ChurnAcked(&client, 5);
  ExpectVerifyOk(&client);

  // Every acked batch made it into the log: a clean bootstrap reaches the
  // live server's head.
  int64_t head = 0, epoch = 0;
  ReplStatus(&client, &head, &epoch);
  server.StopAndJoin();
  repl::BootstrapResult boot;
  std::string error;
  ASSERT_TRUE(
      repl::BootstrapFromChangeLog(dir, TestGraph(), options, &boot, &error))
      << error;
  EXPECT_EQ(boot.next_seq, head);
}

// A higher epoch landing in the primary's own epoch file — how a promoted
// twin on a shared directory announces itself — fences the primary: writes
// answer ERR fenced, subscriptions are refused, reads keep working, and
// PROMOTE is the way back (claiming a yet-higher epoch).
TEST(ReplFaultTest, EpochFileFencesPrimaryAndPromoteReclaims) {
  const std::string dir = FreshDir("fault_fence_file");
  ServeOptions options;
  options.backend = "sharded";
  options.shards = 2;
  options.change_log_dir = dir;
  TestServer server(options);
  TestClient client(server.port());
  UpdateSource source(78);
  source.ChurnAcked(&client, 10);
  int64_t head = 0, epoch = 0;
  ReplStatus(&client, &head, &epoch);
  EXPECT_GE(epoch, 1);  // A primary claims a fresh epoch at startup.

  // Another incarnation claims the directory.
  std::string error;
  ASSERT_TRUE(repl::WriteEpochFile(dir, epoch + 1, &error)) << error;

  // The flush-time probe (or the idle poll, whichever fires first) fences
  // before the next batch can apply: the write is refused with the
  // observed epoch and nothing further is appended.
  const std::string refused = source.AskPastAdmission(&client);
  EXPECT_TRUE(
      refused.rfind("ERR fenced " + std::to_string(epoch + 1), 0) == 0)
      << refused;
  const std::string stats = client.Ask("STATS");
  EXPECT_NE(stats.find("\"role\":\"fenced\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"fenced\":1"), std::string::npos) << stats;
  EXPECT_TRUE(client.Ask("REPL SUBSCRIBE " + std::to_string(head))
                  .rfind("ERR fenced", 0) == 0);
  ExpectVerifyOk(&client);  // Reads still work on a fenced server.

  // PROMOTE claims an epoch above the file and reopens the log.
  const std::string promoted = client.Ask("PROMOTE");
  EXPECT_TRUE(promoted.rfind("OK PROMOTED ", 0) == 0) << promoted;
  int64_t head2 = 0, epoch2 = 0;
  ReplStatus(&client, &head2, &epoch2);
  EXPECT_EQ(epoch2, epoch + 2);
  source.ChurnAcked(&client, 5);
  ExpectVerifyOk(&client);
}

// A subscriber announcing a higher epoch (a follower that has served under
// a newer primary) fences a writable server at the handshake itself.
TEST(ReplFaultTest, SubscriberHandshakeAboveEpochFencesPrimary) {
  const std::string dir = FreshDir("fault_fence_handshake");
  ServeOptions options;
  options.backend = "engine";
  options.change_log_dir = dir;
  TestServer server(options);
  TestClient writer(server.port());
  UpdateSource source(79);
  source.ChurnAcked(&writer, 5);
  int64_t head = 0, epoch = 0;
  ReplStatus(&writer, &head, &epoch);

  TestClient subscriber(server.port());
  const std::string response =
      subscriber.Ask("REPL SUBSCRIBE " + std::to_string(head) + " EPOCH " +
                     std::to_string(epoch + 5));
  EXPECT_TRUE(
      response.rfind("ERR fenced " + std::to_string(epoch + 5), 0) == 0)
      << response;
  EXPECT_TRUE(source.AskPastAdmission(&writer).rfind("ERR fenced", 0) == 0);
}

// A batch refused at fencing time leaves no trace in the admission state:
// the replica and the key map stay exactly what the backend holds, so a
// re-promoted server neither rejects the refused write as a duplicate, nor
// predicts a stale vertex-insert id (which aborted the server), nor
// answers for a key bound to a vertex the backend never created.
void ExpectRefusedBatchLeavesNoTrace(const std::string& backend) {
  const std::string dir = FreshDir("fault_refused_" + backend);
  ServeOptions options;
  options.backend = backend;
  options.change_log_dir = dir;
  // Ops stay pending until a barrier, so every write below is admitted
  // first and refused at the flush that finds the new epoch.
  options.flush_deadline_us = 60e6;
  TestServer server(options);
  TestClient client(server.port());
  // Admits `write`, claims the directory for a newer primary, then flushes
  // with a barrier: the write is refused with the new epoch.
  const auto refused_after_fence = [&](const std::string& write) {
    int64_t head = 0, epoch = 0;
    ReplStatus(&client, &head, &epoch);
    client.Send(write);
    std::string error;
    EXPECT_TRUE(repl::WriteEpochFile(dir, epoch + 1, &error)) << error;
    client.Send("QUERY 0");
    EXPECT_EQ(client.ReadLine(), "ERR fenced " + std::to_string(epoch + 1))
        << write;
    EXPECT_TRUE(client.ReadLine().rfind("OK ", 0) == 0);
    EXPECT_TRUE(client.Ask("PROMOTE").rfind("OK PROMOTED ", 0) == 0);
  };
  // A write flushed by a barrier; returns its ack.
  const auto flushed = [&](const std::string& write) {
    client.Send(write);
    client.Send("QUERY 0");
    const std::string ack = client.ReadLine();
    EXPECT_TRUE(client.ReadLine().rfind("OK ", 0) == 0);
    return ack;
  };

  // Phantom edge: two solution members joined by a refused insert.
  const std::string solution = client.Ask("SOLUTION");
  long long count = 0, u = 0, v = 0;
  ASSERT_EQ(std::sscanf(solution.c_str(), "OK %lld %lld %lld", &count, &u,
                        &v),
            3)
      << solution;
  const std::string insert =
      "INS " + std::to_string(u) + " " + std::to_string(v);
  refused_after_fence(insert);
  ExpectVerifyOk(&client);
  EXPECT_EQ(flushed(insert), "OK");
  ExpectVerifyOk(&client);

  // Phantom key: the refused KINS binds nothing.
  refused_after_fence("KINS alpha 0");
  EXPECT_EQ(client.Ask("KQUERY alpha"), "ERR unknown key");
  const std::string kins = flushed("KINS alpha 0");
  EXPECT_TRUE(kins.rfind("OK ", 0) == 0) << kins;
  EXPECT_EQ(client.Ask("KQUERY alpha").rfind(kins + " ", 0), 0u);

  // Vertex insert: the re-promoted server predicts the backend's id.
  refused_after_fence("INSV 0");
  const std::string insv = flushed("INSV 0");
  EXPECT_TRUE(insv.rfind("OK ", 0) == 0) << insv;
  ExpectVerifyOk(&client);
}

TEST(ReplFaultTest, RefusedBatchLeavesNoTraceEngine) {
  ExpectRefusedBatchLeavesNoTrace("engine");
}

TEST(ReplFaultTest, RefusedBatchLeavesNoTraceSharded) {
  ExpectRefusedBatchLeavesNoTrace("sharded");
}

// A TTL expiry refused at fencing time goes back on the wheel: after
// PROMOTE the edge still expires instead of living forever.
TEST(ReplFaultTest, RefusedExpiryExpiresAfterPromote) {
  const std::string dir = FreshDir("fault_refused_expiry");
  ServeOptions options;
  options.change_log_dir = dir;
  options.window_ttl_ms = 30;
  TestServer server(options);
  TestClient client(server.port());
  // Two solution members, so the inserted edge is new.
  const std::string solution = client.Ask("SOLUTION");
  long long count = 0, u = 0, v = 0;
  ASSERT_EQ(std::sscanf(solution.c_str(), "OK %lld %lld %lld", &count, &u,
                        &v),
            3)
      << solution;
  const std::string insert =
      "INS " + std::to_string(u) + " " + std::to_string(v);
  int64_t head = 0, epoch = 0;
  ReplStatus(&client, &head, &epoch);
  ASSERT_EQ(client.Ask(insert), "OK");
  std::string error;
  ASSERT_TRUE(repl::WriteEpochFile(dir, epoch + 1, &error)) << error;
  // The expiry's own flush (or the idle epoch probe) fences the server.
  ASSERT_TRUE(WaitUntil([&] {
    return client.Ask("STATS").find("\"role\":\"fenced\"") !=
           std::string::npos;
  }));
  ASSERT_TRUE(client.Ask("PROMOTE").rfind("OK PROMOTED ", 0) == 0);
  // Once the edge has expired, the same insert is admitted again.
  EXPECT_TRUE(WaitUntil([&] { return client.Ask(insert) == "OK"; }));
  ExpectVerifyOk(&client);
}

// Kill the primary, restart it on the same port from its change log: the
// follower must reconnect on its own (exponential backoff against the dead
// port), resubscribe from its last sequence, adopt the restarted primary's
// higher epoch from the stream, and converge byte-identically.
TEST(ReplFaultTest, FollowerReconnectsToRestartedPrimary) {
  const std::string dir = FreshDir("fault_reconnect");
  ServeOptions popts;
  popts.backend = "sharded";
  popts.shards = 2;
  popts.change_log_dir = dir;
  auto primary = std::make_unique<TestServer>(popts);
  const int primary_port = primary->port();
  {
    TestClient pc(primary->port());
    UpdateSource source(80);
    source.ChurnAcked(&pc, 30);
  }

  ServeOptions fopts;
  fopts.backend = "sharded";
  fopts.shards = 2;
  fopts.follow_addr = "127.0.0.1:" + std::to_string(primary_port);
  fopts.reconnect_max_ms = 200;  // Keep the retry cadence test-sized.
  TestServer follower(fopts);
  TestClient fc(follower.port());
  {
    TestClient pc(primary->port());
    int64_t head = 0, epoch = 0;
    ReplStatus(&pc, &head, &epoch);
    ASSERT_TRUE(WaitUntil([&] {
      int64_t fseq = 0, fepoch = 0;
      ReplStatus(&fc, &fseq, &fepoch);
      return fseq == head;
    }));
  }

  // Primary dies; the follower starts retrying against a closed port.
  primary->StopAndJoin();
  primary.reset();

  // Restart from the log on the same port (SO_REUSEADDR on the listener).
  repl::BootstrapResult boot;
  std::string error;
  ASSERT_TRUE(
      repl::BootstrapFromChangeLog(dir, TestGraph(), popts, &boot, &error))
      << error;
  popts.port = primary_port;
  popts.repl_start_seq = boot.next_seq;
  popts.bootstrap_base_seq = boot.base_seq;
  popts.start_epoch = boot.epoch;
  TestServer restarted(std::move(boot.backend), popts);
  ASSERT_EQ(restarted.port(), primary_port);

  TestClient pc(restarted.port());
  UpdateSource source(81);
  source.ChurnAcked(&pc, 20);
  int64_t head = 0, epoch = 0;
  ReplStatus(&pc, &head, &epoch);
  EXPECT_GE(epoch, 2);  // Second incarnation: strictly above the first.

  ASSERT_TRUE(WaitUntil([&] {
    int64_t fseq = 0, fepoch = 0;
    ReplStatus(&fc, &fseq, &fepoch);
    return fseq == head && fepoch == epoch;
  }));
  EXPECT_EQ(fc.Ask("SOLUTION"), pc.Ask("SOLUTION"));
  const std::string stats = fc.Ask("STATS");
  EXPECT_NE(stats.find("\"reconnects\":1"), std::string::npos) << stats;
  follower.StopAndJoin();
  EXPECT_GE(follower.server().MetricsSnapshot().repl_reconnects, 1);
}

// Scripted connection resets on the upstream socket: the follower still
// comes up (read-only, retrying with backoff), and catches up as soon as a
// connect attempt is allowed through. Only the server's upstream connect
// routes through faultfs — test clients use raw sockets and are untouched.
TEST(ReplFaultTest, ConnectFaultsAreRetriedWithBackoff) {
  const std::string dir = FreshDir("fault_connect");
  ServeOptions popts;
  popts.backend = "engine";
  popts.change_log_dir = dir;
  TestServer primary(popts);
  TestClient pc(primary.port());
  UpdateSource source(82);
  source.ChurnAcked(&pc, 20);
  int64_t head = 0, epoch = 0;
  ReplStatus(&pc, &head, &epoch);

  // The startup connect and the first backoff retry are refused; the third
  // attempt goes through.
  ScopedPlan plan("connect:reset@1x2");
  ServeOptions fopts;
  fopts.backend = "engine";
  fopts.follow_addr = "127.0.0.1:" + std::to_string(primary.port());
  fopts.reconnect_max_ms = 200;
  TestServer follower(fopts);
  TestClient fc(follower.port());
  ASSERT_TRUE(WaitUntil([&] {
    int64_t fseq = 0, fepoch = 0;
    ReplStatus(&fc, &fseq, &fepoch);
    return fseq == head;
  }));
  EXPECT_GE(faultfs::CountersFor(faultfs::Op::kConnect).faults, 2);
  EXPECT_EQ(fc.Ask("SOLUTION"), pc.Ask("SOLUTION"));
  const std::string stats = fc.Ask("STATS");
  EXPECT_NE(stats.find("\"reconnects\":1"), std::string::npos) << stats;
}

// Restart cycles over one directory: every incarnation claims a higher
// epoch, resumes the sequence space, tolerates the torn tail its
// predecessor left mid-append, and the final checkpoint bootstrap (base
// snapshot + tail) equals a clean full replay of every record.
TEST(ReplFaultTest, RestartCyclesRecoverByteIdentical) {
  const std::string dir = FreshDir("fault_cycles");
  ServeOptions options;
  options.backend = "sharded";
  options.shards = 2;
  options.change_log_dir = dir;
  options.snapshot_every_batches = 8;

  int64_t last_epoch = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ServeOptions cycle_options = options;
    std::unique_ptr<ServingBackend> backend;
    std::string error;
    if (cycle > 0) {
      repl::BootstrapResult boot;
      ASSERT_TRUE(repl::BootstrapFromChangeLog(dir, TestGraph(),
                                               cycle_options, &boot, &error))
          << error;
      backend = std::move(boot.backend);
      cycle_options.repl_start_seq = boot.next_seq;
      cycle_options.bootstrap_base_seq = boot.base_seq;
      cycle_options.start_epoch = boot.epoch;
    } else {
      backend = MakeServingBackend(TestGraph(), cycle_options, &error);
      ASSERT_NE(backend, nullptr) << error;
    }
    TestServer server(std::move(backend), cycle_options);
    TestClient client(server.port());
    UpdateSource source(83 + static_cast<uint64_t>(cycle));
    source.ChurnAcked(&client, 25);
    int64_t head = 0, epoch = 0;
    ReplStatus(&client, &head, &epoch);
    EXPECT_GT(epoch, last_epoch);  // Every incarnation claims a new term.
    last_epoch = epoch;
    ExpectVerifyOk(&client);
    if (cycle == 0) {
      // Make sure the background snapshotter has published at least one
      // base — the final bootstrap must exercise the checkpoint path.
      ASSERT_TRUE(WaitUntil([&] {
        repl::ChangeLogDirState state;
        std::string scan_error;
        return repl::ScanChangeLogDir(dir, &state, &scan_error) &&
               state.latest_base_seq > 0;
      }));
    }
    server.StopAndJoin();

    // Simulate dying mid-append: leave half a record at the newest
    // segment's tail. The next incarnation's higher epoch supersedes it.
    repl::ChangeLogDirState state;
    ASSERT_TRUE(repl::ScanChangeLogDir(dir, &state, &error)) << error;
    ASSERT_FALSE(state.segments.empty());
    repl::LogBatch torn;
    torn.seq = head;
    torn.epoch = epoch;
    GraphUpdate junk;
    junk.kind = UpdateKind::kInsertEdge;
    junk.u = 1;
    junk.v = 2;
    torn.updates.push_back(junk);
    const std::string record = repl::EncodeLogRecord(torn);
    std::ofstream out(state.segments.back().path,
                      std::ios::binary | std::ios::app);
    out.write(record.data(),
              static_cast<std::streamsize>(record.size() / 2));
  }

  // Byte-identical gate: checkpoint bootstrap (base + tail) and a full
  // from-scratch replay of every record agree exactly.
  std::string error;
  repl::BootstrapResult boot;
  ASSERT_TRUE(
      repl::BootstrapFromChangeLog(dir, TestGraph(), options, &boot, &error))
      << error;
  EXPECT_GT(boot.base_seq, 0);

  ServeOptions clean;
  clean.backend = options.backend;
  clean.shards = options.shards;
  auto replayed = MakeServingBackend(TestGraph(), clean, &error);
  ASSERT_NE(replayed, nullptr) << error;
  repl::ChangeLogCursor cursor;
  ASSERT_TRUE(cursor.Open(dir, 0, &error)) << error;
  int64_t replayed_to = 0;
  for (;;) {
    repl::LogBatch batch;
    bool available = false;
    ASSERT_TRUE(cursor.Next(&batch, &available, &error)) << error;
    if (!available) break;
    replayed->ApplyBatch(batch.updates);
    replayed_to = batch.seq + 1;
  }
  EXPECT_EQ(replayed_to, boot.next_seq);
  std::vector<VertexId> from_checkpoint;
  boot.backend->CollectSolution(&from_checkpoint);
  std::vector<VertexId> from_replay;
  replayed->CollectSolution(&from_replay);
  EXPECT_EQ(from_checkpoint, from_replay);
}

// Dying between a base snapshot's tmp write and its rename must leave no
// trace a scan would pick up, and the next writer cleans the stale tmp.
TEST(ReplFaultDeathTest, TornBaseSnapshotPublishIsInvisible) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = FreshDir("fault_torn_base");
  EXPECT_EXIT(
      {
        std::string error;
        if (!faultfs::ArmPlan("rename:torn~.snap", &error)) _exit(3);
        repl::WriteBaseSnapshot(dir, 9, /*epoch=*/1, "payload", &error);
        _exit(4);  // Unreachable: torn kills the process pre-rename.
      },
      ::testing::ExitedWithCode(faultfs::kCrashExitCode), "");
  repl::ChangeLogDirState state;
  std::string error;
  ASSERT_TRUE(repl::ScanChangeLogDir(dir, &state, &error)) << error;
  EXPECT_EQ(state.latest_base_seq, -1);  // The half publish is invisible.
  // The next writer incarnation sweeps the stale tmp.
  repl::ChangeLogWriter writer;
  ASSERT_TRUE(writer.Open(dir, 4 << 20, 0, /*epoch=*/2, &error)) << error;
  int tmp_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++tmp_files;
  }
  EXPECT_EQ(tmp_files, 0);
}

}  // namespace
}  // namespace serve
}  // namespace dynmis
