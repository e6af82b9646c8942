// Loopback end-to-end tests for the replication subsystem: a real primary
// and follower on ephemeral ports driven through real sockets — follower
// bootstrap from a background checkpoint (base snapshot + log tail),
// directory and TCP change-log tailing, byte-identical SOLUTION agreement
// at the same batch boundary, read-only enforcement, primary kill +
// promotion with id-exact vertex allocation, and online resharding under
// live churn. Runs under ASan and TSan in CI like serve_e2e_test (the
// serving threads + churn clients + snapshot/reshard workers are exactly
// the concurrency TSan should be watching).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dynmis/serve.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/ingest/key_map.h"
#include "src/io/snapshot.h"
#include "src/repl/bootstrap.h"
#include "src/repl/change_log.h"
#include "src/serve/line_client.h"
#include "src/serve/protocol.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace serve {
namespace {

EdgeListGraph TestGraph() {
  Rng rng(7);
  return ErdosRenyiGnm(150, 400, &rng);
}

// A fresh, empty change-log directory (leftovers from prior runs removed —
// the bootstrap scan would otherwise replay a stale log).
std::string FreshDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

// A Server on 127.0.0.1:<ephemeral> with its Run() loop on its own thread.
class TestServer {
 public:
  explicit TestServer(ServeOptions options,
                      const EdgeListGraph& base = TestGraph()) {
    options.port = 0;
    std::string error;
    auto backend = MakeServingBackend(base, options, &error);
    EXPECT_NE(backend, nullptr) << error;
    Launch(std::move(backend), std::move(options), {});
  }

  // Follower bootstrap and warm restart: the backend was built by
  // BootstrapFromChangeLog or RestoreServingBackend rather than from a base
  // graph, and `keymap` holds the key bindings restored with it.
  TestServer(std::unique_ptr<ServingBackend> backend, ServeOptions options,
             ingest::KeyMap keymap = {}) {
    options.port = 0;
    Launch(std::move(backend), std::move(options), std::move(keymap));
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
  void Launch(std::unique_ptr<ServingBackend> backend, ServeOptions options,
              ingest::KeyMap keymap) {
    // Multi-threaded I/O everywhere: replication (SUBSCRIBE streams,
    // PROMOTE, RESHARD) must behave identically through the mailbox
    // transport.
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

// Thin gtest wrapper over the shared blocking client.
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

  void Send(const std::string& line) { EXPECT_TRUE(client_.SendLine(line)); }

  std::string ReadLine() {
    std::string line;
    return client_.ReadLine(&line) ? line : "";
  }

  std::string Ask(const std::string& line) {
    Send(line);
    return ReadLine();
  }

 private:
  LineClient client_;
};

// Drives `count` protocol updates from one client, drawing from a seeded
// generator over a private mirror (invalid ops against the live server are
// expected and must come back as ERR, never crash anything).
void Churn(int port, uint64_t seed, int count) {
  TestClient client(port);
  DynamicGraph mirror = TestGraph().ToDynamic();
  UpdateStreamOptions stream;
  stream.seed = seed;
  UpdateStreamGenerator generator(stream);
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

// `REPL STATUS` answers "OK REPL <next_seq>" (and flushes pending admits
// first, so the reply is a batch boundary).
int64_t ReplSeq(TestClient* client) {
  const std::string response = client->Ask("REPL STATUS");
  EXPECT_TRUE(response.rfind("OK REPL ", 0) == 0) << response;
  return std::stoll(response.substr(8));
}

// Polls `done` until it holds or ~15s pass. Replication catch-up, snapshot
// completion, and reshard cutover are all asynchronous.
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

// The acceptance-criteria path: a follower bootstrapped from a *background*
// checkpoint (base snapshot + record tail) catches up by tailing the
// primary's change-log directory and reports a SOLUTION byte-identical to
// the primary's at the same batch boundary.
TEST(ReplFollowDirTest, CheckpointBootstrapCatchesUpByteIdentical) {
  const std::string dir = FreshDir("repl_e2e_followdir");
  ServeOptions popts;
  popts.backend = "sharded";
  popts.shards = 4;
  popts.change_log_dir = dir;
  popts.snapshot_every_batches = 8;
  TestServer primary(popts);
  Churn(primary.port(), 21, 150);

  TestClient pc(primary.port());
  const int64_t head = ReplSeq(&pc);
  EXPECT_GT(head, 0);
  // A background base snapshot must have landed (they publish
  // asynchronously; churn above crossed the every-8-batches trigger many
  // times over).
  ASSERT_TRUE(WaitUntil([&] {
    repl::ChangeLogDirState state;
    std::string error;
    return repl::ScanChangeLogDir(dir, &state, &error) &&
           state.latest_base_seq > 0;
  }));

  ServeOptions fopts = popts;
  fopts.change_log_dir.clear();
  fopts.snapshot_every_batches = 0;
  fopts.follow_dir = dir;
  repl::BootstrapResult boot;
  std::string error;
  ASSERT_TRUE(repl::BootstrapFromChangeLog(dir, TestGraph(), fopts, &boot,
                                           &error))
      << error;
  EXPECT_GT(boot.base_seq, 0);  // Genuinely restored from a checkpoint.
  EXPECT_LE(boot.next_seq, head);
  fopts.repl_start_seq = boot.next_seq;
  fopts.bootstrap_base_seq = boot.base_seq;
  TestServer follower(std::move(boot.backend), fopts);
  TestClient fc(follower.port());

  ASSERT_TRUE(WaitUntil([&] { return ReplSeq(&fc) == head; }));
  const std::string psol = pc.Ask("SOLUTION");
  EXPECT_EQ(fc.Ask("SOLUTION"), psol);

  // Followers serve reads but refuse the whole write surface.
  EXPECT_TRUE(fc.Ask("INS 1 2").rfind("ERR readonly", 0) == 0);
  EXPECT_TRUE(fc.Ask("INSV").rfind("ERR readonly", 0) == 0);
  ExpectVerifyOk(&fc);

  // New primary batches keep flowing through the tailed directory.
  Churn(primary.port(), 22, 60);
  const int64_t head2 = ReplSeq(&pc);
  EXPECT_GT(head2, head);
  ASSERT_TRUE(WaitUntil([&] { return ReplSeq(&fc) == head2; }));
  EXPECT_EQ(fc.Ask("SOLUTION"), pc.Ask("SOLUTION"));
}

// TCP shipping under concurrent multi-client churn, then primary kill and
// promotion: the follower must converge byte-for-byte, take over writes
// after PROMOTE, and allocate vertex ids exactly as the primary would have
// (the freed id comes back LIFO on both sides).
TEST(ReplTcpFollowTest, ChurnKillPrimaryPromoteIdExact) {
  const std::string dir = FreshDir("repl_e2e_tcp");
  ServeOptions popts;
  popts.backend = "sharded";
  popts.shards = 4;
  popts.change_log_dir = dir;  // Late subscribers catch up from disk.
  TestServer primary(popts);
  // History from before the follower connects exercises the disk catch-up
  // path of REPL SUBSCRIBE before the live-streaming hand-off.
  Churn(primary.port(), 31, 60);

  ServeOptions fopts;
  fopts.backend = "sharded";
  fopts.shards = 4;
  fopts.follow_addr = "127.0.0.1:" + std::to_string(primary.port());
  TestServer follower(fopts);

  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back(
        [&, i] { Churn(primary.port(), 41 + i, 80); });
  }
  for (std::thread& t : clients) t.join();

  TestClient pc(primary.port());
  // Insert-then-delete parks a known id on the primary's free list; the
  // batches replicate, so the follower's free list must match.
  const std::string insv = pc.Ask("INSV");
  ASSERT_TRUE(insv.rfind("OK ", 0) == 0) << insv;
  const std::string freed_id = insv.substr(3);
  EXPECT_EQ(pc.Ask("DELV " + freed_id), "OK");

  const int64_t head = ReplSeq(&pc);
  const std::string psol = pc.Ask("SOLUTION");
  TestClient fc(follower.port());
  ASSERT_TRUE(WaitUntil([&] { return ReplSeq(&fc) == head; }));
  EXPECT_EQ(fc.Ask("SOLUTION"), psol);
  EXPECT_TRUE(fc.Ask("DELV 0").rfind("ERR readonly", 0) == 0);

  // Kill the primary mid-stream (the follower is still subscribed), then
  // promote the survivor.
  primary.StopAndJoin();
  const std::string promoted = fc.Ask("PROMOTE");
  EXPECT_TRUE(promoted.rfind("OK PROMOTED ", 0) == 0) << promoted;

  // Id-exact allocation: the next INSV pops exactly the id the dead
  // primary freed.
  EXPECT_EQ(fc.Ask("INSV"), "OK " + freed_id);
  ExpectVerifyOk(&fc);

  // The promoted follower now takes regular write traffic.
  Churn(follower.port(), 51, 40);
  ExpectVerifyOk(&fc);
}

// Online resharding: S=4 -> 2 -> 8 under live churn, with id allocation
// preserved across the backend swap and VERIFY passing after each cutover.
TEST(ReplReshardTest, OnlineReshardDownAndUpUnderChurn) {
  ServeOptions options;
  options.backend = "sharded";
  options.shards = 4;
  TestServer server(options);
  Churn(server.port(), 61, 60);

  TestClient client(server.port());
  const std::string insv = client.Ask("INSV");
  ASSERT_TRUE(insv.rfind("OK ", 0) == 0) << insv;
  const std::string freed_id = insv.substr(3);
  EXPECT_EQ(client.Ask("DELV " + freed_id), "OK");

  EXPECT_EQ(client.Ask("RESHARD 2"), "OK RESHARD started 2");
  ASSERT_TRUE(WaitUntil([&] {
    const std::string stats = client.Ask("STATS");
    return stats.find("\"resharded\":1") != std::string::npos &&
           stats.find("\"shards\":2,") != std::string::npos;
  }));
  // Id-exact across the swap: the 2-shard backend inherited the free list,
  // so the next INSV pops exactly the id parked before resharding.
  EXPECT_EQ(client.Ask("INSV"), "OK " + freed_id);
  ExpectVerifyOk(&client);

  EXPECT_EQ(client.Ask("RESHARD 8"), "OK RESHARD started 8");
  // Writes keep flowing while the 8-shard backend rebuilds and replays.
  Churn(server.port(), 63, 40);
  ASSERT_TRUE(WaitUntil([&] {
    const std::string stats = client.Ask("STATS");
    return stats.find("\"resharded\":2") != std::string::npos &&
           stats.find("\"shards\":8,") != std::string::npos;
  }));
  ExpectVerifyOk(&client);

  // A plan token on the RESHARD line switches the partition plan during
  // the rebuild; STATS' sharded block reports the new plan plus the
  // resolver's barrier counters.
  EXPECT_EQ(client.Ask("RESHARD 4 locality"), "OK RESHARD started 4 locality");
  ASSERT_TRUE(WaitUntil([&] {
    const std::string stats = client.Ask("STATS");
    return stats.find("\"resharded\":3") != std::string::npos &&
           stats.find("\"shards\":4,") != std::string::npos &&
           stats.find("\"partition\":\"locality\"") != std::string::npos;
  }));
  const std::string stats = client.Ask("STATS");
  EXPECT_NE(stats.find("\"barriers\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"conflicts\":"), std::string::npos) << stats;
  Churn(server.port(), 67, 40);
  ExpectVerifyOk(&client);
}

// Loads the "keymap" section of the snapshot container at `path` and
// returns its canonical serialization (SaveTo emits ascending id order, so
// equal bindings mean equal bytes).
std::string KeymapSectionBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  SnapshotReader reader;
  EXPECT_TRUE(reader.ReadFrom(in).ok);
  EXPECT_TRUE(reader.HasSection("keymap"));
  ingest::KeyMap map;
  EXPECT_TRUE(map.LoadFrom(&reader));
  SnapshotWriter writer;
  map.SaveTo(&writer);
  std::ostringstream out;
  EXPECT_TRUE(writer.WriteTo(out).ok);
  return out.str();
}

// External-key bindings persist through the snapshot container: a server
// restored from SNAPSHOT answers KQUERY byte-identically to the primary at
// checkpoint time (post-checkpoint keyed churn must not leak in), and its
// re-serialized keymap section is byte-identical to the checkpoint's.
TEST(ReplKeyedTest, KeymapSnapshotRoundTrip) {
  ServeOptions options;
  TestServer server(options);
  TestClient client(server.port());

  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "item-" + std::to_string(i);
    std::string cmd = "KINS " + key;
    if (i % 3 == 0) cmd += " 1 2 3";
    const std::string reply = client.Ask(cmd);
    ASSERT_TRUE(reply.rfind("OK ", 0) == 0) << reply;
    keys.push_back(key);
  }
  EXPECT_EQ(client.Ask("KDEL item-3"), "OK");

  std::map<std::string, std::string> answers;
  for (const std::string& key : keys) {
    answers[key] = client.Ask("KQUERY " + key);
  }
  EXPECT_TRUE(answers["item-3"].rfind("ERR unknown key", 0) == 0);

  const std::string snap = ::testing::TempDir() + "/repl_keyed.snap";
  const std::string snap2 = ::testing::TempDir() + "/repl_keyed2.snap";
  std::remove(snap.c_str());
  std::remove(snap2.c_str());
  ASSERT_TRUE(client.Ask("SNAPSHOT " + snap).rfind("OK", 0) == 0);

  // Post-checkpoint keyed churn the restore must NOT reflect.
  ASSERT_TRUE(client.Ask("KINS after-snap").rfind("OK ", 0) == 0);
  EXPECT_EQ(client.Ask("KDEL item-1"), "OK");
  server.StopAndJoin();

  // Warm restart the way `dynmis_cli serve --restore` does it.
  std::ifstream snap_in(snap, std::ios::binary);
  std::string error;
  ingest::KeyMap restored_keys;
  auto restored_backend =
      RestoreServingBackend(snap_in, &error, &restored_keys);
  ASSERT_NE(restored_backend, nullptr) << error;
  TestServer restored(std::move(restored_backend), ServeOptions{},
                      std::move(restored_keys));
  TestClient rc(restored.port());
  for (const std::string& key : keys) {
    EXPECT_EQ(rc.Ask("KQUERY " + key), answers[key]) << key;
  }
  EXPECT_TRUE(rc.Ask("KQUERY after-snap").rfind("ERR unknown key", 0) == 0);
  const std::string stats = rc.Ask("STATS");
  EXPECT_NE(stats.find("\"keymap_entries\":11"), std::string::npos) << stats;

  // Re-checkpoint before any mutation: the keymap section must round-trip
  // byte-identically through save -> load -> save.
  ASSERT_TRUE(rc.Ask("SNAPSHOT " + snap2).rfind("OK", 0) == 0);
  EXPECT_EQ(KeymapSectionBytes(snap), KeymapSectionBytes(snap2));

  // The restored map is live, both directions.
  EXPECT_EQ(rc.Ask("KDEL item-2"), "OK");
  EXPECT_TRUE(rc.Ask("KQUERY item-2").rfind("ERR unknown key", 0) == 0);
  ASSERT_TRUE(rc.Ask("KINS item-3 1 2").rfind("OK ", 0) == 0);
  EXPECT_TRUE(rc.Ask("KQUERY item-3").rfind("OK ", 0) == 0);
  ExpectVerifyOk(&rc);
}

// The keyed acceptance path: keyed ops replicate through the change-log, a
// follower resolves every key byte-identically to the primary, keeps doing
// so after the primary dies and it is promoted, and then takes keyed
// writes itself. Also pins the dir-bootstrap keymap (base "keymap" section
// + keyed tail replay) to the primary's checkpoint bytes.
TEST(ReplKeyedTest, FollowerResolvesKeysByteIdenticalThroughPromotion) {
  const std::string dir = FreshDir("repl_e2e_keyed");
  ServeOptions popts;
  popts.backend = "sharded";
  popts.shards = 4;
  popts.change_log_dir = dir;
  popts.snapshot_every_batches = 8;
  TestServer primary(popts);
  Churn(primary.port(), 71, 60);

  TestClient pc(primary.port());
  // Keys with edges among themselves: neighbors are ids of earlier keyed
  // vertices, which are guaranteed alive at admission time (the churn
  // stream might have deleted any particular base vertex).
  std::vector<std::string> keys;
  std::vector<std::string> key_ids;
  for (int i = 0; i < 20; ++i) {
    const std::string key = "user-" + std::to_string(i);
    std::string cmd = "KINS " + key;
    if (i % 3 == 0 && i >= 2) {
      cmd += " " + key_ids[i - 1] + " " + key_ids[i - 2];
    }
    const std::string reply = pc.Ask(cmd);
    ASSERT_TRUE(reply.rfind("OK ", 0) == 0) << reply;
    keys.push_back(key);
    key_ids.push_back(reply.substr(3));
  }
  // Keyed deletes, a rebind (the key returns under a fresh binding), and an
  // unkeyed DELV of a keyed vertex (the binding must die with the vertex —
  // on the follower too).
  for (int i = 0; i < 20; i += 5) {
    EXPECT_EQ(pc.Ask("KDEL user-" + std::to_string(i)), "OK");
  }
  ASSERT_TRUE(pc.Ask("KINS user-0").rfind("OK ", 0) == 0);
  const std::string q7 = pc.Ask("KQUERY user-7");
  long long id7 = -1;
  ASSERT_EQ(std::sscanf(q7.c_str(), "OK %lld", &id7), 1) << q7;
  EXPECT_EQ(pc.Ask("DELV " + std::to_string(id7)), "OK");
  Churn(primary.port(), 72, 40);

  std::map<std::string, std::string> answers;
  for (const std::string& key : keys) {
    answers[key] = pc.Ask("KQUERY " + key);
  }
  EXPECT_TRUE(answers["user-7"].rfind("ERR unknown key", 0) == 0);
  EXPECT_TRUE(answers["user-0"].rfind("OK ", 0) == 0);
  const int64_t head = ReplSeq(&pc);
  const std::string psol = pc.Ask("SOLUTION");

  ServeOptions fopts;
  fopts.backend = "sharded";
  fopts.shards = 4;
  fopts.follow_addr = "127.0.0.1:" + std::to_string(primary.port());
  TestServer follower(fopts);
  TestClient fc(follower.port());
  ASSERT_TRUE(WaitUntil([&] { return ReplSeq(&fc) == head; }));
  EXPECT_EQ(fc.Ask("SOLUTION"), psol);
  for (const std::string& key : keys) {
    EXPECT_EQ(fc.Ask("KQUERY " + key), answers[key]) << key;
  }
  // The keyed write surface is read-only on a follower like everything
  // else.
  EXPECT_TRUE(fc.Ask("KINS nope").rfind("ERR readonly", 0) == 0);
  EXPECT_TRUE(fc.Ask("KDEL user-1").rfind("ERR readonly", 0) == 0);

  // Independent check on the persistence path: bootstrapping from the
  // primary's checkpoint directory rebuilds a keymap whose serialization is
  // byte-identical to the one the live follower would save — both must
  // match the primary's bindings at `head`.
  ASSERT_TRUE(WaitUntil([&] {
    repl::ChangeLogDirState state;
    std::string error;
    return repl::ScanChangeLogDir(dir, &state, &error) &&
           state.latest_base_seq > 0;
  }));
  repl::BootstrapResult boot;
  std::string error;
  ASSERT_TRUE(
      repl::BootstrapFromChangeLog(dir, TestGraph(), popts, &boot, &error))
      << error;
  if (boot.next_seq == head) {
    for (const std::string& key : keys) {
      const VertexId id = boot.keymap.Lookup(key);
      if (answers[key].rfind("ERR", 0) == 0) {
        EXPECT_EQ(id, kInvalidVertex) << key;
      } else {
        EXPECT_EQ("OK " + std::to_string(id),
                  answers[key].substr(0, answers[key].rfind(' ')))
            << key;
      }
    }
  }

  // Kill the primary and promote: resolution must not change.
  primary.StopAndJoin();
  const std::string promoted = fc.Ask("PROMOTE");
  EXPECT_TRUE(promoted.rfind("OK PROMOTED ", 0) == 0) << promoted;
  for (const std::string& key : keys) {
    EXPECT_EQ(fc.Ask("KQUERY " + key), answers[key]) << key;
  }

  // The promoted keymap is live: keyed writes flow and resolve. Pick a key
  // that is still bound (the unkeyed churn may have reaped any given one).
  std::string bound_key;
  for (const std::string& key : keys) {
    if (key != "user-5" && answers[key].rfind("OK ", 0) == 0) {
      bound_key = key;
      break;
    }
  }
  ASSERT_FALSE(bound_key.empty());
  EXPECT_EQ(fc.Ask("KDEL " + bound_key), "OK");
  EXPECT_TRUE(
      fc.Ask("KQUERY " + bound_key).rfind("ERR unknown key", 0) == 0);
  ASSERT_TRUE(fc.Ask("KINS user-5").rfind("OK ", 0) == 0);
  EXPECT_TRUE(fc.Ask("KQUERY user-5").rfind("OK ", 0) == 0);
  ExpectVerifyOk(&fc);
}

}  // namespace
}  // namespace serve
}  // namespace dynmis
