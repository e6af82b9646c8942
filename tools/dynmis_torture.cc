// dynmis_torture: crash-recovery torture harness for the serving layer.
//
// Each cycle forks a real server process over a shared --change-log
// directory, drives seeded single-client churn through the text protocol,
// then crashes the server — SIGKILL at a random point, or a scripted
// mid-syscall death when a --fault-plan is armed in the child — and checks
// the recovery invariants the replication design promises:
//
//   1. Clean-replay equivalence: bootstrapping from the newest base
//      snapshot + record tail yields exactly the state of replaying every
//      record from seq 0 (same solution, same id space).
//   2. Log integrity: the full replay hits no corruption — a torn record is
//      legal only as the live tail.
//   3. Acked-op survival: the log's flattened op sequence is a subsequence
//      of the ops this client sent, rejected ops never appear, and — when
//      no fault plan deliberately breaks durability — every acked op is
//      present.
//
// After the cycles, an optional split-brain leg (--split-brain, default on)
// promotes a follower over the shared directory and asserts the old
// primary fences itself: every subsequent write is answered `ERR fenced`,
// no diverging record is ever acked.
//
// Exit status 0 = all invariants held; 1 = a violation (diagnosed on
// stderr); 2 = usage error.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dynmis/serve.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/repl/bootstrap.h"
#include "src/repl/change_log.h"
#include "src/serve/line_client.h"
#include "src/serve/protocol.h"
#include "src/util/faultfs.h"
#include "src/util/random.h"

namespace dynmis {
namespace {

struct TortureOptions {
  int cycles = 15;
  int ops_per_cycle = 120;
  std::string backend = "sharded";
  int shards = 4;
  uint64_t seed = 1;
  std::string dir;          // Required: the shared change-log directory.
  std::string fault_plan;   // Armed in every child server.
  bool split_brain = true;  // Run the fencing leg after the crash cycles.
};

// The base graph every incarnation serves (must be identical across the
// harness and all children — replay correctness depends on it).
EdgeListGraph BaseGraph() {
  Rng rng(7);
  return ErdosRenyiGnm(150, 400, &rng);
}

serve::ServeOptions ServerOptions(const TortureOptions& opts) {
  serve::ServeOptions options;
  options.backend = opts.backend;
  options.shards = opts.shards;
  options.change_log_dir = opts.dir;
  options.log_segment_bytes = 1 << 14;  // Small segments: exercise rotation.
  options.snapshot_every_batches = 16;
  return options;
}

bool Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "torture: FAIL: %s: %s\n", what, detail.c_str());
  return false;
}

// One sent update and how the server answered it.
struct SentOp {
  GraphUpdate update;
  bool acked = false;  // "OK..." (applied); false = rejected/refused.
};

bool SameUpdate(const GraphUpdate& a, const GraphUpdate& b) {
  return a.kind == b.kind && a.u == b.u && a.v == b.v &&
         a.neighbors == b.neighbors;
}

// Forks a server process on the torture directory; the child bootstraps
// from the existing log (or starts fresh), arms the fault plan, reports its
// ephemeral port over a pipe, then serves until it dies. Returns the child
// pid with *port set, or -1 (child failed before binding; *status holds its
// wait status).
pid_t SpawnServer(const TortureOptions& opts, serve::ServeOptions options,
                  bool follower_of_dir, int* port, int* status) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return -1;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    std::string error;
    if (!opts.fault_plan.empty() &&
        !faultfs::ArmPlan(opts.fault_plan, &error)) {
      std::fprintf(stderr, "torture child: bad fault plan: %s\n",
                   error.c_str());
      _exit(1);
    }
    const std::string checkpoint_dir =
        follower_of_dir ? options.follow_dir : options.change_log_dir;
    std::unique_ptr<serve::ServingBackend> backend;
    repl::ChangeLogDirState state;
    if (repl::ScanChangeLogDir(checkpoint_dir, &state, &error) &&
        (!state.segments.empty() || state.latest_base_seq >= 0)) {
      repl::BootstrapResult boot;
      if (!repl::BootstrapFromChangeLog(checkpoint_dir, BaseGraph(), options,
                                        &boot, &error)) {
        std::fprintf(stderr, "torture child: bootstrap: %s\n", error.c_str());
        _exit(1);
      }
      backend = std::move(boot.backend);
      options.repl_start_seq = boot.next_seq;
      options.bootstrap_base_seq = boot.base_seq;
      options.start_epoch = boot.epoch;
    } else {
      backend = serve::MakeServingBackend(BaseGraph(), options, &error);
    }
    if (backend == nullptr) {
      std::fprintf(stderr, "torture child: backend: %s\n", error.c_str());
      _exit(1);
    }
    serve::Server server(std::move(backend), std::move(options));
    if (!server.Start(&error)) {
      std::fprintf(stderr, "torture child: start: %s\n", error.c_str());
      _exit(1);
    }
    serve::Server::InstallSignalHandlers(&server);
    char line[32];
    std::snprintf(line, sizeof(line), "%d\n", server.port());
    const size_t len = std::strlen(line);
    if (write(fds[1], line, len) != static_cast<ssize_t>(len)) _exit(1);
    close(fds[1]);
    _exit(server.Run());
  }
  close(fds[1]);
  // Read the child's port line (blocks until the child binds or dies).
  std::string line;
  char c;
  ssize_t n;
  while ((n = read(fds[0], &c, 1)) == 1 && c != '\n') line.push_back(c);
  close(fds[0]);
  if (line.empty()) {
    waitpid(pid, status, 0);
    return -1;
  }
  *port = std::atoi(line.c_str());
  *status = 0;
  return pid;
}

// Blocking text-protocol session with the usual HELLO 1 handshake.
bool Connect(int port, serve::LineClient* client, std::string* error) {
  if (!client->Connect("127.0.0.1", port, error)) return false;
  std::string greeting;
  if (!client->Ask("HELLO 1", &greeting) ||
      greeting.rfind("OK DYNMIS 1 ", 0) != 0) {
    *error = "handshake: " + greeting;
    return false;
  }
  return true;
}

// Replays the whole log from seq 0 onto a fresh backend. Appends every
// replayed op to *log_ops. Stops cleanly at the live tail (a torn last
// record is legal); any corruption is a failure.
std::unique_ptr<serve::ServingBackend> ReplayFull(
    const TortureOptions& opts, std::vector<GraphUpdate>* log_ops,
    std::string* error) {
  serve::ServeOptions clean;
  clean.backend = opts.backend;
  clean.shards = opts.shards;
  auto backend = serve::MakeServingBackend(BaseGraph(), clean, error);
  if (backend == nullptr) return nullptr;
  repl::ChangeLogCursor cursor;
  if (!cursor.Open(opts.dir, 0, error)) return nullptr;
  for (;;) {
    repl::LogBatch batch;
    bool available = false;
    if (!cursor.Next(&batch, &available, error)) return nullptr;
    if (!available) return backend;  // Live tail: replay complete.
    backend->ApplyBatch(batch.updates);
    log_ops->insert(log_ops->end(), batch.updates.begin(),
                    batch.updates.end());
  }
}

// The per-cycle recovery gate (invariants 1-3 above). `sent` covers every
// op this harness has sent since the directory was fresh.
bool CheckRecovery(const TortureOptions& opts,
                   const std::vector<SentOp>& sent) {
  std::string error;
  std::vector<GraphUpdate> log_ops;
  auto replayed = ReplayFull(opts, &log_ops, &error);
  if (replayed == nullptr) return Fail("full replay", error);

  serve::ServeOptions options = ServerOptions(opts);
  repl::BootstrapResult boot;
  if (!repl::BootstrapFromChangeLog(opts.dir, BaseGraph(), options, &boot,
                                    &error)) {
    return Fail("checkpoint bootstrap", error);
  }
  std::vector<VertexId> replay_solution;
  replayed->CollectSolution(&replay_solution);
  std::vector<VertexId> boot_solution;
  boot.backend->CollectSolution(&boot_solution);
  if (replay_solution != boot_solution) {
    return Fail("clean-replay equivalence",
                "bootstrap solution (" +
                    std::to_string(boot_solution.size()) +
                    " vertices) differs from full replay (" +
                    std::to_string(replay_solution.size()) + ")");
  }

  // The logged ops must be, in order, a subset of the sent ops: walk the
  // log against the send history. A log op with no matching sent op is a
  // phantom (corruption); a rejected op in the log is an admission bug.
  size_t cursor = 0;
  int64_t lost_acked = 0;
  for (size_t i = 0; i < log_ops.size(); ++i) {
    size_t j = cursor;
    while (j < sent.size() && !SameUpdate(sent[j].update, log_ops[i])) ++j;
    if (j == sent.size()) {
      return Fail("acked-op survival",
                  "log op " + std::to_string(i) +
                      " does not match any remaining sent op");
    }
    for (size_t k = cursor; k < j; ++k) {
      if (sent[k].acked) ++lost_acked;
    }
    if (!sent[j].acked) {
      return Fail("acked-op survival",
                  "op at send index " + std::to_string(j) +
                      " was not acked OK but is in the log");
    }
    cursor = j + 1;
  }
  for (size_t k = cursor; k < sent.size(); ++k) {
    if (sent[k].acked) ++lost_acked;
  }
  // A scripted append/fsync fault may legally drop acked batches that were
  // buffered in degraded mode when the crash hit; without one, acked means
  // durable against process death.
  if (lost_acked > 0 && opts.fault_plan.empty()) {
    return Fail("acked-op survival",
                std::to_string(lost_acked) + " acked ops missing from log");
  }
  if (lost_acked > 0) {
    std::fprintf(stderr,
                 "torture: note: %lld acked ops lost to scripted faults\n",
                 static_cast<long long>(lost_acked));
  }
  return true;
}

// Drives `count` seeded ops through `client`, recording every sent op and
// its ack into *sent and mirroring into *mirror (the generator's context).
// Returns the number of ops actually answered before the connection died
// (an armed fault plan can kill the child mid-churn).
int Churn(serve::LineClient* client, UpdateStreamGenerator* generator,
          DynamicGraph* mirror, int count, std::vector<SentOp>* sent) {
  for (int i = 0; i < count; ++i) {
    const GraphUpdate update = generator->Next(*mirror);
    ApplyUpdate(mirror, update);
    std::string response;
    if (!client->Ask(serve::FormatCommandLine(update), &response)) {
      return i;  // Peer died: the op's fate is unknown; do not record it.
    }
    SentOp op;
    op.update = update;
    op.acked = response.rfind("OK", 0) == 0;
    sent->push_back(op);
  }
  return count;
}

// True when `status` is one of the two deaths the harness inflicts (or
// scripts): SIGKILL, or the fault plan's crash-before-syscall exit.
bool ExpectedCrash(int status) {
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return true;
  return WIFEXITED(status) && WEXITSTATUS(status) == faultfs::kCrashExitCode;
}

bool RunCycles(const TortureOptions& opts) {
  Rng rng(opts.seed);
  DynamicGraph mirror = BaseGraph().ToDynamic();
  UpdateStreamOptions stream;
  stream.seed = opts.seed ^ 0x5bd1e995;
  UpdateStreamGenerator generator(stream, BaseGraph());
  std::vector<SentOp> sent;

  for (int cycle = 0; cycle < opts.cycles; ++cycle) {
    int port = 0;
    int status = 0;
    const pid_t pid =
        SpawnServer(opts, ServerOptions(opts), false, &port, &status);
    if (pid < 0) {
      if (ExpectedCrash(status)) {
        // The fault plan killed the child during startup/recovery; that is
        // itself a crash point. Check the directory and try again.
        std::fprintf(stderr, "torture: cycle %d: scripted crash at startup\n",
                     cycle);
        if (!CheckRecovery(opts, sent)) return false;
        continue;
      }
      return Fail("spawn", "server child failed to start (status " +
                               std::to_string(status) + ")");
    }

    serve::LineClient client;
    std::string error;
    if (!Connect(port, &client, &error)) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return Fail("connect", error);
    }
    const int target =
        1 + static_cast<int>(rng.NextBounded(
                static_cast<uint64_t>(opts.ops_per_cycle)));
    const int answered = Churn(&client, &generator, &mirror, target, &sent);
    if (answered == target) {
      kill(pid, SIGKILL);  // Crash mid-flight, between acked round trips.
    }
    waitpid(pid, &status, 0);
    if (!ExpectedCrash(status)) {
      return Fail("crash", "child died unexpectedly (status " +
                               std::to_string(status) + ")");
    }
    if (!CheckRecovery(opts, sent)) {
      std::fprintf(stderr, "torture: cycle %d failed after %d ops\n", cycle,
                   answered);
      return false;
    }
    std::fprintf(stderr, "torture: cycle %d ok (%d ops, %zu sent total)\n",
                 cycle, answered, sent.size());
  }

  // Final incarnation: recover once more and let the server prove the
  // maintained solution is a valid MIS over its own replica graph.
  int port = 0;
  int status = 0;
  TortureOptions clean = opts;
  clean.fault_plan.clear();  // The verification server must stay healthy.
  const pid_t pid =
      SpawnServer(clean, ServerOptions(clean), false, &port, &status);
  if (pid < 0) return Fail("final spawn", "server child failed to start");
  serve::LineClient client;
  std::string error;
  if (!Connect(port, &client, &error)) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return Fail("final connect", error);
  }
  std::string verdict;
  if (!client.Ask("VERIFY", &verdict) ||
      verdict.find("independent=1") == std::string::npos ||
      verdict.find("maximal=1") == std::string::npos) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return Fail("VERIFY", verdict);
  }
  kill(pid, SIGTERM);
  waitpid(pid, &status, 0);
  std::fprintf(stderr, "torture: %d crash cycles ok, VERIFY green\n",
               opts.cycles);
  return true;
}

// Split-brain: promote a follower over the shared directory and assert the
// old primary fences itself instead of acking a diverging record.
bool RunSplitBrain(const TortureOptions& opts) {
  TortureOptions clean = opts;
  clean.fault_plan.clear();  // This leg tests fencing, not fault injection.

  int a_port = 0;
  int status = 0;
  const pid_t a_pid =
      SpawnServer(clean, ServerOptions(clean), false, &a_port, &status);
  if (a_pid < 0) return Fail("split-brain", "primary failed to start");
  serve::LineClient ac;
  std::string error;
  if (!Connect(a_port, &ac, &error)) {
    kill(a_pid, SIGKILL);
    waitpid(a_pid, &status, 0);
    return Fail("split-brain connect", error);
  }

  // Fresh churn so the follower has history to catch up on.
  DynamicGraph mirror = BaseGraph().ToDynamic();
  UpdateStreamOptions stream;
  stream.seed = opts.seed ^ 0x9e3779b9;
  UpdateStreamGenerator generator(stream, BaseGraph());
  std::vector<SentOp> sent;
  Churn(&ac, &generator, &mirror, 40, &sent);
  std::string head;
  if (!ac.Ask("REPL STATUS", &head) || head.rfind("OK REPL ", 0) != 0) {
    kill(a_pid, SIGKILL);
    waitpid(a_pid, &status, 0);
    return Fail("split-brain", "REPL STATUS: " + head);
  }
  const long long head_seq = std::atoll(head.c_str() + 8);

  serve::ServeOptions follower = ServerOptions(clean);
  follower.change_log_dir.clear();
  follower.snapshot_every_batches = 0;
  follower.follow_dir = clean.dir;
  int b_port = 0;
  const pid_t b_pid = SpawnServer(clean, follower, true, &b_port, &status);
  if (b_pid < 0) {
    kill(a_pid, SIGKILL);
    waitpid(a_pid, &status, 0);
    return Fail("split-brain", "follower failed to start");
  }
  serve::LineClient bc;
  if (!Connect(b_port, &bc, &error)) {
    kill(a_pid, SIGKILL);
    kill(b_pid, SIGKILL);
    waitpid(a_pid, &status, 0);
    waitpid(b_pid, &status, 0);
    return Fail("split-brain follower connect", error);
  }
  const auto cleanup = [&] {
    kill(a_pid, SIGTERM);
    kill(b_pid, SIGTERM);
    waitpid(a_pid, &status, 0);
    waitpid(b_pid, &status, 0);
  };

  // Wait for catch-up (directory tailing is asynchronous).
  for (int i = 0;; ++i) {
    std::string reply;
    if (!bc.Ask("REPL STATUS", &reply) || reply.rfind("OK REPL ", 0) != 0) {
      cleanup();
      return Fail("split-brain", "follower REPL STATUS: " + reply);
    }
    if (std::atoll(reply.c_str() + 8) >= head_seq) break;
    if (i > 5000) {
      cleanup();
      return Fail("split-brain", "follower never caught up to seq " +
                                     std::to_string(head_seq));
    }
    usleep(2000);
  }

  std::string promoted;
  if (!bc.Ask("PROMOTE", &promoted) ||
      promoted.rfind("OK PROMOTED ", 0) != 0) {
    cleanup();
    return Fail("split-brain PROMOTE", promoted);
  }

  // Every write the zombie primary accepts after the promotion would be a
  // diverging record; it must refuse them all with ERR fenced (the epoch
  // file it shares with the new primary is its tripwire).
  for (int i = 0; i < 10; ++i) {
    const GraphUpdate update = generator.Next(mirror);
    ApplyUpdate(&mirror, update);
    std::string response;
    if (!ac.Ask(serve::FormatCommandLine(update), &response)) {
      cleanup();
      return Fail("split-brain", "old primary died instead of fencing");
    }
    if (response.rfind("ERR fenced", 0) != 0) {
      cleanup();
      return Fail("split-brain",
                  "old primary answered '" + response +
                      "' after promotion (want ERR fenced)");
    }
  }
  std::string stats;
  if (!ac.Ask("STATS", &stats) ||
      stats.find("\"role\":\"fenced\"") == std::string::npos) {
    cleanup();
    return Fail("split-brain", "old primary STATS lacks fenced role");
  }

  // The new primary owns the log now: writes flow and VERIFY stays green.
  Churn(&bc, &generator, &mirror, 30, &sent);
  std::string verdict;
  if (!bc.Ask("VERIFY", &verdict) ||
      verdict.find("independent=1") == std::string::npos ||
      verdict.find("maximal=1") == std::string::npos) {
    cleanup();
    return Fail("split-brain VERIFY", verdict);
  }
  cleanup();
  std::fprintf(stderr, "torture: split-brain leg ok (old primary fenced)\n");
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dynmis_torture --dir DIR [--cycles N] [--ops N]\n"
      "                      [--backend engine|sharded] [--shards N]\n"
      "                      [--seed N] [--fault-plan PLAN]\n"
      "                      [--no-split-brain]\n");
  return 2;
}

int Main(int argc, char** argv) {
  TortureOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.dir = v;
    } else if (arg == "--cycles") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.cycles = std::atoi(v);
    } else if (arg == "--ops") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.ops_per_cycle = std::atoi(v);
    } else if (arg == "--backend") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.backend = v;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.shards = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--fault-plan") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.fault_plan = v;
    } else if (arg == "--no-split-brain") {
      opts.split_brain = false;
    } else {
      return Usage();
    }
  }
  if (opts.dir.empty() || opts.cycles < 1 || opts.ops_per_cycle < 1) {
    return Usage();
  }
  // Validate the plan in the parent too (children arm it after fork).
  std::string error;
  if (!opts.fault_plan.empty() && !faultfs::ArmPlan(opts.fault_plan, &error)) {
    std::fprintf(stderr, "bad --fault-plan: %s\n", error.c_str());
    return 2;
  }
  faultfs::Disarm();  // The parent's own checks must run clean.
  signal(SIGPIPE, SIG_IGN);

  if (!RunCycles(opts)) return 1;
  if (opts.split_brain && !RunSplitBrain(opts)) return 1;
  std::fprintf(stderr, "torture: PASS\n");
  return 0;
}

}  // namespace
}  // namespace dynmis

int main(int argc, char** argv) { return dynmis::Main(argc, argv); }
