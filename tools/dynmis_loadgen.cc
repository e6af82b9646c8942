// dynmis_loadgen: closed-loop load generator for the serving layer.
//
// Opens N connections to a dynmis_cli serve instance, replays a bench
// scenario's update distribution through them (windowed pipelining, so the
// server's admission layer sees genuine cross-connection concurrency), then
// runs a verification pass over a control connection:
//
//   * VERIFY        server-side independence + maximality of the solution,
//   * TRACE         exports the applied-op sequence *with the server's
//                   ApplyBatch boundaries*; the loadgen rebuilds a mirror
//                   graph from it, re-checks the solution client-side, and
//                   replays the trace through an in-process backend of the
//                   same shape — identical final solution required,
//   * SNAPSHOT      checkpoints the live server; the loadgen restores the
//                   file in-process, requires the identical solution, then
//                   drives both the server and the restored engine through
//                   the same resume stream and requires they still agree
//                   (the warm-failover contract, measured end to end).
//
// Emits the bench JSON schema with a top-level "serving" block
// (SERVE_<scenario>.json); tools/check_bench_regression.py ignores the
// block. Exit status is non-zero when any requested check fails, so CI can
// gate on it directly.
//
//   dynmis_loadgen --port P [--host H] [--scenario NAME] [--connections N]
//                  [--updates TOTAL] [--pipeline W] [--batch B] [--seed S]
//                  [--mode text|binary|keyed] [--sweep C1,C2,...] [--algo NAME]
//                  [--out PATH] [--snapshot PATH] [--resume-updates K]
//                  [--no-verify]
//
// --mode binary upgrades every worker connection with HELLO 2 BIN and
// drives the length-prefixed binary protocol instead of text lines (same
// ops, same acks, one frame per request). --mode keyed drives the
// external-key admission path instead of the scenario stream: KINS with
// fresh worker-unique keys and KDEL of live ones, each worker recording
// the server-assigned ids from the acks; verification then KQUERYs every
// live key and requires the server's id and in-solution flag to match the
// client-side replica (plus server keymap_entries == live keys). The JSON
// "serving" block gains a "keyed" object. --sweep runs the load phase once
// per listed connection count, prints a throughput/latency table, and
// records the rows in the JSON ("sweep" array); verification runs once,
// after the final stage.
//
// TRACE and SNAPSHOT name server-side paths: the tool assumes a loopback
// server sharing the filesystem (its purpose is acceptance and CI, not
// remote benchmarking). --no-verify drops that assumption along with the
// trace/snapshot checks.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "dynmis/dynmis.h"
#include "src/serve/binary.h"
#include "src/serve/line_client.h"
#include "src/serve/protocol.h"
#include "src/serve/trace.h"
#include "src/serve/verify.h"
#include "src/serve/workload.h"
#include "src/util/json_writer.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace dynmis {
namespace {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string scenario = "smoke";
  int connections = 4;
  int total_updates = 0;  // 0 = scenario default * DYNMIS_BENCH_SCALE.
  int pipeline = 32;      // Max outstanding requests per connection.
  int client_batch = 1;   // >1 sends BATCH frames of this many ops.
  // Open-loop mode: pace sends to this aggregate rate instead of letting
  // the window gate close the loop. Each op is due at its schedule time
  // regardless of earlier acks (pipeline still caps outstanding requests,
  // so a server slower than the target degrades to closed-loop and the
  // achieved_qps/target_qps gap in the JSON shows it). 0 = closed loop.
  double target_qps = 0;
  uint64_t seed = 1;
  bool binary = false;  // --mode binary: HELLO 2 BIN + framed requests.
  // --mode keyed: drive the external-key admission path instead of the
  // scenario stream — KINS with fresh worker-unique keys (neighbors drawn
  // from the base graph) mixed with KDEL of live ones, each worker
  // recording the server-assigned ids from the acks. The verification
  // phase then KQUERYs every live key and requires the server to resolve
  // it to the recorded id, with the in-solution flag consistent with
  // SOLUTION.
  bool keyed = false;
  // --sweep: run the load phase once per connection count listed here
  // (overrides --connections for the load phase).
  std::vector<int> sweep;
  // Replay-backend algorithm. Defaults to whatever the server's handshake
  // advertises; --algo overrides (needed when the advertised display name
  // is not a registry key).
  MaintainerConfig algo;
  bool algo_given = false;
  std::string out_path;
  std::string snapshot_path;  // Empty = skip the snapshot/resume check.
  int resume_updates = 200;
  bool verify = true;
};

using serve::LineClient;

bool Handshake(LineClient* client, std::string* greeting,
               std::string* error) {
  if (!client->Ask("HELLO " + std::to_string(serve::kProtocolVersion),
                   greeting)) {
    *error = "connection lost during handshake";
    return false;
  }
  if (greeting->rfind("OK DYNMIS ", 0) != 0) {
    *error = "handshake rejected: " + *greeting;
    return false;
  }
  return true;
}

// "key=value" token extraction from the handshake greeting.
std::string GreetingField(const std::string& greeting,
                          const std::string& key) {
  const std::string needle = key + "=";
  const size_t at = greeting.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = greeting.find(' ', start);
  return greeting.substr(start,
                         end == std::string::npos ? end : end - start);
}

// Targeted numeric field extraction from the server's one-line STATS JSON
// (the tool reports known scalar fields; a full parser would be overkill).
double ExtractJsonNumber(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return 0;
  return std::atof(doc.c_str() + at + needle.size());
}

// The STATS JSON nests identical "p50"/"p99" keys under update_latency_us
// and query_latency_us; scope percentile extraction to the suffix starting
// at the update block so a change in the server's key order can never
// silently swap the two histograms.
std::string UpdateLatencyScope(const std::string& doc) {
  const size_t at = doc.find("\"update_latency_us\"");
  return at == std::string::npos ? std::string() : doc.substr(at);
}

// Scope for the server's "replication" STATS block (empty when absent).
std::string ReplicationScope(const std::string& doc) {
  const size_t at = doc.find("\"replication\"");
  return at == std::string::npos ? std::string() : doc.substr(at);
}

std::string ExtractJsonString(const std::string& doc,
                              const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = doc.find('"', start);
  return end == std::string::npos ? "" : doc.substr(start, end - start);
}

// --- Worker connections ------------------------------------------------------

struct WorkerResult {
  int64_t sent = 0;
  int64_t acked = 0;
  int64_t rejected = 0;
  std::vector<double> rtts;  // Seconds per request (op or frame).
  std::string error;         // Non-empty on connection failure.
  // Keyed mode: the bindings this worker believes are live (key ->
  // server-assigned id, recorded from KINS acks, erased on KDEL acks),
  // plus op counters for the JSON block.
  std::vector<std::pair<std::string, VertexId>> live_keys;
  int64_t keys_inserted = 0;
  int64_t keys_deleted = 0;
};

// Keyed-mode worker: its own closed loop over KINS/KDEL lines. Acks settle
// FIFO, so a deque of (is_insert, key) pending entries pairs each response
// with its op; KINS acks carry the assigned id, which is the client-side
// replica the verification phase checks the server against.
void RunKeyedWorker(const LoadgenOptions& options,
                    const serve::ServeWorkload& workload, int index,
                    uint64_t seed_salt, int count, WorkerResult* result) {
  LineClient client;
  std::string greeting;
  if (!client.Connect(options.host, options.port, &result->error)) return;
  if (!Handshake(&client, &greeting, &result->error)) return;

  Rng rng(SplitMix64(options.seed * 131 + seed_salt +
                     static_cast<uint64_t>(index + 1) * 7919));
  const std::string prefix =
      "w" + std::to_string(index) + "s" + std::to_string(seed_salt) + "-";
  int64_t next_key = 0;
  std::vector<std::pair<std::string, VertexId>> live;
  // Keys sent but not yet acked cannot be KDELed (their binding is still
  // unknown client-side), so deletions draw from `live` only.
  std::deque<std::pair<bool, std::string>> pending;

  std::deque<double> in_flight;
  Timer clock;
  std::string line;
  result->rtts.reserve(static_cast<size_t>(count) + 1);
  auto read_one = [&]() -> bool {
    if (!client.ReadLine(&line)) {
      result->error = "connection lost mid-stream";
      return false;
    }
    result->rtts.push_back(clock.ElapsedSeconds() - in_flight.front());
    in_flight.pop_front();
    const auto [is_insert, key] = std::move(pending.front());
    pending.pop_front();
    if (line.rfind("OK", 0) != 0) {
      ++result->rejected;
      return true;
    }
    ++result->acked;
    if (is_insert) {
      ++result->keys_inserted;
      live.emplace_back(key,
                        static_cast<VertexId>(std::atoll(line.c_str() + 3)));
    } else {
      ++result->keys_deleted;
    }
    return true;
  };

  std::string wire;
  for (int i = 0; i < count; ++i) {
    wire.clear();
    // ~1 in 4 ops deletes a live key; the rest insert a fresh key attached
    // to up to three base-graph vertices (always alive: keyed runs never
    // delete base vertices, so the neighbors stay valid).
    const bool do_delete = !live.empty() && rng.NextBool(0.25);
    bool is_insert = true;
    std::string key;
    if (do_delete) {
      is_insert = false;
      // Erased from `live` at send time: a key is deleted at most once, and
      // only after its KINS was acked — per-connection FIFO then guarantees
      // the server still holds the binding, so no KDEL is ever rejected.
      const size_t at = rng.NextBounded(live.size());
      key = std::move(live[at].first);
      live[at] = std::move(live.back());
      live.pop_back();
      wire = "KDEL " + key;
    } else {
      key = prefix + std::to_string(next_key++);
      wire = "KINS " + key;
      const int degree = static_cast<int>(rng.NextBounded(4));
      for (int d = 0; d < degree; ++d) {
        wire += ' ';
        wire += std::to_string(rng.NextBounded(
            static_cast<uint64_t>(workload.base.n)));
      }
    }
    wire += '\n';
    in_flight.push_back(clock.ElapsedSeconds());
    pending.emplace_back(is_insert, std::move(key));
    if (!client.SendAll(wire)) {
      result->error = "send failed";
      return;
    }
    ++result->sent;
    if (static_cast<int>(in_flight.size()) >= options.pipeline &&
        !read_one()) {
      return;
    }
  }
  while (!in_flight.empty()) {
    if (!read_one()) return;
  }
  result->live_keys = std::move(live);
  std::string goodbye;
  client.Ask("QUIT", &goodbye);
}

void RunWorker(const LoadgenOptions& options,
               const serve::ServeWorkload& workload, int index,
               uint64_t seed_salt, int count, WorkerResult* result) {
  LineClient client;
  std::string greeting;
  if (!client.Connect(options.host, options.port, &result->error)) return;
  if (options.binary) {
    if (!client.SendLine("HELLO 2 BIN") || !client.ReadLine(&greeting)) {
      result->error = "connection lost during handshake";
      return;
    }
    if (greeting.rfind("OK DYNMIS 2 BIN ", 0) != 0) {
      result->error = "binary handshake rejected: " + greeting;
      return;
    }
  } else if (!Handshake(&client, &greeting, &result->error)) {
    return;
  }

  // Each connection draws from its own seeded generator against its own
  // mirror of the base graph. Mirrors diverge from the server as the other
  // connections land updates — that is the point: the server's admission
  // layer validates and rejects the stale ops, exactly as it would for any
  // set of concurrent writers.
  UpdateStreamOptions stream = workload.stream;
  stream.seed = stream.seed + options.seed * 131 + seed_salt +
                static_cast<uint64_t>(index + 1) * 7919;
  const std::vector<GraphUpdate> updates =
      MakeUpdateSequence(workload.base, count, stream);

  std::deque<double> in_flight;
  Timer clock;
  std::string line;
  result->rtts.reserve(updates.size() / std::max(options.client_batch, 1) +
                       1);

  // Open-loop pacing: each worker owns an equal slice of the target rate
  // and sends op k at k/rate on its own clock.
  const double worker_qps =
      options.target_qps > 0 ? options.target_qps / options.connections : 0;
  auto pace = [&](int64_t sent_so_far) {
    if (worker_qps <= 0) return;
    const double due = static_cast<double>(sent_so_far) / worker_qps;
    const double wait = due - clock.ElapsedSeconds();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
  };

  // Single-op mode: one OK/ERR (or binary response frame) per op. Batch
  // mode: one "OK <applied> <rejected> [ids...]" line or one batch-ack
  // frame per request frame.
  serve::BinaryResponse response;
  auto read_one = [&]() -> bool {
    if (options.binary) {
      if (!client.ReadFrame(&line)) {
        result->error = "connection lost mid-stream";
        return false;
      }
      std::string decode_error;
      if (!serve::DecodeResponseFrame(line, &response, &decode_error)) {
        result->error = "bad response frame: " + decode_error;
        return false;
      }
      result->rtts.push_back(clock.ElapsedSeconds() - in_flight.front());
      in_flight.pop_front();
      switch (response.code) {
        case serve::kBinRespOk:
        case serve::kBinRespOkId:
          ++result->acked;
          break;
        case serve::kBinRespReject:
          ++result->rejected;
          break;
        case serve::kBinRespBatch:
          result->acked += response.applied;
          result->rejected += response.rejected;
          break;
        default:
          result->error = "frame refused: " + response.message;
          return false;
      }
      return true;
    }
    if (!client.ReadLine(&line)) {
      result->error = "connection lost mid-stream";
      return false;
    }
    result->rtts.push_back(clock.ElapsedSeconds() - in_flight.front());
    in_flight.pop_front();
    if (options.client_batch <= 1) {
      if (line.rfind("OK", 0) == 0) {
        ++result->acked;
      } else {
        ++result->rejected;
      }
    } else if (line.rfind("OK ", 0) == 0) {
      long long applied = 0;
      long long rejected = 0;
      std::sscanf(line.c_str(), "OK %lld %lld", &applied, &rejected);
      result->acked += applied;
      result->rejected += rejected;
    } else {
      result->error = "frame refused: " + line;
      return false;
    }
    return true;
  };

  std::string wire;  // Reused request buffer (text line or binary frame).
  if (options.client_batch <= 1) {
    for (const GraphUpdate& update : updates) {
      pace(result->sent);
      in_flight.push_back(clock.ElapsedSeconds());
      wire.clear();
      if (options.binary) {
        serve::AppendUpdateFrame(&wire, update);
      } else {
        wire = serve::FormatCommandLine(update);
        wire += '\n';
      }
      if (!client.SendAll(wire)) {
        result->error = "send failed";
        return;
      }
      ++result->sent;
      if (static_cast<int>(in_flight.size()) >= options.pipeline &&
          !read_one()) {
        return;
      }
    }
  } else {
    for (size_t i = 0; i < updates.size();
         i += static_cast<size_t>(options.client_batch)) {
      const size_t end = std::min(
          updates.size(), i + static_cast<size_t>(options.client_batch));
      wire.clear();
      if (options.binary) {
        serve::AppendBatchFrame(&wire, updates, i, end - i);
      } else {
        wire = "BATCH " + std::to_string(end - i) + "\n";
        for (size_t j = i; j < end; ++j) {
          wire += serve::FormatCommandLine(updates[j]);
          wire += '\n';
        }
        wire += "END\n";
      }
      pace(result->sent);
      in_flight.push_back(clock.ElapsedSeconds());
      if (!client.SendAll(wire)) {
        result->error = "send failed";
        return;
      }
      result->sent += static_cast<int64_t>(end - i);
      if (static_cast<int>(in_flight.size()) >= options.pipeline &&
          !read_one()) {
        return;
      }
    }
  }
  while (!in_flight.empty()) {
    if (!read_one()) return;
  }
  if (options.binary) {
    client.Close();  // QUIT is text-only; EOF closes a binary connection.
  } else {
    std::string goodbye;
    client.Ask("QUIT", &goodbye);
  }
}

// One load phase: `connections` workers splitting `total` updates. The
// sweep runs this once per connection count; the plain path runs it once.
struct LoadPhaseResult {
  int connections = 0;
  WorkerResult totals;
  double elapsed = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  bool failed = false;
  // Keyed mode: every binding the workers believe is live after the phase.
  std::vector<std::pair<std::string, VertexId>> live_keys;

  double ops_per_sec() const {
    return elapsed > 0 ? static_cast<double>(totals.acked) / elapsed : 0;
  }
};

LoadPhaseResult RunLoadPhase(const LoadgenOptions& options,
                             const serve::ServeWorkload& workload,
                             int connections, int total, uint64_t seed_salt) {
  LoadPhaseResult phase;
  phase.connections = connections;
  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> workers;
  Timer load_timer;
  for (int i = 0; i < connections; ++i) {
    const int count =
        total / connections + (i < total % connections ? 1 : 0);
    workers.emplace_back(options.keyed ? RunKeyedWorker : RunWorker,
                         std::cref(options), std::cref(workload), i,
                         seed_salt, count, &results[i]);
  }
  for (std::thread& worker : workers) worker.join();
  phase.elapsed = load_timer.ElapsedSeconds();

  std::vector<double> rtts;
  for (WorkerResult& r : results) {
    phase.totals.sent += r.sent;
    phase.totals.acked += r.acked;
    phase.totals.rejected += r.rejected;
    phase.totals.keys_inserted += r.keys_inserted;
    phase.totals.keys_deleted += r.keys_deleted;
    phase.live_keys.insert(phase.live_keys.end(),
                           std::make_move_iterator(r.live_keys.begin()),
                           std::make_move_iterator(r.live_keys.end()));
    rtts.insert(rtts.end(), r.rtts.begin(), r.rtts.end());
    if (!r.error.empty()) {
      std::fprintf(stderr, "loadgen: worker error: %s\n", r.error.c_str());
      phase.failed = true;
    }
  }
  std::sort(rtts.begin(), rtts.end());
  phase.rtt_p50_us = bench::Percentile(rtts, 0.50) * 1e6;
  phase.rtt_p99_us = bench::Percentile(rtts, 0.99) * 1e6;
  return phase;
}

std::vector<VertexId> SortedSolution(serve::ServingBackend* backend) {
  std::vector<VertexId> solution;
  backend->CollectSolution(&solution);
  std::sort(solution.begin(), solution.end());
  return solution;
}

std::vector<VertexId> ParseSolutionLine(const std::string& line) {
  // "OK <count> <id>...".
  std::istringstream in(line);
  std::string ok;
  int64_t count = 0;
  in >> ok >> count;
  std::vector<VertexId> solution;
  solution.reserve(static_cast<size_t>(count));
  VertexId v = 0;
  while (in >> v) solution.push_back(v);
  return solution;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dynmis_loadgen --port P [--host H] [--scenario NAME]\n"
      "                      [--connections N] [--updates TOTAL]\n"
      "                      [--pipeline W] [--batch B] [--seed S]\n"
      "                      [--target-qps Q] [--mode text|binary|keyed]\n"
      "                      [--sweep C1,C2,...] [--algo NAME] [--out PATH]\n"
      "                      [--snapshot PATH] [--resume-updates K]\n"
      "                      [--no-verify]\n");
  return 2;
}

int Main(int argc, char** argv) {
  LoadgenOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host") {
      if (!(v = next())) return Usage();
      options.host = v;
    } else if (arg == "--port") {
      if (!(v = next())) return Usage();
      options.port = std::atoi(v);
    } else if (arg == "--scenario") {
      if (!(v = next())) return Usage();
      options.scenario = v;
    } else if (arg == "--connections") {
      if (!(v = next())) return Usage();
      options.connections = std::atoi(v);
    } else if (arg == "--updates") {
      if (!(v = next())) return Usage();
      options.total_updates = std::atoi(v);
    } else if (arg == "--pipeline") {
      if (!(v = next())) return Usage();
      options.pipeline = std::atoi(v);
    } else if (arg == "--batch") {
      if (!(v = next())) return Usage();
      options.client_batch = std::atoi(v);
    } else if (arg == "--seed") {
      if (!(v = next())) return Usage();
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--target-qps") {
      if (!(v = next())) return Usage();
      options.target_qps = std::atof(v);
    } else if (arg == "--mode") {
      if (!(v = next())) return Usage();
      if (std::string(v) == "binary") {
        options.binary = true;
        options.keyed = false;
      } else if (std::string(v) == "text") {
        options.binary = false;
        options.keyed = false;
      } else if (std::string(v) == "keyed") {
        options.binary = false;
        options.keyed = true;
      } else {
        std::fprintf(stderr, "bad --mode (want text|binary|keyed): %s\n", v);
        return Usage();
      }
    } else if (arg == "--sweep") {
      if (!(v = next())) return Usage();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        const long c = std::strtol(p, &end, 10);
        if (end == p || c < 1) {
          std::fprintf(stderr, "bad --sweep list: %s\n", v);
          return Usage();
        }
        options.sweep.push_back(static_cast<int>(c));
        p = *end == ',' ? end + 1 : end;
      }
      if (options.sweep.empty()) return Usage();
    } else if (arg == "--algo") {
      if (!(v = next())) return Usage();
      options.algo.algorithm = v;
      options.algo_given = true;
    } else if (arg == "--out") {
      if (!(v = next())) return Usage();
      options.out_path = v;
    } else if (arg == "--snapshot") {
      if (!(v = next())) return Usage();
      options.snapshot_path = v;
    } else if (arg == "--resume-updates") {
      if (!(v = next())) return Usage();
      options.resume_updates = std::atoi(v);
    } else if (arg == "--no-verify") {
      options.verify = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (options.port <= 0 || options.connections < 1 || options.pipeline < 1 ||
      options.client_batch < 1 || options.target_qps < 0) {
    return Usage();
  }

  serve::ServeWorkload workload;
  if (!serve::BuildServeWorkload(options.scenario, &workload)) {
    std::fprintf(stderr, "unknown scenario: %s\n", options.scenario.c_str());
    return 2;
  }
  const int total = options.total_updates > 0
                        ? options.total_updates
                        : bench::ScaledUpdates(workload.default_updates);

  // Control connection first: learn the backend shape (and fail fast when
  // the server is down or speaks another protocol version).
  LineClient control;
  std::string greeting;
  std::string error;
  if (!control.Connect(options.host, options.port, &error) ||
      !Handshake(&control, &greeting, &error)) {
    std::fprintf(stderr, "loadgen: %s\n", error.c_str());
    return 1;
  }
  const std::string backend_kind = GreetingField(greeting, "backend");
  const std::string algorithm = GreetingField(greeting, "algorithm");
  const int shards = std::atoi(GreetingField(greeting, "shards").c_str());
  // The replay/resume backends must run the server's algorithm, not this
  // tool's default: adopt the advertised name unless --algo overrode it.
  if (!options.algo_given && !algorithm.empty()) {
    options.algo.algorithm = algorithm;
  }
  if (!MaintainerRegistry::Global().Has(options.algo.algorithm)) {
    std::fprintf(stderr,
                 "loadgen: server algorithm '%s' is not a registry name; "
                 "pass --algo with the server's registry key\n",
                 options.algo.algorithm.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "loadgen: %s:%d %s backend (%s, %d shard%s), scenario %s, "
               "%d updates over %d connection(s)\n",
               options.host.c_str(), options.port, backend_kind.c_str(),
               algorithm.c_str(), shards, shards == 1 ? "" : "s",
               options.scenario.c_str(), total, options.connections);

  // --- Load phase ------------------------------------------------------------

  // The sweep runs the load phase at each listed connection count; the
  // plain path is a single-stage sweep at --connections. The JSON's main
  // "serving" block reports the final stage.
  std::vector<int> stages = options.sweep;
  if (stages.empty()) stages.push_back(options.connections);
  std::vector<LoadPhaseResult> phases;
  bool worker_failed = false;
  for (size_t s = 0; s < stages.size(); ++s) {
    const LoadPhaseResult phase = RunLoadPhase(
        options, workload, stages[s], total, /*seed_salt=*/s * 104729);
    std::fprintf(
        stderr,
        "loadgen: [%s, %d conn] %lld sent, %lld acked, %lld rejected in "
        "%.3fs (%.0f ops/s client-side), rtt p50=%.1fus p99=%.1fus\n",
        options.binary ? "binary" : "text", phase.connections,
        static_cast<long long>(phase.totals.sent),
        static_cast<long long>(phase.totals.acked),
        static_cast<long long>(phase.totals.rejected), phase.elapsed,
        phase.ops_per_sec(), phase.rtt_p50_us, phase.rtt_p99_us);
    worker_failed = worker_failed || phase.failed;
    phases.push_back(phase);
  }
  if (phases.size() > 1) {
    std::fprintf(stderr,
                 "loadgen: connection sweep (%s protocol)\n"
                 "  conns    ops/s    p50_us    p99_us\n",
                 options.binary ? "binary" : "text");
    for (const LoadPhaseResult& phase : phases) {
      std::fprintf(stderr, "  %5d %8.0f %9.1f %9.1f\n", phase.connections,
                   phase.ops_per_sec(), phase.rtt_p50_us, phase.rtt_p99_us);
    }
  }
  const LoadPhaseResult& last = phases.back();
  const WorkerResult& totals = last.totals;
  const double elapsed = last.elapsed;
  const double rtt_p50_us = last.rtt_p50_us;
  const double rtt_p99_us = last.rtt_p99_us;

  // Keyed mode: every stage's surviving bindings, and the op totals across
  // stages (the server's key map accumulates across the whole run).
  std::vector<std::pair<std::string, VertexId>> all_live_keys;
  int64_t keys_inserted_total = 0;
  int64_t keys_deleted_total = 0;
  for (LoadPhaseResult& phase : phases) {
    keys_inserted_total += phase.totals.keys_inserted;
    keys_deleted_total += phase.totals.keys_deleted;
    all_live_keys.insert(all_live_keys.end(),
                         std::make_move_iterator(phase.live_keys.begin()),
                         std::make_move_iterator(phase.live_keys.end()));
  }

  // --- Verification phase (control connection) -------------------------------

  bool checks_ok = !worker_failed;

  std::string stats_line;
  if (!control.Ask("STATS", &stats_line) ||
      stats_line.rfind("OK ", 0) != 0) {
    std::fprintf(stderr, "loadgen: STATS failed\n");
    return 1;
  }
  const std::string load_stats_json = stats_line.substr(3);

  std::string verify_line;
  if (!control.Ask("VERIFY", &verify_line)) {
    std::fprintf(stderr, "loadgen: VERIFY failed\n");
    return 1;
  }
  const bool verified_independent =
      verify_line.find("independent=1") != std::string::npos;
  const bool verified_maximal =
      verify_line.find("maximal=1") != std::string::npos;
  if (!verified_independent || !verified_maximal) checks_ok = false;

  std::string solution_line;
  if (!control.Ask("SOLUTION", &solution_line) ||
      solution_line.rfind("OK ", 0) != 0) {
    std::fprintf(stderr, "loadgen: SOLUTION failed\n");
    return 1;
  }
  const std::vector<VertexId> server_solution =
      ParseSolutionLine(solution_line);

  // Trace-based checks: client-side verification + in-process replay.
  bool client_verified = false;
  bool replay_matches = false;
  if (options.verify) {
    // Absolute path: server and loadgen share a filesystem but not
    // necessarily a working directory. The pid keeps concurrent runs on
    // one host from clobbering each other.
    const std::string trace_path = "/tmp/dynmis_serve_trace_" +
                                   options.scenario + "_" +
                                   std::to_string(getpid()) + ".txt";
    std::string trace_line;
    if (!control.Ask("TRACE " + trace_path, &trace_line) ||
        trace_line.rfind("OK", 0) != 0) {
      std::fprintf(stderr,
                   "loadgen: TRACE failed (%s) — run the server with "
                   "--record-trace or pass --no-verify\n",
                   trace_line.c_str());
      return 1;
    }
    serve::ServeTrace trace;
    if (!serve::LoadServeTrace(trace_path, &trace, &error)) {
      std::fprintf(stderr, "loadgen: %s\n", error.c_str());
      return 1;
    }
    // Client-side ground truth: base graph + applied trace.
    DynamicGraph mirror = workload.base.ToDynamic();
    for (const GraphUpdate& update : trace.updates) {
      ApplyUpdate(&mirror, update);
    }
    bool independent = false;
    bool maximal = false;
    client_verified = serve::CheckSolution(mirror, server_solution,
                                           &independent, &maximal);
    // Replay with the server's exact transaction boundaries, through the
    // same backend adapter the server runs.
    serve::ServeOptions replay_options;
    replay_options.backend = backend_kind;
    replay_options.shards = shards;
    replay_options.algo = options.algo;
    const std::unique_ptr<serve::ServingBackend> replay =
        serve::MakeServingBackend(workload.base, replay_options, &error);
    if (replay == nullptr) {
      std::fprintf(stderr, "loadgen: cannot build replay backend (%s)\n",
                   error.c_str());
      return 1;
    }
    size_t offset = 0;
    std::vector<GraphUpdate> block;
    for (const int64_t size : trace.batch_sizes) {
      block.assign(trace.updates.begin() + static_cast<int64_t>(offset),
                   trace.updates.begin() + static_cast<int64_t>(offset) +
                       size);
      replay->ApplyBatch(block);
      offset += static_cast<size_t>(size);
    }
    replay_matches = SortedSolution(replay.get()) == server_solution;
    std::fprintf(stderr,
                 "loadgen: trace %zu ops in %zu batches — client_verified=%d "
                 "replay_matches=%d\n",
                 trace.updates.size(), trace.batch_sizes.size(),
                 client_verified ? 1 : 0, replay_matches ? 1 : 0);
    if (!client_verified || !replay_matches) checks_ok = false;
  }

  // Keyed verification: the server must resolve every live key to the id
  // it assigned at KINS time (the client-side replica of the bindings),
  // and the KQUERY in-solution flag must agree with the SOLUTION set. The
  // run has no concurrent writers at this point, so both are exact.
  int64_t keys_verified = 0;
  int64_t key_mismatches = 0;
  if (options.keyed) {
    std::vector<VertexId> sorted_solution = server_solution;
    std::sort(sorted_solution.begin(), sorted_solution.end());
    for (const auto& [key, id] : all_live_keys) {
      std::string reply;
      if (!control.Ask("KQUERY " + key, &reply)) {
        std::fprintf(stderr, "loadgen: KQUERY failed\n");
        return 1;
      }
      long long reply_id = -1;
      int in_solution = -1;
      const bool in_set = std::binary_search(sorted_solution.begin(),
                                             sorted_solution.end(), id);
      if (std::sscanf(reply.c_str(), "OK %lld %d", &reply_id, &in_solution) !=
              2 ||
          reply_id != static_cast<long long>(id) ||
          in_solution != (in_set ? 1 : 0)) {
        ++key_mismatches;
        if (key_mismatches <= 5) {
          std::fprintf(stderr,
                       "loadgen: key mismatch: %s -> \"%s\" (client id %lld, "
                       "in_solution %d)\n",
                       key.c_str(), reply.c_str(),
                       static_cast<long long>(id), in_set ? 1 : 0);
        }
      } else {
        ++keys_verified;
      }
    }
    std::fprintf(stderr,
                 "loadgen: keyed — %lld inserted, %lld deleted, %zu live, "
                 "%lld verified, %lld mismatches\n",
                 static_cast<long long>(keys_inserted_total),
                 static_cast<long long>(keys_deleted_total),
                 all_live_keys.size(), static_cast<long long>(keys_verified),
                 static_cast<long long>(key_mismatches));
    if (key_mismatches > 0) checks_ok = false;
  }

  // Snapshot / warm-failover check.
  bool snapshot_matches = false;
  bool resume_matches = false;
  int64_t snapshot_bytes = 0;
  std::vector<VertexId> latest_server_solution = server_solution;
  if (!options.snapshot_path.empty()) {
    std::string snap_line;
    if (!control.Ask("SNAPSHOT " + options.snapshot_path, &snap_line) ||
        snap_line.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "loadgen: SNAPSHOT failed (%s)\n",
                   snap_line.c_str());
      return 1;
    }
    snapshot_bytes = std::atoll(snap_line.c_str() + 3);
    std::ifstream in(options.snapshot_path, std::ios::binary);
    const std::unique_ptr<serve::ServingBackend> restored =
        serve::RestoreServingBackend(in, &error);
    if (restored == nullptr) {
      std::fprintf(stderr, "loadgen: %s: %s\n",
                   options.snapshot_path.c_str(), error.c_str());
      return 1;
    }
    snapshot_matches =
        SortedSolution(restored.get()) == latest_server_solution;
    // Resume: the same closed-loop stream through the live server and the
    // restored backend; one op per request keeps the transaction boundaries
    // aligned (each op is its own ApplyBatch on both sides).
    UpdateStreamOptions resume_stream = workload.stream;
    resume_stream.seed = options.seed * 977 + 4243;
    UpdateStreamGenerator generator(resume_stream);
    DynamicGraph resume_mirror = restored->ExportGraph();
    std::vector<GraphUpdate> one_op(1);
    bool resume_failed = false;
    for (int i = 0; i < options.resume_updates; ++i) {
      one_op[0] = generator.Next(resume_mirror);
      std::string ack;
      if (!control.Ask(serve::FormatCommandLine(one_op[0]), &ack) ||
          ack.rfind("OK", 0) != 0) {
        std::fprintf(stderr, "loadgen: resume op refused (%s)\n",
                     ack.c_str());
        resume_failed = true;
        break;
      }
      ApplyUpdate(&resume_mirror, one_op[0]);
      restored->ApplyBatch(one_op);
    }
    if (!resume_failed) {
      if (!control.Ask("SOLUTION", &solution_line) ||
          solution_line.rfind("OK ", 0) != 0) {
        std::fprintf(stderr, "loadgen: SOLUTION failed after resume\n");
        return 1;
      }
      latest_server_solution = ParseSolutionLine(solution_line);
      resume_matches =
          SortedSolution(restored.get()) == latest_server_solution;
    }
    std::fprintf(stderr,
                 "loadgen: snapshot %lld bytes — snapshot_matches=%d "
                 "resume_matches=%d (%d resume ops)\n",
                 static_cast<long long>(snapshot_bytes),
                 snapshot_matches ? 1 : 0, resume_matches ? 1 : 0,
                 options.resume_updates);
    if (!snapshot_matches || !resume_matches) checks_ok = false;
  }

  // Refresh server-side metrics after the verification traffic.
  std::string final_stats_line;
  const std::string server_json =
      control.Ask("STATS", &final_stats_line) &&
              final_stats_line.rfind("OK ", 0) == 0
          ? final_stats_line.substr(3)
          : load_stats_json;

  std::string goodbye;
  control.Ask("QUIT", &goodbye);
  control.Close();

  // --- JSON emission ---------------------------------------------------------

  // Integer fields echoed from a STATS scope.
  const auto stats_int = [](const std::string& scope, const char* key) {
    return static_cast<int64_t>(ExtractJsonNumber(scope, key));
  };
  const auto per_sec = [elapsed](int64_t count) {
    return elapsed > 0 ? static_cast<double>(count) / elapsed : 0;
  };
  JsonWriter w;
  w.BeginObject();
  w.Int("schema_version", 1);
  w.String("scenario", options.scenario);
  w.String("tool", "dynmis_loadgen");
  w.Double("scale", bench::BenchScale());
  w.Int("cpu_count", std::thread::hardware_concurrency());
  w.BeginObject("graph");
  w.String("name", workload.name);
  w.Int("n", workload.base.n);
  w.Int("m", workload.base.NumEdges());
  w.EndObject();
  w.Int("updates", total);
  w.BeginObject("serving");
  w.String("backend", backend_kind);
  w.Int("shards", shards);
  w.String("algorithm", algorithm);
  w.String("protocol",
           options.binary ? "binary" : (options.keyed ? "keyed" : "text"));
  w.Int("connections", last.connections);
  w.Int("pipeline", options.pipeline);
  w.Int("client_batch", options.client_batch);
  w.Double("target_qps", options.target_qps);
  w.Double("achieved_qps", per_sec(totals.sent));
  w.Int("updates_sent", totals.sent);
  w.Int("acked", totals.acked);
  w.Int("rejected", totals.rejected);
  w.Double("elapsed_seconds", elapsed);
  w.Double("client_ops_per_sec", per_sec(totals.acked));
  w.Double("rtt_p50_us", rtt_p50_us);
  w.Double("rtt_p99_us", rtt_p99_us);
  if (phases.size() > 1) {
    w.BeginArray("sweep");
    for (const LoadPhaseResult& phase : phases) {
      w.BeginObject();
      w.Int("connections", phase.connections);
      w.Double("ops_per_sec", phase.ops_per_sec());
      w.Double("rtt_p50_us", phase.rtt_p50_us);
      w.Double("rtt_p99_us", phase.rtt_p99_us);
      w.Int("acked", phase.totals.acked);
      w.Int("rejected", phase.totals.rejected);
      w.EndObject();
    }
    w.EndArray();
  }
  w.BeginObject("server");
  w.Int("ops_applied", stats_int(server_json, "ops_applied"));
  w.Int("ops_rejected", stats_int(server_json, "ops_rejected"));
  w.Int("batches_flushed", stats_int(server_json, "batches_flushed"));
  w.Double("mean_batch_occupancy",
           ExtractJsonNumber(server_json, "mean_batch_occupancy"));
  // Percentiles from the post-load STATS call: the resume ops are
  // closed-loop singles and would skew the load phase's distribution.
  const std::string load_latency = UpdateLatencyScope(load_stats_json);
  w.Double("update_p50_us", ExtractJsonNumber(load_latency, "p50"));
  w.Double("update_p99_us", ExtractJsonNumber(load_latency, "p99"));
  w.Int("solution_size", stats_int(server_json, "solution_size"));
  w.EndObject();
  w.Int("solution_size", latest_server_solution.size());
  w.Bool("verified_independent", verified_independent);
  w.Bool("verified_maximal", verified_maximal);
  if (options.verify) {
    w.Bool("client_verified", client_verified);
    w.Bool("replay_matches", replay_matches);
  }
  if (!options.snapshot_path.empty()) {
    w.BeginObject("snapshot");
    w.Int("bytes", snapshot_bytes);
    w.Bool("snapshot_matches", snapshot_matches);
    w.Int("resume_updates", options.resume_updates);
    w.Bool("resume_matches", resume_matches);
    w.EndObject();
  }
  if (options.keyed) {
    // The server's own binding count must equal the client-side replica:
    // this run is the only writer, so any drift is a bug.
    const int64_t keymap_entries = stats_int(server_json, "keymap_entries");
    if (keymap_entries != static_cast<int64_t>(all_live_keys.size())) {
      std::fprintf(stderr,
                   "loadgen: keymap drift — server holds %lld entries, "
                   "clients hold %zu\n",
                   static_cast<long long>(keymap_entries),
                   all_live_keys.size());
      checks_ok = false;
    }
    w.BeginObject("keyed");
    w.Int("keys_inserted", keys_inserted_total);
    w.Int("keys_deleted", keys_deleted_total);
    w.Int("keys_live", all_live_keys.size());
    w.Int("keys_verified", keys_verified);
    w.Int("key_mismatches", key_mismatches);
    w.Int("keymap_entries", keymap_entries);
    w.EndObject();
  }
  w.EndObject();
  // Top-level echo of the server's replication state so smoke jobs can
  // assert on lag/role without a second STATS round-trip. The regression
  // checker pops this block (environment-dependent, like "serving").
  const std::string repl_scope = ReplicationScope(server_json);
  if (!repl_scope.empty()) {
    w.BeginObject("replication");
    w.String("role", ExtractJsonString(repl_scope, "role"));
    for (const char* key :
         {"next_seq", "lag_batches", "lag_segments", "snapshots_written",
          "last_base_seq", "promotions", "resharded"}) {
      w.Int(key, stats_int(repl_scope, key));
    }
    w.EndObject();
  }
  w.EndObject();

  const std::string out_path = options.out_path.empty()
                                   ? "SERVE_" + options.scenario + ".json"
                                   : options.out_path;
  if (!WriteFile(out_path, w.Take())) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "loadgen: wrote %s (%s)\n", out_path.c_str(),
               checks_ok ? "all checks passed" : "CHECKS FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace dynmis

int main(int argc, char** argv) { return dynmis::Main(argc, argv); }
