// The served phase of a traced run, which measures the serve, repl and io
// layers: an in-process serve::Server over the `hard` graph (engine
// backend, DyTwoSwap, one I/O thread, change log on, base snapshots on a
// wall-clock cadence), driven by one client thread over two binary
// connections in two parts:
//
//  * open loop at a fixed offered rate with one QUERY per 16 writes, every
//    request timed from its due time, so a stall also delays the requests
//    queued behind it;
//  * closed loop with enough ops outstanding to fill batches, which
//    measures capacity.
//
// Every edge's ops go through one fixed connection, so no op is ever stale
// and any rejection is a real failure; the final graph then does not depend
// on how the two connections interleave, and SOLUTION is checked against a
// replica without needing TRACE. Every number it reports is a per-layer
// metric: on a shared host its run-to-run spread is wider than any bound an
// end-to-end metric may have (README.md, "Why served-log is not a
// workload").

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "common.h"
#include "src/serve/binary.h"
#include "src/serve/line_client.h"
#include "src/serve/workload.h"

namespace perfbench {
namespace {

namespace serve = dynmis::serve;

constexpr int kConnections = 2;
constexpr int64_t kQueryEvery = 17;         // One QUERY per 16 writes.
constexpr int64_t kClosedWindowOps = 512;   // Outstanding ops per connection.
constexpr int64_t kClosedFrameOps = 64;     // Ops per BATCH frame.
constexpr int64_t kWindowOps = 8192;        // Closed-loop measuring window.
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;

enum SpanName : int32_t {
  kRequest,
  kBatchFrame,
  kBackendApply,
  kBackendSaveTo,
  kBackendInSolution,
  kBackendCollect
};
const std::vector<std::string> kSpanNames = {
    "serve.request",      "serve.batch_frame",  "backend.ApplyBatch",
    "backend.SaveTo",     "backend.InSolution", "backend.CollectSolution"};

struct Sizes {
  double rate;                  // Open-loop offered requests per second.
  int64_t stream_ops;           // Pre-drawn base stream S.
  int64_t warmup_ops_per_conn;  // Closed-loop warm-up before the parts.
  int64_t snapshot_interval_ms;
};

Sizes SizesFor(const Options& options) {
  if (options.tiny) return {4000, 20000, 512, 200};
  return {20000, 300000, 4096, 1000};
}

// Times every call the server makes into its backend. Only the engine
// thread calls the timed methods, so the span log needs no lock; it is read
// after that thread has been joined.
class TimingBackend final : public serve::ServingBackend {
 public:
  TimingBackend(std::unique_ptr<serve::ServingBackend> inner, SpanLog* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string Kind() const override { return inner_->Kind(); }
  int NumShards() const override { return inner_->NumShards(); }
  dynmis::UpdateResult ApplyBatch(
      const std::vector<GraphUpdate>& updates) override {
    const int64_t start = NowNs();
    dynmis::UpdateResult result = inner_->ApplyBatch(updates);
    Record(kBackendApply, start, static_cast<int64_t>(updates.size()));
    return result;
  }
  bool InSolution(VertexId v) override {
    const int64_t start = NowNs();
    const bool in = inner_->InSolution(v);
    Record(kBackendInSolution, start, 1);
    return in;
  }
  void CollectSolution(std::vector<VertexId>* out) override {
    const int64_t start = NowNs();
    inner_->CollectSolution(out);
    Record(kBackendCollect, start, 0);
  }
  dynmis::EngineStats Stats() override { return inner_->Stats(); }
  std::vector<dynmis::EngineStats> PerShardStats() override {
    return inner_->PerShardStats();
  }
  dynmis::ShardedMisEngine* Sharded() override { return inner_->Sharded(); }
  dynmis::SnapshotStatus SaveSnapshot(std::ostream& out) override {
    return inner_->SaveSnapshot(out);
  }
  void SaveTo(dynmis::SnapshotWriter* writer) override {
    const int64_t start = NowNs();
    inner_->SaveTo(writer);
    Record(kBackendSaveTo, start, 0);
  }
  DynamicGraph ExportGraph() override { return inner_->ExportGraph(); }
  const dynmis::MaintainerConfig& Config() const override {
    return inner_->Config();
  }

  // The thread the server calls the backend from.
  pid_t caller_tid() const { return caller_tid_.load(); }

 private:
  // `request` carries the op count of an ApplyBatch span.
  void Record(int32_t name, int64_t start, int64_t ops) {
    spans_->Record(name, start, NowNs(), -1, ops);
    if (caller_tid_.load(std::memory_order_relaxed) == 0) {
      caller_tid_.store(Tid());
    }
  }

  std::unique_ptr<serve::ServingBackend> inner_;
  SpanLog* spans_;
  std::atomic<pid_t> caller_tid_{0};
};

// Which connection carries an edge's ops (both orientations agree).
int ConnectionOf(const EdgeOp& op) {
  const uint64_t lo = static_cast<uint32_t>(std::min(op.u, op.v));
  const uint64_t hi = static_cast<uint32_t>(std::max(op.u, op.v));
  return static_cast<int>(((lo << 32 | hi) * 0x9E3779B97F4A7C15ULL) >> 63);
}

// Taken on the client thread each time kWindowOps more ops were acked in
// the closed loop.
struct Checkpoint {
  int64_t ns = 0;
  int64_t acked_ops = 0;
  double process_cpu_s = 0;
  double client_cpu_s = 0;
};

struct Pending {
  int64_t due_ns = 0;
  int64_t ops = 0;
  bool query = false;
};

struct Connection {
  int fd = -1;
  serve::BinaryFrameBuffer in{1 << 20};
  std::string out;
  size_t out_offset = 0;
  std::deque<Pending> pending;
  int64_t outstanding_ops = 0;
  CycledStream stream;  // This connection's edges only.
  int64_t next = 0;     // Next op of `stream`.
  std::vector<GraphUpdate> frame = std::vector<GraphUpdate>(kClosedFrameOps);
};

// The load generator: one thread, non-blocking sockets, ppoll.
class Client {
 public:
  Client(std::vector<CycledStream> streams, std::vector<VertexId> queries,
         SpanLog* spans)
      : queries_(std::move(queries)), spans_(spans) {
    for (int c = 0; c < kConnections; ++c) {
      conns_[c].stream = std::move(streams[c]);
    }
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port, std::string* error) {
    for (Connection& c : conns_) {
      c.fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (c.fd < 0 ||
          connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        *error = std::string("connect: ") + std::strerror(errno);
        return false;
      }
      const int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::string hello = "HELLO 2 BIN\n";
      if (send(c.fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(hello.size())) {
        *error = "handshake send failed";
        return false;
      }
      // The greeting is one text line; read it byte by byte so no binary
      // frame is consumed with it.
      std::string greeting;
      char ch = 0;
      while (recv(c.fd, &ch, 1, 0) == 1 && ch != '\n') greeting.push_back(ch);
      if (greeting.rfind("OK", 0) != 0) {
        *error = "handshake: " + greeting;
        return false;
      }
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
    return true;
  }

  void Close() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) close(c.fd);
      c.fd = -1;
    }
  }

  // Open loop: request k is due at start + k / rate, alternates between the
  // connections, and every kQueryEvery-th one is a QUERY.
  void OpenLoop(double rate, int64_t start, int64_t end) {
    const double interval_ns = 1e9 / rate;
    int64_t k = 0;
    for (;;) {
      const int64_t now = NowNs();
      for (;; ++k) {
        const int64_t due =
            start + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
        if (due > now || due >= end) break;
        Connection& c = conns_[k % kConnections];
        const bool query = k % kQueryEvery == kQueryEvery - 1;
        if (query) {
          serve::AppendQueryFrame(&c.out, queries_[k % queries_.size()]);
        } else {
          const EdgeOp op = c.stream.At(c.next++);
          if (op.insert) {
            serve::AppendInsFrame(&c.out, op.u, op.v);
          } else {
            serve::AppendDelFrame(&c.out, op.u, op.v);
          }
        }
        c.pending.push_back({due, 1, query});
        ++c.outstanding_ops;
        ++attempted;
        lag_us.push_back(static_cast<double>(now - due) * 1e-3);
      }
      for (Connection& c : conns_) Send(&c);
      const int64_t next_due =
          start + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
      if (next_due >= end) break;
      Wait(next_due - NowNs());
    }
  }

  // Closed loop: keeps kClosedWindowOps ops outstanding per connection in
  // BATCH frames until `end` or until each connection issued `max_ops`.
  // With `checkpoints`, records one each time kWindowOps more ops are acked.
  void ClosedLoop(int64_t end, int64_t max_ops,
                  std::vector<Checkpoint>* checkpoints = nullptr) {
    int64_t issued[kConnections] = {0, 0};
    int64_t next_mark = acked_ops;
    for (;;) {
      const int64_t now = NowNs();
      if (checkpoints != nullptr && acked_ops >= next_mark) {
        checkpoints->push_back(
            {now, acked_ops, ProcessCpuSeconds(), ThreadCpuSeconds()});
        next_mark = acked_ops + kWindowOps;
      }
      bool more = false;
      for (int i = 0; i < kConnections; ++i) {
        Connection& c = conns_[i];
        while (now < end && issued[i] < max_ops &&
               c.outstanding_ops + kClosedFrameOps <= kClosedWindowOps) {
          for (GraphUpdate& update : c.frame) {
            FillUpdate(c.stream.At(c.next++), &update);
          }
          serve::AppendBatchFrame(&c.out, c.frame, 0, c.frame.size());
          c.pending.push_back({now, kClosedFrameOps, false});
          c.outstanding_ops += kClosedFrameOps;
          attempted += kClosedFrameOps;
          issued[i] += kClosedFrameOps;
        }
        more = more || (now < end && issued[i] < max_ops);
        Send(&c);
      }
      if (!more) break;
      Wait(end - now);
    }
  }

  // Waits for every outstanding response; what never arrives is a failure.
  void Drain() {
    const int64_t deadline = NowNs() + kDrainTimeoutNs;
    for (;;) {
      int64_t outstanding = 0;
      for (const Connection& c : conns_) outstanding += c.outstanding_ops;
      if (outstanding == 0) return;
      const int64_t now = NowNs();
      if (now >= deadline || broken_) {
        failed += outstanding;
        for (Connection& c : conns_) {
          c.pending.clear();
          c.outstanding_ops = 0;
        }
        return;
      }
      Wait(deadline - now);
    }
  }

  // Ops of each connection's stream sent so far.
  int64_t sent(int c) const { return conns_[c].next; }
  const CycledStream& stream(int c) const { return conns_[c].stream; }

  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t acked_ops = 0;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::vector<double> lag_us;

 private:
  void Send(Connection* c) {
    while (c->out_offset < c->out.size()) {
      const ssize_t n = send(c->fd, c->out.data() + c->out_offset,
                             c->out.size() - c->out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) broken_ = true;
        break;
      }
      c->out_offset += static_cast<size_t>(n);
    }
    if (c->out_offset == c->out.size()) {
      c->out.clear();
      c->out_offset = 0;
    }
  }

  void Receive(Connection* c) {
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = recv(c->fd, buffer, sizeof(buffer), 0);
      if (n == 0) {
        broken_ = true;
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) broken_ = true;
        break;
      }
      c->in.Append(buffer, static_cast<size_t>(n));
    }
    const int64_t now = NowNs();
    std::string error;
    while (std::optional<std::string_view> frame = c->in.NextFrame()) {
      if (c->pending.empty() ||
          !serve::DecodeResponseFrame(*frame, &response_, &error)) {
        broken_ = true;
        return;
      }
      const Pending p = c->pending.front();
      c->pending.pop_front();
      c->outstanding_ops -= p.ops;
      const double latency_us = static_cast<double>(now - p.due_ns) * 1e-3;
      // Single requests are sent only by the open loop and are timed even
      // when their answer arrives after the phase's last due time.
      if (p.query) {
        if (response_.code != serve::kBinRespQuery) ++failed;
        read_us.push_back(latency_us);
      } else if (p.ops == 1) {
        if (response_.code == serve::kBinRespOk) {
          ++acked_ops;
        } else {
          ++failed;
        }
        write_us.push_back(latency_us);
      } else if (response_.code == serve::kBinRespBatch) {
        acked_ops += response_.applied;
        failed += p.ops - response_.applied;
      } else {
        failed += p.ops;
      }
      if (spans_ != nullptr) {
        spans_->Record(p.ops == 1 ? kRequest : kBatchFrame, p.due_ns, now, -1,
                       p.ops);
      }
    }
    if (c->in.overflowed()) broken_ = true;
  }

  void Wait(int64_t timeout_ns) {
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    timeout_ns = std::max<int64_t>(timeout_ns, 0);
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    if (ppoll(fds, kConnections, &timeout, nullptr) <= 0) return;
    for (int i = 0; i < kConnections; ++i) {
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) Receive(&conns_[i]);
      if (fds[i].revents & POLLOUT) Send(&conns_[i]);
    }
  }

  Connection conns_[kConnections];
  std::vector<VertexId> queries_;
  SpanLog* spans_;
  serve::BinaryResponse response_;
  bool broken_ = false;
};

// One served system: server, its engine thread, and the connected client.
// Stop() must run before destruction; the destructor only backs it up.
struct System {
  System(const Sizes& sizes, std::string dir,
         std::vector<CycledStream> streams, std::vector<VertexId> queries);
  ~System() { Stop(); }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  void Stop() {
    client.Close();
    if (engine_thread.joinable()) {
      server->Stop();
      engine_thread.join();
    }
  }

  std::string dir;
  SpanLog backend_spans;  // Outlives the server that writes it.
  SpanLog client_spans;
  TimingBackend* timing = nullptr;  // Owned by the server.
  std::unique_ptr<serve::Server> server;
  std::vector<pid_t> tids_before_run;
  std::atomic<pid_t> engine_tid{0};
  Client client;
  std::thread engine_thread;
};

// Build + backend Create/Initialize + server Start + connect + warm-up.
System::System(const Sizes& sizes, std::string dir_in,
               std::vector<CycledStream> streams,
               std::vector<VertexId> queries)
    : dir(std::move(dir_in)),
      client(std::move(streams), std::move(queries), &client_spans) {
  RemoveTree(dir);
  const EdgeListGraph base = serve::BuildServeWorkloadGraph("hard");
  serve::ServeOptions serve_options;
  serve_options.backend = "engine";
  serve_options.algo = {"DyTwoSwap"};
  serve_options.io_threads = 1;
  serve_options.change_log_dir = dir;
  serve_options.snapshot_interval_ms = sizes.snapshot_interval_ms;
  std::string error;
  std::unique_ptr<serve::ServingBackend> backend =
      serve::MakeServingBackend(base, serve_options, &error);
  DYNMIS_CHECK(backend != nullptr);
  auto wrapper =
      std::make_unique<TimingBackend>(std::move(backend), &backend_spans);
  timing = wrapper.get();
  server = std::make_unique<serve::Server>(std::move(wrapper), serve_options);
  if (!server->Start(&error)) {
    std::fprintf(stderr, "served phase: %s\n", error.c_str());
    DYNMIS_CHECK(false);
  }
  tids_before_run = ListTasks();
  engine_thread = std::thread([this] {
    engine_tid.store(Tid());
    server->Run();
  });
  if (!client.Connect(server->port(), &error)) {
    std::fprintf(stderr, "served phase: %s\n", error.c_str());
    DYNMIS_CHECK(false);
  }
  client.ClosedLoop(INT64_MAX, sizes.warmup_ops_per_conn);
  client.Drain();
}

// Reads SOLUTION over a text connection. Returns false on a protocol error.
bool FetchSolution(int port, std::vector<VertexId>* solution) {
  serve::LineClient text;
  std::string error;
  std::string line;
  if (!text.Connect("127.0.0.1", port, &error) || !text.SendLine("HELLO 1") ||
      !text.ReadLine(&line) || !text.SendLine("SOLUTION") ||
      !text.ReadLine(&line) || line.rfind("OK ", 0) != 0) {
    return false;
  }
  const char* p = line.c_str() + 3;
  char* after = nullptr;
  const long count = std::strtol(p, &after, 10);
  for (p = after; *p != '\0'; p = after) {
    const long id = std::strtol(p, &after, 10);
    if (after == p) break;
    solution->push_back(static_cast<VertexId>(id));
  }
  return static_cast<long>(solution->size()) == count;
}

double TidsCpu(const std::vector<pid_t>& tids) {
  double total = 0;
  for (const pid_t tid : tids) total += TaskCpuSeconds(tid);
  return total;
}

}  // namespace

void RunServedPhase(const Options& options, Report* report) {
  const Sizes sizes = SizesFor(options);
  prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 µs: wake close to each due time.

  // Inputs, drawn before any timer.
  const EdgeListGraph base = serve::BuildServeWorkloadGraph("hard");
  dynmis::UpdateStreamOptions stream_options;
  stream_options.edge_op_fraction = 1.0;
  stream_options.insert_fraction = 0.5;
  stream_options.bias = dynmis::EndpointBias::kDegreeProportional;
  stream_options.seed = options.seed;
  const std::vector<EdgeOp> ops = ToEdgeOps(dynmis::MakeUpdateSequence(
      base.ToDynamic(), static_cast<int>(sizes.stream_ops), stream_options));
  std::vector<std::vector<EdgeOp>> split(kConnections);
  for (const EdgeOp& op : ops) split[ConnectionOf(op)].push_back(op);
  std::vector<CycledStream> streams;
  for (auto& part : split) streams.emplace_back(std::move(part));
  dynmis::Rng rng(options.seed * 7919 + 1);
  std::vector<VertexId> queries(1 << 16);
  for (VertexId& v : queries) {
    v = static_cast<VertexId>(rng.NextU64() % static_cast<uint64_t>(base.n));
  }

  System system(sizes, options.workdir + "/served", std::move(streams),
                std::move(queries));
  Client& client = system.client;
  const pid_t engine_tid = system.engine_tid.load();
  std::vector<pid_t> io_tids;
  for (const pid_t tid : ListTasks()) {
    bool known = tid == engine_tid;
    for (const pid_t before : system.tids_before_run) known |= tid == before;
    if (!known) io_tids.push_back(tid);
  }

  // Open loop at the fixed rate, then closed loop; a quarter of the run's
  // seconds each.
  const auto phase_ns = static_cast<int64_t>(options.seconds * 0.25e9);
  const int64_t open_start = NowNs() + 1'000'000;
  client.OpenLoop(sizes.rate, open_start, open_start + phase_ns);
  client.Drain();

  const int64_t acked0 = client.acked_ops;
  const double engine_cpu0 = TaskCpuSeconds(engine_tid);
  const double io_cpu0 = TidsCpu(io_tids);
  const int64_t closed_start = NowNs();
  std::vector<Checkpoint> checkpoints;
  client.ClosedLoop(closed_start + phase_ns, INT64_MAX, &checkpoints);
  const int64_t closed_end = NowNs();
  client.Drain();
  const double io_cpu1 = TidsCpu(io_tids);
  const double engine_cpu1 = TaskCpuSeconds(engine_tid);

  // Capacity and CPU per update are medians over the closed-loop windows.
  std::vector<double> window_rate;
  std::vector<double> window_cpu_us;
  for (size_t i = 1; i < checkpoints.size(); ++i) {
    const Checkpoint& a = checkpoints[i - 1];
    const Checkpoint& b = checkpoints[i];
    const auto window_ops = static_cast<double>(b.acked_ops - a.acked_ops);
    window_rate.push_back(window_ops /
                          (static_cast<double>(b.ns - a.ns) * 1e-9));
    window_cpu_us.push_back(((b.process_cpu_s - a.process_cpu_s) -
                             (b.client_cpu_s - a.client_cpu_s)) *
                            1e6 / window_ops);
  }
  const auto closed_ops = static_cast<double>(client.acked_ops - acked0);
  report->AddLayer("serve.updates_per_s", Median(window_rate), "ops/s");
  report->AddLayer("serve.cpu_us_per_update", Median(window_cpu_us), "us");
  report->AddLayer("serve.write_p50_us", Percentile(&client.write_us, 0.50),
                   "us");
  report->AddLayer("serve.write_p99_us", Percentile(&client.write_us, 0.99),
                   "us");
  report->AddLayer("serve.read_p50_us", Percentile(&client.read_us, 0.50),
                   "us");
  report->AddLayer("serve.read_p99_us", Percentile(&client.read_us, 0.99),
                   "us");

  std::vector<VertexId> solution;
  if (!FetchSolution(system.server->port(), &solution)) {
    report->Fail("SOLUTION could not be read");
  }
  system.Stop();
  report->attempted += client.attempted;
  report->failed += client.failed;
  if (client.failed > 0) report->Fail("served operations failed");

  report->AddDiag("served_open_writes",
                  static_cast<double>(client.write_us.size()), "count");
  report->AddDiag("served_open_reads",
                  static_cast<double>(client.read_us.size()), "count");
  report->AddDiag("served_send_lag_p50_us", Percentile(&client.lag_us, 0.50),
                  "us");
  report->AddDiag("served_send_lag_p99_us", Percentile(&client.lag_us, 0.99),
                  "us");
  report->AddDiag("served_send_lag_max_us", Percentile(&client.lag_us, 1.0),
                  "us");
  report->AddDiag("served_closed_ops", closed_ops, "count");
  report->AddDiag("served_cpu_engine_thread_s", engine_cpu1 - engine_cpu0,
                  "s");
  report->AddDiag("served_cpu_io_threads_s", io_cpu1 - io_cpu0, "s");

  {
    DynamicGraph replica = base.ToDynamic();
    for (int c = 0; c < kConnections; ++c) {
      const CycledStream& stream = client.stream(c);
      for (int64_t i = stream.CycleStart(client.sent(c)); i < client.sent(c);
           ++i) {
        ApplyOp(&replica, stream.At(i));
      }
    }
    Report check;
    const double quality =
        CheckAnswer(replica, std::move(solution), options, &check);
    report->AddLayer("serve.quality_vs_greedy", quality, "ratio");
    for (const std::string& problem : check.problems) {
      report->Fail("served: " + problem);
    }
  }

  const serve::ServingMetricsSnapshot m = system.server->MetricsSnapshot();
  std::vector<double> apply_us = SpanDurationsUs(
      system.backend_spans, kBackendApply, closed_start, closed_end);
  double apply_total_s = 0;
  for (const double us : apply_us) apply_total_s += us * 1e-6;
  report->AddLayer("serve.backend_apply_us_p50", Percentile(&apply_us, 0.50),
                   "us");
  report->AddLayer("serve.backend_apply_us_p99", Percentile(&apply_us, 0.99),
                   "us");
  const pid_t seen = system.timing->caller_tid();
  report->AddLayer("serve.engine_thread_cpu_us_per_update",
                   seen == engine_tid
                       ? (engine_cpu1 - engine_cpu0) * 1e6 / closed_ops
                       : 0,
                   "us");
  report->AddLayer("serve.io_thread_cpu_us_per_update",
                   (io_cpu1 - io_cpu0) * 1e6 / closed_ops, "us");
  report->AddLayer("serve.backend_share",
                   apply_total_s / (engine_cpu1 - engine_cpu0), "ratio");
  report->AddLayer("serve.ops_per_flush",
                   static_cast<double>(m.ops_applied) /
                       static_cast<double>(m.batches_flushed),
                   "count");
  report->AddLayer("serve.flushes_full", static_cast<double>(m.flushes_full),
                   "count");
  report->AddLayer("serve.flushes_deadline",
                   static_cast<double>(m.flushes_deadline), "count");
  report->AddLayer("serve.flushes_barrier",
                   static_cast<double>(m.flushes_barrier), "count");
  report->AddLayer("serve.server_update_p50_us", m.update_p50_us, "us");
  report->AddLayer("serve.server_update_p99_us", m.update_p99_us, "us");
  int64_t snapshot_bytes = 0;
  DirBytes(system.dir, "base-", &snapshot_bytes);
  report->AddLayer("repl.log_bytes_per_update",
                   static_cast<double>(DirBytes(system.dir, "seg-")) /
                       static_cast<double>(m.ops_applied),
                   "B");
  report->AddLayer("repl.snapshots_written",
                   static_cast<double>(m.repl_snapshots_written), "count");
  std::vector<double> save_us =
      SpanDurationsUs(system.backend_spans, kBackendSaveTo);
  report->AddLayer("io.snapshot_save_ms_p50",
                   Percentile(&save_us, 0.50) * 1e-3, "ms");
  report->AddLayer("io.snapshot_save_ms_max", Percentile(&save_us, 1.0) * 1e-3,
                   "ms");
  report->AddLayer("io.snapshot_bytes", static_cast<double>(snapshot_bytes),
                   "B");
  // The whole on-loop stall of a snapshot: from SaveTo to the engine
  // thread's next backend call (container serialization included).
  std::vector<double> stall_ms;
  const std::vector<Span>& engine_spans = system.backend_spans.spans();
  for (size_t i = 0; i + 1 < engine_spans.size(); ++i) {
    if (engine_spans[i].name == kBackendSaveTo) {
      stall_ms.push_back(static_cast<double>(engine_spans[i + 1].start_ns -
                                             engine_spans[i].start_ns) *
                         1e-6);
    }
  }
  report->AddLayer("io.snapshot_stall_ms_p50", Percentile(&stall_ms, 0.50),
                   "ms");
  WriteSpans(options.workdir + "/spans-served.csv",
             {{"client", &system.client_spans},
              {"engine", &system.backend_spans}},
             kSpanNames);
  RemoveTree(system.dir);
}

}  // namespace perfbench
