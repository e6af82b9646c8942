// The serving engine thread. It owns the listening socket, the admission
// batch, the backend, and all replication state — but never a client
// socket: connections are handed to ServeOptions::io_threads epoll-driven
// I/O threads (src/serve/io_thread.h) at accept time, and the engine
// exchanges parsed commands / response bytes with them through per-thread
// SPSC mailboxes. The engine's own epoll set watches exactly three fds —
// its wake eventfd, the listener, and the follower upstream — so no part of
// the hot path scans O(connections) descriptors. See include/dynmis/serve.h
// for the architecture overview and README "Serving" for the protocol
// (newline text by default; length-prefixed binary after `HELLO 2 BIN`,
// src/serve/binary.h).

#include "dynmis/serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "dynmis/sharded_engine.h"
#include "src/io/atomic_file.h"
#include "src/io/snapshot.h"
#include "src/repl/change_log.h"
#include "src/repl/snapshotter.h"
#include "src/serve/admission.h"
#include "src/serve/binary.h"
#include "src/serve/io_thread.h"
#include "src/serve/mailbox.h"
#include "src/serve/metrics.h"
#include "src/serve/protocol.h"
#include "src/serve/trace.h"
#include "src/serve/verify.h"
#include "src/util/check.h"
#include "src/util/faultfs.h"
#include "src/util/json_writer.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace dynmis {
namespace serve {
namespace {

// --- Backend adapters --------------------------------------------------------

class EngineBackend : public ServingBackend {
 public:
  explicit EngineBackend(std::unique_ptr<MisEngine> engine)
      : engine_(std::move(engine)) {}

  std::string Kind() const override { return "engine"; }
  int NumShards() const override { return 1; }
  UpdateResult ApplyBatch(const std::vector<GraphUpdate>& updates) override {
    return engine_->ApplyBatch(updates);
  }
  bool InSolution(VertexId v) override { return engine_->InSolution(v); }
  void CollectSolution(std::vector<VertexId>* out) override {
    engine_->CollectSolution(out);
  }
  EngineStats Stats() override { return engine_->Stats(); }
  SnapshotStatus SaveSnapshot(std::ostream& out) override {
    return engine_->SaveSnapshot(out);
  }
  void SaveTo(SnapshotWriter* writer) override { engine_->SaveTo(writer); }
  DynamicGraph ExportGraph() override { return engine_->graph(); }
  const MaintainerConfig& Config() const override {
    return engine_->config();
  }

 private:
  std::unique_ptr<MisEngine> engine_;
};

class ShardedBackend : public ServingBackend {
 public:
  explicit ShardedBackend(std::unique_ptr<ShardedMisEngine> engine)
      : engine_(std::move(engine)) {}

  std::string Kind() const override { return "sharded"; }
  int NumShards() const override { return engine_->num_shards(); }
  UpdateResult ApplyBatch(const std::vector<GraphUpdate>& updates) override {
    // Route, then barrier: an admission batch is one transaction from the
    // client's point of view, so the ack must mean "applied", not "queued".
    UpdateResult result = engine_->ApplyBatch(updates);
    engine_->Flush();
    return result;
  }
  bool InSolution(VertexId v) override { return engine_->InSolution(v); }
  void CollectSolution(std::vector<VertexId>* out) override {
    engine_->CollectSolution(out);
  }
  EngineStats Stats() override { return engine_->Stats(); }
  std::vector<EngineStats> PerShardStats() override {
    return engine_->PerShardStats();
  }
  ShardedMisEngine* Sharded() override { return engine_.get(); }
  SnapshotStatus SaveSnapshot(std::ostream& out) override {
    return engine_->SaveSnapshot(out);
  }
  void SaveTo(SnapshotWriter* writer) override { engine_->SaveTo(writer); }
  DynamicGraph ExportGraph() override { return engine_->BuildGlobalGraph(); }
  const MaintainerConfig& Config() const override {
    return engine_->config();
  }

 private:
  std::unique_ptr<ShardedMisEngine> engine_;
};

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Tags in the engine thread's (three-entry) epoll set.
constexpr uint64_t kEngineWakeTag = 0;
constexpr uint64_t kEngineListenTag = 1;
constexpr uint64_t kEngineUpstreamTag = 2;

void WriteWakeEventFd(int fd) {
  const uint64_t one = 1;
  (void)!write(fd, &one, sizeof(one));
}

}  // namespace

std::unique_ptr<ServingBackend> MakeServingBackend(const EdgeListGraph& base,
                                                   const ServeOptions& options,
                                                   std::string* error) {
  error->clear();
  const bool sharded = options.backend == "sharded";
  if (!sharded && options.backend != "engine") {
    *error = "unknown backend: " + options.backend +
             " (expected engine or sharded)";
    return nullptr;
  }
  if (sharded) {
    ShardedEngineOptions shard_options;
    shard_options.num_shards = options.shards;
    auto engine = ShardedMisEngine::Create(base, options.algo, shard_options);
    if (engine == nullptr) {
      *error = "unknown algorithm: " + options.algo.algorithm;
      return nullptr;
    }
    engine->Initialize();
    return std::make_unique<ShardedBackend>(std::move(engine));
  }
  auto engine = MisEngine::Create(base, options.algo);
  if (engine == nullptr) {
    *error = "unknown algorithm: " + options.algo.algorithm;
    return nullptr;
  }
  engine->Initialize();
  return std::make_unique<EngineBackend>(std::move(engine));
}

std::unique_ptr<ServingBackend> RestoreServingBackend(
    std::istream& in, std::string* error, ingest::KeyMap* keymap) {
  error->clear();
  // One read of the container serves the key map, the flavour check and
  // the engine loader.
  SnapshotReader reader;
  if (const SnapshotStatus status = reader.ReadFrom(in); !status.ok) {
    *error = "restore failed: " + status.message;
    return nullptr;
  }
  if (keymap != nullptr) {
    *keymap = ingest::KeyMap();
    if (reader.HasSection("keymap") && !keymap->LoadFrom(&reader)) {
      *error = "restore failed: " + reader.status().message;
      return nullptr;
    }
  }
  SnapshotStatus status;
  if (reader.HasSection("sharded")) {
    auto engine = ShardedMisEngine::LoadFrom(&reader, &status);
    if (engine == nullptr) {
      *error = "restore failed: " + status.message;
      return nullptr;
    }
    return std::make_unique<ShardedBackend>(std::move(engine));
  }
  auto engine = MisEngine::LoadFrom(&reader, &status);
  if (engine == nullptr) {
    *error = "restore failed: " + status.message;
    return nullptr;
  }
  return std::make_unique<EngineBackend>(std::move(engine));
}

// --- Server implementation ---------------------------------------------------

struct Server::Impl {
  // One client batch frame (BATCH n ... END): acked as a unit once END has
  // been seen and every admitted op of the frame has applied.
  struct Frame {
    int64_t outstanding = 0;  // Admitted ops not yet applied.
    int64_t applied = 0;
    int64_t rejected = 0;
    std::vector<VertexId> insert_ids;
    bool end_seen = false;
    // A protocol error inside the frame replaced its ack with an error; the
    // frame record stays only to absorb the apply notifications of its
    // already-admitted ops.
    bool aborted = false;
  };

  // An entry of a connection's ordered response stream. `ready` entries
  // drain into the socket buffer; an unready entry (a deferred op or frame
  // ack) blocks the entries behind it until the flush fills it in. Fills
  // are type-targeted: single-op acks land in op slots (admission order)
  // and frame acks in frame slots (frame order), so a frame that settles
  // early — all its ops rejected, say — can never claim an earlier
  // still-pending single op's slot. Wire order is always slot order either
  // way, because only the ready prefix drains.
  struct Response {
    bool ready = false;
    bool frame_slot = false;
    std::string text;
  };

  // The engine's socket-free view of a client: the fd, the input decoding,
  // and the send buffer all live on the connection's I/O thread. The engine
  // stages response bytes in `staged` and ships them as kAppend orders;
  // `pending_out` (shared with the I/O thread) tracks shipped-but-unsent
  // bytes so write-side backpressure still sees the whole backlog.
  struct Connection {
    int64_t session = 0;
    int io_thread = 0;
    bool binary = false;  // Negotiated with HELLO 2 BIN.
    std::shared_ptr<std::atomic<int64_t>> pending_out =
        std::make_shared<std::atomic<int64_t>>(0);
    std::string staged;  // Response bytes not yet shipped to the I/O thread.
    size_t pending_out_bytes() const {
      return staged.size() +
             static_cast<size_t>(std::max<int64_t>(
                 0, pending_out->load(std::memory_order_relaxed)));
    }
    // Set when the client kept issuing commands while already sitting on
    // max_output_bytes of unread responses; the loop disconnects it. A
    // single response larger than the cap is fine — the check runs before
    // each append, so one big SOLUTION drains normally.
    bool overloaded = false;
    // In dirty_sessions, pending a ShipOutput pass.
    bool dirty = false;
    RingQueue<Response> responses;
    RingQueue<Frame> frames;
    bool handshaken = false;
    // Update lines still expected by an open BATCH frame, then END.
    int frame_updates_left = 0;
    bool awaiting_end = false;
    bool in_frame() const { return frame_updates_left > 0 || awaiting_end; }
    bool close_after_write = false;
    bool close_order_sent = false;
    // Binary BATCH refused as a unit (readonly): the frame's remaining ops
    // and END are consumed silently so the one-response-per-request-frame
    // contract holds.
    int discard_updates_left = 0;
    bool discard_end = false;
    bool discarding() const { return discard_updates_left > 0 || discard_end; }

    // REPL SUBSCRIBE state. A live subscriber gets RBATCH frames pushed as
    // batches apply; a catching-up one is pumped from its change-log cursor
    // until it reaches the head, then goes live.
    bool subscriber = false;
    bool sub_live = false;
    std::unique_ptr<repl::ChangeLogCursor> sub_cursor;
  };

  // The reply owed for one client op of the pending admission batch (TTL
  // expiries have none), in admission order.
  struct PendingMeta {
    int64_t session = 0;
    Verb verb = Verb::kIns;
    double enqueue_time = 0;
    bool in_frame = false;
  };

  Impl(std::unique_ptr<ServingBackend> served, ServeOptions serve_options)
      : backend(std::move(served)),
        options(std::move(serve_options)),
        admission(backend->ExportGraph(), options.window_ttl_ms) {}

  std::unique_ptr<ServingBackend> backend;
  ServeOptions options;
  // Replica, key map, TTL wheel and the pending batch (src/serve/
  // admission.h).
  Admission admission;
  ServeMetrics metrics;
  Timer clock;

  int listen_fd = -1;
  int bound_port = 0;
  // Engine epoll set (wake eventfd + listener + upstream) and the eventfd
  // that Stop()/signals/I-O threads write to wake the loop.
  int epoll_fd = -1;
  int wake_fd = -1;
  // EMFILE/ENFILE backoff: the listener leaves the epoll set (level-
  // triggered readiness would re-report the backlog forever) and rejoins at
  // the deadline.
  bool listener_muted = false;
  double accept_mute_until = 0;

  // The I/O thread fleet (created at Run(), joined at drain) and the
  // per-thread "orders staged, kick before sleeping" flags.
  std::vector<std::unique_ptr<IoThread>> io_threads;
  // Final per-thread counters, captured when the threads are stopped.
  std::vector<IoMetrics> io_metrics_final;
  std::vector<char> kick_needed;
  int next_io_thread = 0;

  int64_t next_session = 1;
  std::map<int64_t, Connection> connections;  // session -> connection.
  // Connections with staged output / lifecycle transitions since the last
  // ShipOutput pass.
  std::vector<int64_t> dirty_sessions;

  std::vector<PendingMeta> pending_meta;

  // Applied-op log for TRACE (only when options.record_trace), with the
  // flush boundaries a faithful replay needs (src/serve/trace.h).
  ServeTrace trace;

  std::atomic<bool> stopping{false};

  // ---- Replication state ----------------------------------------------------

  // Follower until promoted: update verbs answered with `ERR readonly`.
  bool read_only = false;
  // Batches applied so far == the next change-log sequence number. The
  // whole replication design hangs off this one counter: a batch's seq is
  // its position in the applied-batch stream, identical on every replica.
  int64_t next_seq = 0;
  std::unique_ptr<repl::ChangeLogWriter> log_writer;
  std::unique_ptr<repl::Snapshotter> snapshotter;
  int64_t last_snapshot_trigger_seq = 0;
  double last_snapshot_trigger_time = 0;  // clock seconds at last trigger.
  std::atomic<bool> promote_requested{false};

  // Fencing epoch: the highest writer term this server has observed. A
  // healthy primary's own term lives here (claimed durably in the epoch
  // file before the first write is acked); a follower tracks the upstream's
  // term. Observing a term above our own while writable fences the server:
  // writes answer `ERR fenced <epoch>` and nothing further is appended —
  // acking even one more batch could hand a client a write the new
  // primary's history never saw.
  int64_t epoch = 0;
  bool fenced = false;
  // "<change-log dir>/epoch" when this server writes a log; prebuilt so the
  // per-flush fencing probe stays allocation-free.
  std::string epoch_path;
  double next_epoch_check = 0;  // Clock seconds of the next idle probe.

  // Degraded mode: a change-log append failed (ENOSPC/EIO). The already-
  // applied batch sits in `unlogged_batches` (it cannot be un-applied), new
  // writes answer `ERR readonly`, and every retry tick re-appends the
  // buffer; once a Sync succeeds the server returns to normal service.
  bool degraded = false;
  std::string degraded_reason;
  std::deque<repl::LogBatch> unlogged_batches;
  double next_degraded_retry = 0;

  // Upstream reconnect (--follow): exponential backoff with jitter,
  // resubscribing from next_seq. reconnect_at < 0 means no attempt is due.
  double reconnect_at = -1;
  int reconnect_attempts = 0;
  Rng reconnect_rng{0x9e3779b97f4a7c15ULL};

  // Follower upstream (TCP --follow): a non-blocking socket in the same
  // poll loop. The handshake lines are sent eagerly at Start(); responses
  // are consumed by a tiny state machine.
  enum class UpstreamState { kGreeting, kSubscribeAck, kStreaming, kDown };
  int upstream_fd = -1;
  sockaddr_in upstream_addr{};
  UpstreamState upstream_state = UpstreamState::kDown;
  std::unique_ptr<LineBuffer> upstream_in;
  int64_t upstream_head = -1;  // Primary's next_seq as last announced.
  // RBATCH frame assembly.
  int64_t rbatch_seq = -1;
  int rbatch_left = 0;
  std::vector<GraphUpdate> rbatch_updates;

  // Follower --follow-dir: tail the primary's change-log directory.
  std::unique_ptr<repl::ChangeLogCursor> tail_cursor;

  // ---- Online resharding ----------------------------------------------------

  // One reshard at a time: a worker thread rebuilds the backend at the
  // target shard count from an admission-time snapshot, replays every batch
  // the loop applied since (fed through `queue`), and the loop swaps
  // backends at a barrier once the worker has caught up.
  struct ReshardTask {
    int target_shards = 0;
    PartitionStrategy partition = PartitionStrategy::kHash;
    int64_t base_seq = 0;
    std::string base_bytes;
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<repl::LogBatch> queue;
    bool finalize = false;
    std::atomic<bool> caught_up{false};  // Worker reached an empty queue.
    std::atomic<bool> failed{false};
    std::unique_ptr<ServingBackend> result;
    std::string error;
  };
  std::unique_ptr<ReshardTask> reshard;

  // ---- Admission ------------------------------------------------------------

  // Feeds the TTL expiries due by now through the same pending batch as
  // client writes (no response slots — they never enter pending_meta), so
  // expiries apply, replicate, and snapshot exactly like client deletions.
  void AdvanceWindow() {
    if (read_only || fenced || degraded) return;
    const uint64_t tick_ms =
        static_cast<uint64_t>(clock.ElapsedSeconds() * 1e3);
    while (!admission.ExpireDue(tick_ms, options.batch_max_ops)) {
      Flush(FlushReason::kFull);
    }
    // A pure-expiry batch has no client flush deadline to trip; apply it
    // now so the window lags the clock by at most one loop pass.
    if (pending_meta.empty() && !admission.pending().empty()) {
      Flush(FlushReason::kDeadline);
    }
  }

  // Applies the coalesced batch through the backend and fills the deferred
  // responses. `reason` picks the flush counter to bump.
  enum class FlushReason { kFull, kDeadline, kBarrier };
  void Flush(FlushReason reason) {
    const std::vector<GraphUpdate>& batch = admission.pending();
    if (batch.empty()) return;
    // Fencing barrier: if a newer primary claimed the epoch file after
    // these ops were admitted, refuse the whole batch now — the apply/ack
    // below is exactly the step a fenced server must not take. The refusal
    // leaves no trace in the admission state: a re-promoted server must
    // validate against what its backend holds.
    CheckEpochFile();
    if (fenced) {
      for (const PendingMeta& meta : pending_meta) {
        ++metrics.ops_rejected;
        SettleOp(meta, /*refused=*/true, kInvalidVertex);
      }
      pending_meta.clear();
      admission.Refuse(backend->ExportGraph());
      return;
    }
    const UpdateResult result = ApplyTimed(batch);
    const double now = clock.ElapsedSeconds();
    ++metrics.batches_flushed;
    metrics.batch_ops_total += static_cast<int64_t>(batch.size());
    switch (reason) {
      case FlushReason::kFull:
        ++metrics.flushes_full;
        break;
      case FlushReason::kDeadline:
        ++metrics.flushes_deadline;
        break;
      case FlushReason::kBarrier:
        ++metrics.flushes_barrier;
        break;
    }
    size_t insv = 0;
    for (const PendingMeta& meta : pending_meta) {
      metrics.update_latency.Record(now - meta.enqueue_time);
      const bool vertex_insert =
          meta.verb == Verb::kInsV || meta.verb == Verb::kKIns;
      DYNMIS_CHECK(!vertex_insert || insv < result.new_vertices.size());
      SettleOp(meta, /*refused=*/false,
               vertex_insert ? result.new_vertices[insv++] : kInvalidVertex);
    }
    pending_meta.clear();
    FinishApplied(batch, result);
  }

  // Applies one batch through the backend, adding the call's wall time to
  // STATS `engine.update_seconds`: one clock pair per batch, none per op.
  UpdateResult ApplyTimed(const std::vector<GraphUpdate>& updates) {
    const double start = clock.ElapsedSeconds();
    UpdateResult result = backend->ApplyBatch(updates);
    metrics.update_seconds += clock.ElapsedSeconds() - start;
    return result;
  }

  // Settles one admitted op's deferred reply: an op of a BATCH frame counts
  // into its frame, a single op fills its slot — `OK`, `OK <id>` for a
  // vertex insert (`id`), or the fencing error when `refused`.
  void SettleOp(const PendingMeta& meta, bool refused, VertexId id) {
    auto it = connections.find(meta.session);
    if (it == connections.end()) return;  // Client left; ack evaporates.
    Connection& conn = it->second;
    if (meta.in_frame) {
      // Frames complete strictly FIFO per connection (a frame closes at
      // END before the next BATCH opens), so the front frame owns the
      // oldest pending ops.
      DYNMIS_CHECK(!conn.frames.empty());
      Frame& frame = conn.frames.front();
      --frame.outstanding;
      ++(refused ? frame.rejected : frame.applied);
      SettleFrames(&conn);
      return;
    }
    Response* r = ClaimDeferred(&conn, /*frame_slot=*/false);
    r->text.clear();
    if (refused) {
      if (conn.binary) {
        AppendRejectResponse(&r->text, "fenced");
      } else {
        r->text = "ERR fenced " + std::to_string(epoch);
      }
    } else if (conn.binary) {
      if (id != kInvalidVertex) {
        AppendOkIdResponse(&r->text, id);
      } else {
        AppendOkResponse(&r->text);
      }
    } else if (id != kInvalidVertex) {
      r->text = "OK " + std::to_string(id);
    } else {
      r->text = "OK";
    }
    r->ready = true;
    DrainResponses(&conn);
  }

  // The apply tail shared by the admission flush and the follower: the
  // backend applied `updates` as one batch. Checks it took every op and
  // assigned the vertex ids the replica predicted, then records the batch.
  // Clears the admission batch last (`updates` may be that batch).
  void FinishApplied(const std::vector<GraphUpdate>& updates,
                     const UpdateResult& result) {
    DYNMIS_CHECK(result.applied == static_cast<int64_t>(updates.size()));
    metrics.ops_applied += static_cast<int64_t>(updates.size());
    RecordAppliedBatch(updates);
    admission.Applied(result);
  }

  // Transition to the fenced state: a writer term above our own exists, so
  // a newer primary owns the history from here on. Read queries keep
  // working; writes answer `ERR fenced <epoch>`; the change log is closed
  // so not one more record lands in the shared directory.
  void Fence(int64_t observed_epoch, const char* how) {
    epoch = std::max(epoch, observed_epoch);
    if (fenced) return;
    fenced = true;
    read_only = true;
    log_writer.reset();
    degraded = false;
    degraded_reason.clear();
    unlogged_batches.clear();
    std::fprintf(stderr,
                 "dynmis serve: fenced by epoch %lld (%s) at seq %lld; "
                 "read-only until PROMOTE\n",
                 static_cast<long long>(epoch), how,
                 static_cast<long long>(next_seq));
  }

  // Shared-directory fencing probe: one open+pread of the epoch file. Runs
  // before every batch ack and periodically while idle, so an old primary
  // flips to `ERR fenced` promptly after a new one claims the directory.
  // Allocation-free on the steady path (the file path is prebuilt).
  void CheckEpochFile() {
    if (epoch_path.empty() || fenced) return;
    const int64_t seen = repl::ReadEpochValue(epoch_path.c_str());
    if (seen > epoch) {
      if (read_only) {
        AdoptEpoch(seen);  // A follower just tracks the new term.
      } else {
        Fence(seen, "epoch file");
      }
    }
  }

  // Follower-side epoch adoption: the upstream (or the tailed directory)
  // moved to a new term. Records applied from here on belong to it, so a
  // follower that keeps its own change-log copy rotates to a segment whose
  // header carries the new epoch, and persists the term for its own
  // restart bootstrap.
  void AdoptEpoch(int64_t new_epoch) {
    if (new_epoch <= epoch) return;
    epoch = new_epoch;
    if (options.change_log_dir.empty()) return;
    std::string error;
    if (!repl::WriteEpochFile(options.change_log_dir, epoch, &error)) {
      std::fprintf(stderr, "dynmis serve: cannot persist epoch %lld: %s\n",
                   static_cast<long long>(epoch), error.c_str());
    }
    if (log_writer != nullptr) {
      auto writer = std::make_unique<repl::ChangeLogWriter>();
      if (writer->Open(options.change_log_dir, options.log_segment_bytes,
                       next_seq, epoch, &error)) {
        log_writer = std::move(writer);
      } else {
        std::fprintf(stderr,
                     "dynmis serve: cannot restamp change log at epoch "
                     "%lld: %s\n",
                     static_cast<long long>(epoch), error.c_str());
        log_writer.reset();
      }
    }
  }

  // Post-apply bookkeeping shared by the admission path (Flush) and the
  // follower path (ApplyReplBatch): assigns the batch its sequence number
  // and fans it out to every consumer that tracks the applied stream —
  // the TRACE buffer, the change log, live subscribers, an in-flight
  // reshard, and the background snapshot trigger.
  void RecordAppliedBatch(const std::vector<GraphUpdate>& updates) {
    const int64_t seq = next_seq++;
    if (options.record_trace) {
      trace.updates.insert(trace.updates.end(), updates.begin(),
                           updates.end());
      trace.batch_sizes.push_back(static_cast<int64_t>(updates.size()));
    }
    if (log_writer != nullptr) {
      repl::LogBatch batch;
      batch.seq = seq;
      batch.epoch = epoch;
      batch.updates = updates;
      if (degraded) {
        // Already degraded: the batch was applied (a follower's upstream
        // stream cannot be refused), so buffer it for the retry tick.
        unlogged_batches.push_back(std::move(batch));
      } else {
        std::string error;
        if (log_writer->Append(batch, &error)) {
          ++metrics.repl_batches_logged;
          metrics.repl_ops_logged += static_cast<int64_t>(updates.size());
        } else {
          // A failing change log (ENOSPC, EIO) must not take serving down,
          // but silently dropping records would desync every follower:
          // refuse new writes and keep retrying until the log recovers.
          EnterDegraded(error, std::move(batch));
        }
      }
    }
    PushToSubscribers(seq, updates);
    if (reshard != nullptr) {
      repl::LogBatch batch;
      batch.seq = seq;
      batch.updates = updates;
      {
        std::lock_guard<std::mutex> lock(reshard->mutex);
        reshard->queue.push_back(std::move(batch));
      }
      reshard->cv.notify_all();
    }
    MaybeTriggerSnapshot();
  }

  void EnterDegraded(const std::string& why, repl::LogBatch batch) {
    degraded = true;
    degraded_reason = why;
    unlogged_batches.push_back(std::move(batch));
    next_degraded_retry = clock.ElapsedSeconds() + 0.05;
    std::fprintf(stderr,
                 "dynmis serve: change-log append failed (%s); refusing "
                 "writes until the log recovers\n",
                 why.c_str());
  }

  // Degraded-mode retry tick: re-append everything the log refused, then
  // require one successful Sync before accepting writes again — "recovered"
  // must mean the records are durable, not merely buffered by the kernel.
  void RetryDegradedLog() {
    if (!degraded) return;
    if (log_writer == nullptr) {  // Fenced or torn down meanwhile.
      degraded = false;
      degraded_reason.clear();
      unlogged_batches.clear();
      return;
    }
    const double now = clock.ElapsedSeconds();
    if (now < next_degraded_retry) return;
    std::string error;
    while (!unlogged_batches.empty()) {
      const repl::LogBatch& batch = unlogged_batches.front();
      if (!log_writer->Append(batch, &error)) {
        degraded_reason = error;
        next_degraded_retry = now + 0.25;
        return;
      }
      ++metrics.repl_batches_logged;
      metrics.repl_ops_logged += static_cast<int64_t>(batch.updates.size());
      unlogged_batches.pop_front();
    }
    if (!log_writer->Sync(&error)) {
      degraded_reason = error;
      next_degraded_retry = now + 0.25;
      return;
    }
    degraded = false;
    degraded_reason.clear();
    std::fprintf(stderr,
                 "dynmis serve: change log recovered at seq %lld; accepting "
                 "writes again\n",
                 static_cast<long long>(next_seq));
  }

  // One container holding the backend's sections plus the server's own
  // "keymap" section, so a warm restart or follower bootstrap restores the
  // external-key bindings along with the graph. Engine-only loaders skip
  // the extra section.
  SnapshotStatus SaveServerSnapshot(std::ostream& out) {
    SnapshotWriter writer;
    backend->SaveTo(&writer);
    admission.keymap().SaveTo(&writer);
    return writer.WriteTo(out);
  }

  // Copy-on-collect base snapshots: serialize on the loop thread (the only
  // thread that may touch the backend), hand the bytes to the background
  // writer. Runs at batch boundaries only, so the snapshot sits exactly at
  // a change-log record edge. Two cadences, either of which can trip:
  // every N applied batches (snapshot_every_batches) and/or every
  // snapshot_interval_ms of wall time — the time-based one still waits for
  // the next batch boundary, so an idle server writes nothing new.
  void MaybeTriggerSnapshot() {
    if (snapshotter == nullptr || fenced || degraded) return;
    const bool batches_due =
        options.snapshot_every_batches > 0 &&
        next_seq - last_snapshot_trigger_seq >= options.snapshot_every_batches;
    const double now = clock.ElapsedSeconds();
    const bool interval_due =
        options.snapshot_interval_ms > 0 &&
        now - last_snapshot_trigger_time >=
            static_cast<double>(options.snapshot_interval_ms) * 1e-3;
    if (!batches_due && !interval_due) return;
    if (snapshotter->busy()) return;  // Try again at a later boundary.
    std::ostringstream out;
    const SnapshotStatus status = SaveServerSnapshot(out);
    if (!status.ok) {
      std::fprintf(stderr, "dynmis serve: snapshot serialize failed: %s\n",
                   status.message.c_str());
      return;
    }
    if (snapshotter->Submit(next_seq, epoch, std::move(out).str())) {
      last_snapshot_trigger_seq = next_seq;
      last_snapshot_trigger_time = now;
    }
  }

  // Appends one RBATCH frame to every live subscriber's output. A live
  // subscriber that stopped reading is demoted to disk catch-up (when a
  // change log exists) instead of unboundedly buffering in memory.
  void PushToSubscribers(int64_t seq, const std::vector<GraphUpdate>& updates) {
    for (auto& [session, conn] : connections) {
      if (!conn.subscriber || !conn.sub_live) continue;
      if (conn.pending_out_bytes() > options.max_output_bytes) {
        if (log_writer != nullptr) {
          auto cursor = std::make_unique<repl::ChangeLogCursor>();
          std::string error;
          if (cursor->Open(options.change_log_dir, seq, &error)) {
            conn.sub_live = false;
            conn.sub_cursor = std::move(cursor);
            continue;
          }
        }
        conn.overloaded = true;
        MarkDirty(&conn);
        continue;
      }
      AppendRBatch(&conn, seq, epoch, updates);
    }
  }

  void AppendRBatch(Connection* conn, int64_t seq, int64_t batch_epoch,
                    const std::vector<GraphUpdate>& updates) {
    std::string frame = "RBATCH " + std::to_string(seq) + " " +
                        std::to_string(updates.size()) + " " +
                        std::to_string(batch_epoch) + "\n";
    for (const GraphUpdate& update : updates) {
      frame += FormatCommandLine(update);
      frame += '\n';
    }
    conn->staged += frame;
    MarkDirty(conn);
    ++metrics.repl_batches_streamed;
  }

  // Advances catching-up subscribers from their change-log cursors; a
  // subscriber that reaches the head switches to live pushes.
  void PumpSubscribers() {
    for (auto& [session, conn] : connections) {
      if (!conn.subscriber || conn.sub_live) continue;
      while (conn.pending_out_bytes() < options.max_output_bytes) {
        if (conn.sub_cursor->next_seq() >= next_seq) {
          conn.sub_live = true;
          conn.sub_cursor.reset();
          break;
        }
        repl::LogBatch batch;
        bool available = false;
        std::string error;
        if (!conn.sub_cursor->Next(&batch, &available, &error)) {
          Respond(&conn, "ERR subscribe: " + error);
          conn.close_after_write = true;
          conn.subscriber = false;
          conn.sub_cursor.reset();
          break;
        }
        if (!available) break;  // Writer not caught up on disk yet.
        AppendRBatch(&conn, batch.seq, batch.epoch, batch.updates);
      }
    }
  }

  void MarkDirty(Connection* conn) {
    if (conn->dirty) return;
    conn->dirty = true;
    dirty_sessions.push_back(conn->session);
  }

  // The oldest unready slot of the requested type; the caller encodes the
  // response into it in place (slot strings keep their capacity), marks it
  // ready, and calls DrainResponses.
  Response* ClaimDeferred(Connection* conn, bool frame_slot) {
    for (size_t i = 0; i < conn->responses.size(); ++i) {
      Response& r = conn->responses[i];
      if (!r.ready && r.frame_slot == frame_slot) return &r;
    }
    DYNMIS_CHECK(false);  // An applied op / ended frame always has its slot.
    return nullptr;
  }

  // Acks every leading finished frame, strictly FIFO: a later frame whose
  // ops all applied (or were all rejected) must still wait behind an older
  // in-flight frame, because response slots fill front to back.
  void SettleFrames(Connection* conn) {
    while (!conn->frames.empty()) {
      Frame& frame = conn->frames.front();
      if (frame.outstanding != 0) break;
      if (frame.aborted) {
        conn->frames.pop_front();
        continue;
      }
      if (!frame.end_seen) break;
      Response* r = ClaimDeferred(conn, /*frame_slot=*/true);
      r->text.clear();
      if (conn->binary) {
        AppendBatchAckResponse(&r->text, frame.applied, frame.rejected,
                               frame.insert_ids);
      } else {
        r->text = "OK " + std::to_string(frame.applied) + " " +
                  std::to_string(frame.rejected);
        for (const VertexId id : frame.insert_ids) {
          r->text += ' ';
          r->text += std::to_string(id);
        }
      }
      r->ready = true;
      conn->frames.pop_front();
      DrainResponses(conn);
    }
  }

  // Moves the ready prefix of the response stream into the staged output
  // (shipped to the connection's I/O thread at ShipOutput). Write-side
  // backpressure lives here: a client that has not consumed
  // max_output_bytes of earlier responses and still wants more is marked
  // overloaded instead of being allowed to grow server memory unboundedly.
  void DrainResponses(Connection* conn) {
    while (!conn->responses.empty() && conn->responses.front().ready) {
      if (conn->pending_out_bytes() > options.max_output_bytes) {
        conn->overloaded = true;
        MarkDirty(conn);
        return;
      }
      conn->staged += conn->responses.front().text;
      if (!conn->binary) conn->staged += '\n';
      conn->responses.pop_front();
    }
    MarkDirty(conn);
  }

  // Text-protocol immediate response (`text` is the line, no newline).
  void Respond(Connection* conn, std::string text) {
    Response& r = conn->responses.PushSlot();
    r.ready = true;
    r.frame_slot = false;
    r.text = std::move(text);
    DrainResponses(conn);
  }

  // Encoding-aware error response: "ERR <msg>" on text connections, a
  // kBinRespErr frame on binary ones.
  void RespondError(Connection* conn, const std::string& msg) {
    if (!conn->binary) {
      Respond(conn, "ERR " + msg);
      return;
    }
    Response& r = conn->responses.PushSlot();
    r.ready = true;
    r.frame_slot = false;
    r.text.clear();
    AppendErrResponse(&r.text, msg);
    DrainResponses(conn);
  }

  // Encoding-aware admission rejection ("ERR rejected: <why>" / kBinRespReject).
  void RespondReject(Connection* conn, const std::string& why) {
    if (!conn->binary) {
      Respond(conn, "ERR rejected: " + why);
      return;
    }
    Response& r = conn->responses.PushSlot();
    r.ready = true;
    r.frame_slot = false;
    r.text.clear();
    AppendRejectResponse(&r.text, why);
    DrainResponses(conn);
  }

  // Write refusal in the current failure mode: `ERR fenced <epoch>` once a
  // newer primary exists (the epoch tells the client where to go), plain
  // `ERR readonly` for an unpromoted follower or a degraded primary.
  void RefuseWrite(Connection* conn) {
    if (conn->binary) {
      RespondReject(conn, fenced ? "fenced" : "readonly");
    } else if (fenced) {
      Respond(conn, "ERR fenced " + std::to_string(epoch));
    } else {
      Respond(conn, "ERR readonly");
    }
  }

  void RespondDeferred(Connection* conn, bool frame_slot) {
    Response& r = conn->responses.PushSlot();
    r.ready = false;
    r.frame_slot = frame_slot;
    r.text.clear();
  }

  // ---- Command handling -----------------------------------------------------

  // An unparseable text line (the I/O thread reports it as kBadLine).
  // Recoverable: the connection stays open unless it was the handshake.
  void HandleBadLine(Connection* conn, const std::string& error) {
    ++metrics.protocol_errors;
    if (conn->close_after_write) return;
    if (conn->in_frame()) {
      AbortFrame(conn, "BATCH: " + error);
      return;
    }
    Respond(conn, "ERR " + error);
    if (!conn->handshaken) {
      conn->close_after_write = true;
      MarkDirty(conn);
    }
  }

  // Protocol-fatal input (overlong line, malformed binary frame): one error
  // response, then the connection winds down.
  void HandleFatal(Connection* conn, const std::string& error) {
    ++metrics.protocol_errors;
    if (conn->close_after_write) return;
    if (conn->in_frame()) {
      AbortFrame(conn, "BATCH: " + error);
    } else {
      RespondError(conn, error);
    }
    conn->close_after_write = true;
    MarkDirty(conn);
  }

  Frame& NewFrame(Connection* conn) {
    Frame& frame = conn->frames.PushSlot();
    frame.outstanding = 0;
    frame.applied = 0;
    frame.rejected = 0;
    frame.insert_ids.clear();
    frame.end_seen = false;
    frame.aborted = false;
    return frame;
  }

  // A binary BATCH frame rejected as a unit (readonly): swallow its decoded
  // op commands and the closing kEnd so exactly one response frame answers
  // the one request frame.
  void ConsumeDiscard(Connection* conn, const Command& cmd) {
    if (conn->discard_updates_left > 0) {
      DYNMIS_CHECK(IsUpdateVerb(cmd.verb));  // Decoder guarantees shape.
      if (--conn->discard_updates_left == 0) conn->discard_end = true;
      return;
    }
    DYNMIS_CHECK(cmd.verb == Verb::kEnd);
    conn->discard_end = false;
  }

  void HandleCommand(Connection* conn, Command& cmd) {
    ++metrics.commands[static_cast<int>(cmd.verb)];

    if (!conn->handshaken) {
      const bool text_ok =
          cmd.version == kProtocolVersion && !cmd.binary;
      const bool bin_ok =
          cmd.version == kBinaryProtocolVersion && cmd.binary;
      if (cmd.verb != Verb::kHello || (!text_ok && !bin_ok)) {
        ++metrics.protocol_errors;
        // The refusal is a text line either way: the upgrade never happened.
        conn->staged += "ERR handshake: expected HELLO " +
                        std::to_string(kProtocolVersion) + " or HELLO " +
                        std::to_string(kBinaryProtocolVersion) + " BIN\n";
        conn->close_after_write = true;
        MarkDirty(conn);
        return;
      }
      conn->handshaken = true;
      conn->binary = cmd.binary;
      // The greeting is the connection's last text line; on a binary
      // connection everything after it is framed.
      conn->staged += "OK DYNMIS ";
      conn->staged +=
          std::to_string(conn->binary ? kBinaryProtocolVersion
                                      : kProtocolVersion);
      if (conn->binary) conn->staged += " BIN";
      conn->staged += " backend=" + backend->Kind() +
                      " shards=" + std::to_string(backend->NumShards()) +
                      " algorithm=" + backend->Stats().algorithm + "\n";
      MarkDirty(conn);
      return;
    }

    if (conn->discarding()) {
      ConsumeDiscard(conn, cmd);
      return;
    }

    if (conn->in_frame()) {
      HandleFrameLine(conn, cmd);
      return;
    }

    switch (cmd.verb) {
      case Verb::kHello:
        RespondError(conn, "already handshaken");
        return;
      case Verb::kIns:
      case Verb::kDel:
      case Verb::kInsV:
      case Verb::kDelV:
      case Verb::kKIns:
      case Verb::kKDel:
        if (read_only || degraded) {
          ++metrics.ops_rejected;
          RefuseWrite(conn);
          return;
        }
        AdmitSingle(conn, &cmd);
        return;
      case Verb::kBatch:
        if (read_only || degraded) {
          if (conn->binary) {
            // One reject answers the whole frame; its decoded ops and END
            // are still in flight behind this command — discard them.
            RespondReject(conn, fenced ? "fenced" : "readonly");
            conn->discard_updates_left = cmd.count;
            conn->discard_end = false;
          } else {
            RefuseWrite(conn);
          }
          return;
        }
        conn->frame_updates_left = cmd.count;
        NewFrame(conn);
        return;  // Acked as a unit at END.
      case Verb::kEnd:
        Respond(conn, "ERR END without BATCH");
        return;
      case Verb::kQuery:
      case Verb::kKQuery:
      case Verb::kSolution:
      case Verb::kStats:
      case Verb::kVerify:
      case Verb::kSnapshot:
      case Verb::kTrace:
        HandleQuery(conn, cmd);
        return;
      case Verb::kRepl:
        HandleRepl(conn, cmd);
        return;
      case Verb::kPromote:
        Flush(FlushReason::kBarrier);
        if (DoPromote()) {
          Respond(conn, "OK PROMOTED " + std::to_string(next_seq) +
                            " EPOCH " + std::to_string(epoch));
        } else {
          Respond(conn, "ERR promote: cannot claim a fresh epoch "
                        "(see server log)");
        }
        return;
      case Verb::kReshard:
        HandleReshard(conn, cmd);
        return;
      case Verb::kQuit:
        Flush(FlushReason::kBarrier);  // Deferred acks precede the goodbye.
        Respond(conn, "OK bye");
        conn->close_after_write = true;
        MarkDirty(conn);
        return;
    }
  }

  void AdmitSingle(Connection* conn, Command* cmd) {
    VertexId insv_id = kInvalidVertex;
    std::string why;
    if (!admission.Admit(&cmd->update, &insv_id, &why)) {
      ++metrics.ops_rejected;
      RespondReject(conn, why);
      return;
    }
    ++metrics.ops_admitted;
    RespondDeferred(conn, /*frame_slot=*/false);
    pending_meta.push_back({conn->session, cmd->verb, clock.ElapsedSeconds(),
                            /*in_frame=*/false});
    FlushIfFull();
  }

  void FlushIfFull() {
    if (static_cast<int>(admission.pending().size()) >=
        options.batch_max_ops) {
      Flush(FlushReason::kFull);
    }
  }

  void HandleFrameLine(Connection* conn, Command& cmd) {
    if (conn->awaiting_end) {
      if (cmd.verb != Verb::kEnd) {
        ++metrics.protocol_errors;
        AbortFrame(conn, std::string("BATCH: expected END, got ") +
                             VerbName(cmd.verb));
        return;
      }
      conn->awaiting_end = false;
      conn->frames.back().end_seen = true;
      // The frame's ack slot, at END's position in the response stream.
      RespondDeferred(conn, /*frame_slot=*/true);
      SettleFrames(conn);
      return;
    }
    if (!IsUpdateVerb(cmd.verb)) {
      ++metrics.protocol_errors;
      AbortFrame(conn, std::string("BATCH: expected update line, got ") +
                           VerbName(cmd.verb));
      return;
    }
    Frame& frame = conn->frames.back();
    VertexId insv_id = kInvalidVertex;
    std::string why;
    if (!admission.Admit(&cmd.update, &insv_id, &why)) {
      ++metrics.ops_rejected;
      ++frame.rejected;
    } else {
      ++metrics.ops_admitted;
      ++frame.outstanding;
      if (cmd.verb == Verb::kInsV || cmd.verb == Verb::kKIns) {
        frame.insert_ids.push_back(insv_id);
      }
      pending_meta.push_back({conn->session, cmd.verb, clock.ElapsedSeconds(),
                              /*in_frame=*/true});
    }
    if (--conn->frame_updates_left == 0) conn->awaiting_end = true;
    FlushIfFull();
  }

  // The admitted ops of an aborted frame stay admitted (they were valid);
  // only the frame-level ack is replaced by the error (`msg`, without the
  // "ERR " prefix — RespondError adds the encoding). The frame record
  // survives until its in-flight ops apply, so Flush's FIFO accounting
  // stays exact.
  void AbortFrame(Connection* conn, const std::string& msg) {
    conn->frame_updates_left = 0;
    conn->awaiting_end = false;
    DYNMIS_CHECK(!conn->frames.empty());
    if (conn->frames.back().outstanding == 0) {
      conn->frames.pop_back();
    } else {
      conn->frames.back().aborted = true;
    }
    RespondError(conn, msg);
  }

  // QUERY u / KQUERY key, answered in the connection's encoding.
  void AnswerVertexQuery(Connection* conn, const Command& cmd) {
    const bool keyed = cmd.verb == Verb::kKQuery;
    const VertexId id =
        keyed ? admission.keymap().Lookup(cmd.update.key) : cmd.vertex;
    const char* error = nullptr;
    if (keyed && id == kInvalidVertex) {
      error = "unknown key";
    } else if (!keyed && !admission.replica().IsVertexAlive(id)) {
      error = "unknown vertex";
    }
    const bool in_solution = error == nullptr && backend->InSolution(id);
    Response& r = conn->responses.PushSlot();
    r.ready = true;
    r.frame_slot = false;
    r.text.clear();
    if (conn->binary) {
      if (error != nullptr) {
        AppendErrResponse(&r.text, error);
      } else if (keyed) {
        AppendKQueryResponse(&r.text, id, in_solution);
      } else {
        AppendQueryResponse(&r.text, in_solution);
      }
    } else if (error != nullptr) {
      r.text = std::string("ERR ") + error;
    } else {
      r.text = keyed ? "OK " + std::to_string(id) + (in_solution ? " 1" : " 0")
                     : (in_solution ? "OK 1" : "OK 0");
    }
    DrainResponses(conn);
  }

  void HandleQuery(Connection* conn, const Command& cmd) {
    const Timer query_timer;
    Flush(FlushReason::kBarrier);  // Read-your-writes for every client.
    if (cmd.verb == Verb::kQuery || cmd.verb == Verb::kKQuery) {
      AnswerVertexQuery(conn, cmd);
      metrics.query_latency.Record(query_timer.ElapsedSeconds());
      return;
    }
    // Only QUERY and KQUERY have binary request frames; the other query
    // verbs are text-only and cannot arrive on a binary connection.
    DYNMIS_CHECK(!conn->binary);
    std::string response;
    switch (cmd.verb) {
      case Verb::kSolution: {
        std::vector<VertexId> solution;
        backend->CollectSolution(&solution);
        std::sort(solution.begin(), solution.end());
        response = "OK " + std::to_string(solution.size());
        for (const VertexId v : solution) {
          response += ' ';
          response += std::to_string(v);
        }
        break;
      }
      case Verb::kStats:
        response = "OK " + BuildStatsJson();
        break;
      case Verb::kVerify:
        response = VerifySolution();
        break;
      case Verb::kSnapshot: {
        if (!FileCommandsAllowed()) {
          response = kFileCommandsRefused;
          break;
        }
        // Crash-safe publish: serialize, then tmp-write/fsync/rename so a
        // crash mid-command can never leave a torn snapshot at `path`.
        std::ostringstream out;
        const SnapshotStatus status = SaveServerSnapshot(out);
        if (!status.ok) {
          response = "ERR snapshot: " + status.message;
          break;
        }
        const std::string bytes = std::move(out).str();
        std::string publish_error;
        if (!io::WriteFileAtomic(cmd.path, bytes, &publish_error)) {
          response = "ERR snapshot: " + publish_error;
        } else {
          response = "OK " + std::to_string(static_cast<int64_t>(bytes.size()));
        }
        break;
      }
      case Verb::kTrace:
        if (!FileCommandsAllowed()) {
          response = kFileCommandsRefused;
        } else if (!options.record_trace) {
          response = "ERR trace recording disabled (--record-trace)";
        } else if (!WriteServeTrace(trace, cmd.path)) {
          response = "ERR cannot write " + cmd.path;
        } else {
          response = "OK " + std::to_string(trace.updates.size());
        }
        break;
      default:
        response = "ERR internal";
        break;
    }
    metrics.query_latency.Record(query_timer.ElapsedSeconds());
    Respond(conn, std::move(response));
  }

  // Independence + maximality of the backend's solution against the replica
  // — the same state every admitted op was validated against, with the same
  // checker the loadgen runs client-side (src/serve/verify.h).
  std::string VerifySolution() {
    std::vector<VertexId> solution;
    backend->CollectSolution(&solution);
    bool independent = false;
    bool maximal = false;
    CheckSolution(admission.replica(), solution, &independent, &maximal);
    return std::string("OK independent=") + (independent ? "1" : "0") +
           " maximal=" + (maximal ? "1" : "0") +
           " size=" + std::to_string(solution.size());
  }

  // ---- Replication commands -------------------------------------------------

  void HandleRepl(Connection* conn, const Command& cmd) {
    Flush(FlushReason::kBarrier);  // next_seq must reflect admitted writes.
    if (cmd.path == "STATUS") {
      Respond(conn, "OK REPL " + std::to_string(next_seq) + " EPOCH " +
                        std::to_string(epoch));
      return;
    }
    // SUBSCRIBE <seq> [EPOCH <e>].
    // Fencing handshake: a subscriber announcing a term above ours has seen
    // a newer primary — a reconnecting follower after a failover, say. A
    // writable server must fence itself rather than keep acking writes the
    // new history will never contain; a follower just adopts the term.
    if (cmd.epoch > epoch) {
      if (!read_only) {
        Fence(cmd.epoch, "subscriber handshake");
      } else {
        epoch = cmd.epoch;
      }
    }
    if (fenced) {
      // Streaming from a fenced server would hand out records the new
      // primary's history may have superseded.
      Respond(conn, "ERR fenced " + std::to_string(epoch));
      return;
    }
    if (conn->subscriber) {
      Respond(conn, "ERR already subscribed");
      return;
    }
    if (cmd.seq > next_seq) {
      Respond(conn, "ERR subscribe: seq " + std::to_string(cmd.seq) +
                        " is ahead of head " + std::to_string(next_seq));
      return;
    }
    if (cmd.seq == next_seq) {
      conn->subscriber = true;
      conn->sub_live = true;
      Respond(conn, "OK REPL " + std::to_string(next_seq) + " EPOCH " +
                        std::to_string(epoch));
      return;
    }
    // Historical start: catch up from the change log, then go live.
    if (options.change_log_dir.empty()) {
      Respond(conn, "ERR subscribe: no change log on this server "
                    "(history before seq " +
                        std::to_string(next_seq) + " is gone)");
      return;
    }
    auto cursor = std::make_unique<repl::ChangeLogCursor>();
    std::string error;
    if (!cursor->Open(options.change_log_dir, cmd.seq, &error)) {
      Respond(conn, "ERR subscribe: " + error);
      return;
    }
    conn->subscriber = true;
    conn->sub_live = false;
    conn->sub_cursor = std::move(cursor);
    Respond(conn, "OK REPL " + std::to_string(cmd.seq) + " EPOCH " +
                      std::to_string(epoch));
  }

  // Follower -> primary transition. Idempotent; callable from the PROMOTE
  // verb or SIGUSR1, and the recovery path for a fenced server. The new
  // incarnation claims a fencing epoch strictly above everything it has
  // observed AND above the directory's epoch file, and makes the claim
  // durable *before* serving writes — any still-running old primary that
  // probes the file fences itself, and a crash right after the claim merely
  // burns a term. Returns false (still read-only) when the claim cannot be
  // made durable. Only promote after the old primary is dead or reachable
  // through the shared directory: two writers on one sequence space with
  // neither able to observe the other's epoch is a split brain no log
  // format can repair.
  bool DoPromote() {
    if (!read_only && !fenced) return true;
    const std::string& dir = !options.change_log_dir.empty()
                                 ? options.change_log_dir
                                 : options.follow_dir;
    int64_t new_epoch = epoch;
    if (!dir.empty()) {
      new_epoch = std::max(new_epoch, repl::ReadEpochFile(dir));
    }
    if (!options.follow_dir.empty() && options.follow_dir != dir) {
      new_epoch = std::max(new_epoch, repl::ReadEpochFile(options.follow_dir));
    }
    ++new_epoch;
    if (!dir.empty()) {
      std::string error;
      if (!repl::WriteEpochFile(dir, new_epoch, &error)) {
        std::fprintf(stderr,
                     "dynmis serve: promote aborted: cannot claim epoch "
                     "%lld: %s\n",
                     static_cast<long long>(new_epoch), error.c_str());
        return false;
      }
    }
    if (!options.follow_dir.empty() && options.follow_dir != dir) {
      // The followed directory is the coordination point an old primary
      // probes; leave the claim there too. Best-effort — that host may
      // already be gone, which is exactly why we are promoting.
      std::string error;
      if (!repl::WriteEpochFile(options.follow_dir, new_epoch, &error)) {
        std::fprintf(stderr,
                     "dynmis serve: promote: cannot fence old primary via "
                     "%s: %s\n",
                     options.follow_dir.c_str(), error.c_str());
      }
    }
    epoch = new_epoch;
    fenced = false;
    read_only = false;
    degraded = false;
    degraded_reason.clear();
    unlogged_batches.clear();
    ++metrics.repl_promotions;
    CloseUpstream();
    reconnect_at = -1;
    reconnect_attempts = 0;
    tail_cursor.reset();
    if (!dir.empty()) {
      // Fresh segment stamped with the new term, even if this server
      // already had a writer (a fenced ex-primary's writer was closed; a
      // logging follower's carries the old epoch in its open segment).
      log_writer.reset();
      auto writer = std::make_unique<repl::ChangeLogWriter>();
      std::string error;
      if (writer->Open(dir, options.log_segment_bytes, next_seq, epoch,
                       &error)) {
        log_writer = std::move(writer);
        options.change_log_dir = dir;  // Subscribers catch up from here.
      } else {
        std::fprintf(stderr,
                     "dynmis serve: promote: cannot open change log: %s\n",
                     error.c_str());
      }
      epoch_path = dir + "/epoch";
    }
    if (!dir.empty() && snapshotter == nullptr &&
        (options.snapshot_every_batches > 0 ||
         options.snapshot_interval_ms > 0)) {
      snapshotter = std::make_unique<repl::Snapshotter>(dir);
      last_snapshot_trigger_seq = next_seq;
      last_snapshot_trigger_time = clock.ElapsedSeconds();
    }
    std::fprintf(stderr,
                 "dynmis serve: promoted to primary at seq %lld epoch %lld\n",
                 static_cast<long long>(next_seq),
                 static_cast<long long>(epoch));
    return true;
  }

  // ---- Follower upstream (TCP) ----------------------------------------------

  // host:port -> upstream_addr, parsed once at Start(). Fails only on
  // malformed configuration, which — unlike a refused connection — is not
  // worth retrying.
  bool ParseFollowAddr(std::string* error) {
    const size_t colon = options.follow_addr.rfind(':');
    if (colon == std::string::npos) {
      *error = "--follow expects host:port";
      return false;
    }
    const std::string host = options.follow_addr.substr(0, colon);
    const std::string port = options.follow_addr.substr(colon + 1);
    const bool digits =
        !port.empty() && port.size() <= 5 &&
        std::all_of(port.begin(), port.end(),
                    [](char c) { return c >= '0' && c <= '9'; });
    const int value = digits ? std::atoi(port.c_str()) : 0;
    if (value < 1 || value > 65535) {
      *error = "--follow port must be a number in 1..65535: " + port;
      return false;
    }
    upstream_addr.sin_family = AF_INET;
    upstream_addr.sin_port = htons(static_cast<uint16_t>(value));
    if (inet_pton(AF_INET, host.c_str(), &upstream_addr.sin_addr) != 1) {
      *error = "--follow host must be an IPv4 address: " + host;
      return false;
    }
    return true;
  }

  bool ConnectUpstream(std::string* error) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (faultfs::Connect(fd, reinterpret_cast<const sockaddr*>(&upstream_addr),
                         sizeof(upstream_addr),
                         options.follow_addr.c_str()) != 0) {
      *error = "connect " + options.follow_addr + ": " + std::strerror(errno);
      close(fd);
      return false;
    }
    // Handshake + subscription sent eagerly while the socket is still
    // blocking; everything after is async in the poll loop. The announced
    // epoch lets a stale primary fence itself on our reconnect.
    const std::string hello = "HELLO " + std::to_string(kProtocolVersion) +
                              "\nREPL SUBSCRIBE " + std::to_string(next_seq) +
                              " EPOCH " + std::to_string(epoch) + "\n";
    size_t sent = 0;
    while (sent < hello.size()) {
      const ssize_t n =
          send(fd, hello.data() + sent, hello.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        *error = "send to " + options.follow_addr + ": " +
                 std::strerror(errno);
        close(fd);
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    SetNonBlocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    upstream_fd = fd;
    upstream_state = UpstreamState::kGreeting;
    upstream_in = std::make_unique<LineBuffer>(options.max_line_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEngineUpstreamTag;
    epoll_ctl(epoll_fd, EPOLL_CTL_ADD, upstream_fd, &ev);
    return true;
  }

  void CloseUpstream() {
    if (upstream_fd >= 0) {
      close(upstream_fd);
      upstream_fd = -1;
    }
    upstream_state = UpstreamState::kDown;
    upstream_in.reset();
    rbatch_seq = -1;
    rbatch_left = 0;
    rbatch_updates.clear();
  }

  // A lost upstream is survivable: the follower keeps serving reads at its
  // current sequence and retries the connection with exponential backoff
  // (resubscribing from next_seq) until the primary returns or an operator
  // PROMOTEs this server.
  void UpstreamFailed(const std::string& why) {
    std::fprintf(stderr,
                 "dynmis serve: upstream lost (%s); read-only at seq %lld, "
                 "reconnecting with backoff (PROMOTE to accept writes)\n",
                 why.c_str(), static_cast<long long>(next_seq));
    CloseUpstream();
    ScheduleReconnect();
  }

  // Next attempt at 50ms * 2^attempts, capped at --reconnect-max-ms, with
  // +/-25% jitter so a fleet of followers does not hammer a recovering
  // primary in lockstep.
  void ScheduleReconnect() {
    if (options.follow_addr.empty() || !read_only || fenced) return;
    const int64_t cap = std::max<int64_t>(options.reconnect_max_ms, 50);
    int64_t base_ms = 50;
    for (int i = 0; i < reconnect_attempts && base_ms < cap; ++i) {
      base_ms *= 2;
    }
    base_ms = std::min(base_ms, cap);
    const int64_t jitter =
        static_cast<int64_t>(reconnect_rng.NextBounded(
            static_cast<uint64_t>(base_ms / 2 + 1))) -
        base_ms / 4;
    reconnect_at = clock.ElapsedSeconds() +
                   static_cast<double>(base_ms + jitter) * 1e-3;
    ++reconnect_attempts;
  }

  void MaybeReconnectUpstream() {
    if (reconnect_at < 0 || upstream_fd >= 0) return;
    if (!read_only || fenced) {
      reconnect_at = -1;  // Promoted (or fenced) meanwhile; stop trying.
      return;
    }
    if (clock.ElapsedSeconds() < reconnect_at) return;
    reconnect_at = -1;
    std::string error;
    if (ConnectUpstream(&error)) {
      ++metrics.repl_reconnects;
      std::fprintf(stderr,
                   "dynmis serve: upstream reconnected, resubscribed from "
                   "seq %lld (attempt %d)\n",
                   static_cast<long long>(next_seq), reconnect_attempts);
    } else {
      std::fprintf(stderr, "dynmis serve: reconnect failed: %s\n",
                   error.c_str());
      ScheduleReconnect();
    }
  }

  void ReadUpstream() {
    char buf[4096];
    for (int chunks = 0; chunks < 64 && upstream_fd >= 0; ++chunks) {
      const ssize_t n = recv(upstream_fd, buf, sizeof(buf), 0);
      if (n > 0) {
        upstream_in->Append(buf, static_cast<size_t>(n));
        while (upstream_fd >= 0) {
          auto line = upstream_in->NextLine();
          if (!line) break;
          std::string error;
          if (!HandleUpstreamLine(*line, &error)) {
            UpstreamFailed(error);
            return;
          }
        }
        if (upstream_fd >= 0 && upstream_in->overflowed()) {
          UpstreamFailed("line too long");
          return;
        }
        continue;
      }
      if (n == 0) {
        UpstreamFailed("connection closed");
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      UpstreamFailed(std::strerror(errno));
      return;
    }
  }

  bool HandleUpstreamLine(const std::string& line, std::string* error) {
    switch (upstream_state) {
      case UpstreamState::kGreeting:
        if (line.rfind("OK DYNMIS ", 0) != 0) {
          *error = "bad greeting: " + line;
          return false;
        }
        upstream_state = UpstreamState::kSubscribeAck;
        return true;
      case UpstreamState::kSubscribeAck: {
        long long seq = -1;
        long long ack_epoch = -1;
        const int got = std::sscanf(line.c_str(), "OK REPL %lld EPOCH %lld",
                                    &seq, &ack_epoch);
        if (got < 1 || seq != next_seq) {
          *error = "subscribe refused: " + line;
          return false;
        }
        // The primary's term becomes ours: a restarted primary opens a new
        // epoch, and every record we now apply belongs to it.
        if (got == 2 && ack_epoch > epoch) AdoptEpoch(ack_epoch);
        upstream_head = seq;
        upstream_state = UpstreamState::kStreaming;
        reconnect_attempts = 0;  // Backoff restarts small next time.
        return true;
      }
      case UpstreamState::kStreaming: {
        if (rbatch_left > 0) {
          Command cmd;
          if (!ParseCommand(line, &cmd, error) || !IsUpdateVerb(cmd.verb)) {
            if (error->empty()) *error = "non-update line in RBATCH";
            return false;
          }
          rbatch_updates.push_back(std::move(cmd.update));
          if (--rbatch_left == 0) {
            ApplyReplBatch(&rbatch_updates);
            rbatch_updates.clear();
            rbatch_seq = -1;
          }
          return true;
        }
        long long seq = -1;
        long long count = -1;
        long long frame_epoch = -1;
        const int got = std::sscanf(line.c_str(), "RBATCH %lld %lld %lld",
                                    &seq, &count, &frame_epoch);
        if (got < 2 || count < 0) {
          *error = "expected RBATCH frame, got: " + line;
          return false;
        }
        if (seq != next_seq) {
          *error = "sequence gap: RBATCH " + std::to_string(seq) +
                   " at local seq " + std::to_string(next_seq);
          return false;
        }
        // Epoch discipline: records from a term below what we have already
        // observed come from a stale primary and must never apply; a term
        // above ours is a legitimate new incarnation we adopt.
        if (got == 3 && frame_epoch < epoch) {
          *error = "stale epoch " + std::to_string(frame_epoch) +
                   " at local epoch " + std::to_string(epoch);
          return false;
        }
        if (got == 3 && frame_epoch > epoch) AdoptEpoch(frame_epoch);
        upstream_head = seq + 1;
        rbatch_seq = seq;
        rbatch_left = static_cast<int>(count);
        rbatch_updates.clear();
        if (rbatch_left == 0) ApplyReplBatch(&rbatch_updates);
        return true;
      }
      case UpstreamState::kDown:
        break;
    }
    *error = "unexpected line";
    return false;
  }

  // Applies one replicated batch exactly as the primary did — one
  // ApplyBatch call per RBATCH, so the batch partition (and therefore the
  // final solution) is identical. The admission state mirrors it first:
  // keyed deletes re-resolve against the follower's own key map, and the
  // apply tail checks that vertex-insert ids come out equal, so the two
  // maps stay byte-identical.
  void ApplyReplBatch(std::vector<GraphUpdate>* updates) {
    admission.Mirror(updates);
    const UpdateResult result = ApplyTimed(*updates);
    ++metrics.repl_batches_applied;
    FinishApplied(*updates, result);
  }

  // Follower --follow-dir: drain whatever complete records the primary has
  // made visible. Bounded per pass so a huge backlog cannot starve reads.
  void PumpDirTail() {
    if (tail_cursor == nullptr) return;
    for (int i = 0; i < 256; ++i) {
      repl::LogBatch batch;
      bool available = false;
      std::string error;
      if (!tail_cursor->Next(&batch, &available, &error)) {
        std::fprintf(stderr,
                     "dynmis serve: change-log tail failed (%s); read-only "
                     "at seq %lld, PROMOTE to accept writes\n",
                     error.c_str(), static_cast<long long>(next_seq));
        tail_cursor.reset();
        return;
      }
      if (!available) return;
      DYNMIS_CHECK(batch.seq == next_seq);
      // Same epoch discipline as the TCP stream: never apply a record from
      // a term below one already observed; adopt a newer term (the cursor
      // follows the promoted writer's segments across the handoff).
      if (batch.epoch < epoch) {
        std::fprintf(stderr,
                     "dynmis serve: change-log tail: stale epoch %lld at "
                     "seq %lld (local epoch %lld); read-only at seq %lld, "
                     "PROMOTE to accept writes\n",
                     static_cast<long long>(batch.epoch),
                     static_cast<long long>(batch.seq),
                     static_cast<long long>(epoch),
                     static_cast<long long>(next_seq));
        tail_cursor.reset();
        return;
      }
      if (batch.epoch > epoch) AdoptEpoch(batch.epoch);
      ApplyReplBatch(&batch.updates);
    }
  }

  // ---- Online resharding ----------------------------------------------------

  void HandleReshard(Connection* conn, const Command& cmd) {
    if (read_only) {
      Respond(conn, "ERR readonly");
      return;
    }
    if (reshard != nullptr) {
      Respond(conn, "ERR reshard already in progress");
      return;
    }
    Flush(FlushReason::kBarrier);
    auto task = std::make_unique<ReshardTask>();
    task->target_shards = static_cast<int>(cmd.count);
    // Partition plan for the rebuilt backend: the optional token on the
    // RESHARD line, else whatever the current sharded backend runs (hash
    // when resharding up from the single engine).
    if (!cmd.path.empty()) {
      DYNMIS_CHECK(ParsePartitionStrategy(cmd.path, &task->partition));
    } else if (ShardedMisEngine* current = backend->Sharded()) {
      task->partition = current->options().partition;
    }
    task->base_seq = next_seq;
    std::ostringstream out;
    const SnapshotStatus status = backend->SaveSnapshot(out);
    if (!status.ok) {
      Respond(conn, "ERR reshard: " + status.message);
      return;
    }
    task->base_bytes = std::move(out).str();
    reshard = std::move(task);
    reshard->thread = std::thread([this] { ReshardWorker(); });
    std::string ack =
        "OK RESHARD started " + std::to_string(reshard->target_shards);
    if (!cmd.path.empty()) ack += " " + cmd.path;
    Respond(conn, ack);
  }

  // Worker thread: rebuild the backend at the target shard count from the
  // admission-time snapshot, then replay every batch the loop has applied
  // since. Touches only the ReshardTask (never loop state); the loop joins
  // it before reading `result`.
  void ReshardWorker() {
    ReshardTask& task = *reshard;
    const auto fail = [&task](std::string why) {
      task.error = std::move(why);
      task.failed.store(true, std::memory_order_release);
    };
    std::unique_ptr<ServingBackend> rebuilt;
    {
      std::istringstream in(task.base_bytes);
      std::string error;
      std::unique_ptr<ServingBackend> restored =
          RestoreServingBackend(in, &error);
      task.base_bytes.clear();
      task.base_bytes.shrink_to_fit();
      if (restored == nullptr) {
        fail("restore: " + error);
        return;
      }
      ShardedEngineOptions shard_options;
      shard_options.num_shards = task.target_shards;
      shard_options.partition = task.partition;
      auto engine = ShardedMisEngine::CreateFromGraph(
          restored->ExportGraph(), restored->Config(), shard_options);
      if (engine == nullptr) {
        fail("cannot build " + std::to_string(task.target_shards) +
             "-shard engine");
        return;
      }
      engine->Initialize();
      rebuilt = std::make_unique<ShardedBackend>(std::move(engine));
    }
    while (true) {
      repl::LogBatch batch;
      {
        std::unique_lock<std::mutex> lock(task.mutex);
        if (task.queue.empty()) {
          task.caught_up.store(true, std::memory_order_release);
          task.cv.wait(lock, [&task] {
            return !task.queue.empty() || task.finalize;
          });
          if (task.queue.empty() && task.finalize) break;
        }
        batch = std::move(task.queue.front());
        task.queue.pop_front();
      }
      const UpdateResult result = rebuilt->ApplyBatch(batch.updates);
      if (result.applied != static_cast<int64_t>(batch.updates.size())) {
        fail("replay diverged at seq " + std::to_string(batch.seq));
        return;
      }
    }
    task.result = std::move(rebuilt);
  }

  // Loop side of the cutover: once the worker has drained its queue at
  // least once, one barrier flush bounds what remains, the worker finishes
  // it, and the backend pointer swaps — clients never observe a gap beyond
  // that single flush.
  void CheckReshardCutover() {
    if (reshard == nullptr) return;
    if (!reshard->failed.load(std::memory_order_acquire) &&
        !reshard->caught_up.load(std::memory_order_acquire)) {
      return;
    }
    if (!reshard->failed.load(std::memory_order_acquire)) {
      Flush(FlushReason::kBarrier);
    }
    {
      std::lock_guard<std::mutex> lock(reshard->mutex);
      reshard->finalize = true;
    }
    reshard->cv.notify_all();
    reshard->thread.join();
    if (reshard->failed.load(std::memory_order_acquire) ||
        reshard->result == nullptr) {
      std::fprintf(stderr, "dynmis serve: reshard to %d shards failed: %s\n",
                   reshard->target_shards, reshard->error.c_str());
    } else {
      backend = std::move(reshard->result);
      ++metrics.repl_resharded;
      std::fprintf(stderr, "dynmis serve: resharded to %d shards at seq %lld\n",
                   reshard->target_shards, static_cast<long long>(next_seq));
    }
    reshard.reset();
  }

  // ---- Replication startup --------------------------------------------------

  bool StartReplication(std::string* error) {
    if (!options.follow_addr.empty() && !ParseFollowAddr(error)) return false;
    epoch = options.start_epoch;
    reconnect_rng.Seed(0x9e3779b97f4a7c15ULL ^
                       (static_cast<uint64_t>(getpid()) << 17) ^
                       static_cast<uint64_t>(bound_port));
    if (!options.change_log_dir.empty()) {
      if (!read_only) {
        // Every writer incarnation is a new term: strictly above whatever
        // the bootstrap replay saw AND whatever the directory's epoch file
        // holds, made durable before the first write can be acked. A
        // crashed-and-restarted primary therefore always outranks its own
        // torn tail, and a stale twin still probing the file fences.
        epoch = std::max(options.start_epoch,
                         repl::ReadEpochFile(options.change_log_dir)) +
                1;
        if (!repl::WriteEpochFile(options.change_log_dir, epoch, error)) {
          *error = "cannot claim epoch: " + *error;
          return false;
        }
      }
      epoch_path = options.change_log_dir + "/epoch";
      auto writer = std::make_unique<repl::ChangeLogWriter>();
      if (!writer->Open(options.change_log_dir, options.log_segment_bytes,
                        next_seq, epoch, error)) {
        return false;
      }
      log_writer = std::move(writer);
      if (options.snapshot_every_batches > 0 ||
          options.snapshot_interval_ms > 0) {
        snapshotter = std::make_unique<repl::Snapshotter>(
            options.change_log_dir);
        last_snapshot_trigger_seq = next_seq;
        last_snapshot_trigger_time = clock.ElapsedSeconds();
      }
    }
    if (!options.follow_addr.empty()) {
      std::string connect_error;
      if (!ConnectUpstream(&connect_error)) {
        // A dead primary at follower startup is an ordering hazard, not a
        // configuration one: come up read-only and keep retrying.
        std::fprintf(stderr,
                     "dynmis serve: upstream unavailable (%s); retrying "
                     "with backoff\n",
                     connect_error.c_str());
        ScheduleReconnect();
      }
      return true;
    }
    if (!options.follow_dir.empty()) {
      auto cursor = std::make_unique<repl::ChangeLogCursor>();
      if (!cursor->Open(options.follow_dir, next_seq, error)) return false;
      tail_cursor = std::move(cursor);
    }
    return true;
  }

  static constexpr const char* kFileCommandsRefused =
      "ERR file commands are disabled on non-loopback listeners "
      "(--allow-file-commands)";

  // SNAPSHOT/TRACE are a server-host file-write primitive; allow them only
  // for loopback listeners unless explicitly opted in.
  bool FileCommandsAllowed() const {
    return options.allow_file_commands ||
           options.host.rfind("127.", 0) == 0;
  }

  // ---- Metrics and STATS ----------------------------------------------------

  // Per-I/O-thread counters: live while running, the final copies captured
  // at shutdown afterwards.
  std::vector<IoMetrics> IoMetricsNow() {
    std::vector<IoMetrics> all;
    for (const auto& io : io_threads) all.push_back(io->MetricsCopy());
    return all.empty() ? io_metrics_final : all;
  }

  // The serving counters, collected once: STATS renders them and
  // Server::MetricsSnapshot() returns them.
  ServingMetricsSnapshot CollectMetrics(const std::vector<IoMetrics>& io) {
    ServingMetricsSnapshot snap;
    snap.connections_accepted = metrics.connections_accepted;
    snap.connections_open = static_cast<int64_t>(connections.size());
    snap.protocol_errors = metrics.protocol_errors;
    snap.ops_admitted = metrics.ops_admitted;
    snap.ops_applied = metrics.ops_applied;
    snap.ops_rejected = metrics.ops_rejected;
    snap.batches_flushed = metrics.batches_flushed;
    snap.mean_batch_occupancy = metrics.MeanBatchOccupancy();
    snap.flushes_full = metrics.flushes_full;
    snap.flushes_deadline = metrics.flushes_deadline;
    snap.flushes_barrier = metrics.flushes_barrier;
    snap.uptime_seconds = clock.ElapsedSeconds();
    snap.ops_per_sec =
        snap.uptime_seconds > 0
            ? static_cast<double>(metrics.ops_applied) / snap.uptime_seconds
            : 0;
    snap.update_p50_us = metrics.update_latency.PercentileUs(0.50);
    snap.update_p99_us = metrics.update_latency.PercentileUs(0.99);
    snap.query_p50_us = metrics.query_latency.PercentileUs(0.50);
    snap.query_p99_us = metrics.query_latency.PercentileUs(0.99);
    snap.io_threads = static_cast<int64_t>(io.size());
    for (const IoMetrics& m : io) {
      snap.io_wakeups += m.wakeups;
      snap.io_frames_decoded += m.frames_decoded;
      snap.io_inbox_depth_high_water =
          std::max(snap.io_inbox_depth_high_water, m.inbox_depth_high_water);
    }
    snap.repl_role = fenced ? "fenced" : (read_only ? "follower" : "primary");
    snap.repl_next_seq = next_seq;
    snap.repl_ops_logged = metrics.repl_ops_logged;
    snap.repl_segments =
        log_writer != nullptr ? log_writer->segments_created() : 0;
    if (snapshotter != nullptr) {
      snap.repl_snapshots_written = snapshotter->snapshots_written();
      snap.repl_snapshots_failed = snapshotter->snapshots_failed();
      snap.repl_last_base_seq = snapshotter->last_base_seq();
    }
    for (const auto& [session, conn] : connections) {
      if (conn.subscriber) ++snap.repl_subscribers;
    }
    snap.repl_promotions = metrics.repl_promotions;
    snap.repl_resharded = metrics.repl_resharded;
    snap.repl_epoch = epoch;
    snap.repl_fenced = fenced ? 1 : 0;
    snap.repl_reconnects = metrics.repl_reconnects;
    snap.degraded_reason = degraded_reason;
    snap.keymap_entries = static_cast<int64_t>(admission.keymap().Size());
    snap.window_edges = admission.window_edges();
    snap.expired_ops = admission.expired_ops();
    return snap;
  }

  static void WriteEngineStats(JsonWriter* w, const EngineStats& stats) {
    w->String("algorithm", stats.algorithm);
    w->Int("solution_size", stats.solution_size);
    w->Int("num_vertices", stats.num_vertices);
    w->Int("num_edges", stats.num_edges);
    w->Int("structure_memory_bytes", stats.structure_memory_bytes);
    w->Int("graph_memory_bytes", stats.graph_memory_bytes);
    w->Int("updates_applied", stats.updates_applied);
  }

  // The STATS payload: one line of JSON. tools/check_docs.py reads the
  // block structure of this function to gate docs/OPERATIONS.md's alert
  // table, so blocks open with literal keys.
  std::string BuildStatsJson() {
    const std::vector<IoMetrics> io = IoMetricsNow();
    const ServingMetricsSnapshot snap = CollectMetrics(io);
    JsonWriter w(/*single_line=*/true);
    w.BeginObject();
    w.String("backend", backend->Kind());
    w.Int("protocol_version", kProtocolVersion);
    w.Int("shards", backend->NumShards());
    w.BeginObject("engine");
    WriteEngineStats(&w, backend->Stats());
    // The backend's updates_applied travels in snapshots; this total starts
    // at 0 in each process.
    w.Double("update_seconds", metrics.update_seconds);
    w.EndObject();
    const std::vector<EngineStats> per_shard = backend->PerShardStats();
    if (!per_shard.empty()) {
      w.BeginArray("per_shard");
      for (const EngineStats& stats : per_shard) {
        w.BeginObject();
        WriteEngineStats(&w, stats);
        w.EndObject();
      }
      w.EndArray();
    }
    if (ShardedMisEngine* engine = backend->Sharded()) {
      // Cut-edge resolver health: `conflicts` per `barriers` is the cut
      // conflicts each barrier repairs, and `resolve_seconds` per
      // `barriers` its cost.
      const ShardedStats sharded = engine->ShardStats();
      w.BeginObject("sharded");
      w.String("partition", sharded.partition);
      w.Int("intra_edges", sharded.intra_edges);
      w.Int("cut_edges", sharded.cut_edges);
      w.Double("cut_edge_fraction", sharded.cut_edge_fraction);
      w.Int("barriers", sharded.barriers);
      w.Int("conflicts", sharded.conflicts);
      w.Int("evictions", sharded.evictions);
      w.Int("readded", sharded.readded);
      w.Int("swaps", sharded.swaps);
      w.Double("resolve_seconds", sharded.resolve_seconds);
      w.EndObject();
    }
    w.BeginObject("serving");
    w.Int("connections_open", snap.connections_open);
    w.Int("connections_accepted", snap.connections_accepted);
    w.Int("protocol_errors", snap.protocol_errors);
    w.Int("ops_admitted", snap.ops_admitted);
    w.Int("ops_applied", snap.ops_applied);
    w.Int("ops_rejected", snap.ops_rejected);
    w.Int("batches_flushed", snap.batches_flushed);
    w.Double("mean_batch_occupancy", snap.mean_batch_occupancy);
    w.Int("flushes_full", snap.flushes_full);
    w.Int("flushes_deadline", snap.flushes_deadline);
    w.Int("flushes_barrier", snap.flushes_barrier);
    w.Int("keymap_entries", snap.keymap_entries);
    w.Int("window_edges", snap.window_edges);
    w.Int("expired_ops", snap.expired_ops);
    w.Double("uptime_seconds", snap.uptime_seconds);
    w.Double("ops_per_sec", snap.ops_per_sec);
    w.BeginObject("update_latency_us");
    w.Int("count", metrics.update_latency.count());
    w.Double("p50", snap.update_p50_us);
    w.Double("p99", snap.update_p99_us);
    w.EndObject();
    w.BeginObject("query_latency_us");
    w.Int("count", metrics.query_latency.count());
    w.Double("p50", snap.query_p50_us);
    w.Double("p99", snap.query_p99_us);
    w.EndObject();
    w.BeginObject("commands");
    for (int i = 0; i < kNumVerbs; ++i) {
      w.Int(VerbName(static_cast<Verb>(i)), metrics.commands[i]);
    }
    w.EndObject();
    w.EndObject();
    w.BeginObject("io");
    w.Int("threads", snap.io_threads);
    w.BeginArray("per_thread");
    for (const IoMetrics& m : io) {
      w.BeginObject();
      w.Int("wakeups", m.wakeups);
      w.Int("frames_decoded", m.frames_decoded);
      w.Int("bytes_read", m.bytes_read);
      w.Int("bytes_written", m.bytes_written);
      w.Int("decode_errors", m.decode_errors);
      w.Int("connections", m.connections);
      w.Int("inbox_depth_high_water", m.inbox_depth_high_water);
      w.BeginObject("decode_latency_us");
      for (int v = 0; v < kNumVerbs; ++v) {
        const LatencyRecorder& rec = m.decode_latency[v];
        if (rec.count() == 0) continue;
        w.BeginObject(VerbName(static_cast<Verb>(v)));
        w.Int("count", rec.count());
        w.Double("p50", rec.PercentileUs(0.50));
        w.Double("p99", rec.PercentileUs(0.99));
        w.EndObject();
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.BeginObject("replication");
    w.String("role", snap.repl_role);
    w.Int("epoch", snap.repl_epoch);
    w.Int("fenced", snap.repl_fenced);
    w.Int("degraded", degraded ? 1 : 0);
    w.String("degraded_reason", snap.degraded_reason);
    w.Int("reconnects", snap.repl_reconnects);
    w.Int("next_seq", snap.repl_next_seq);
    w.Int("batches_logged", metrics.repl_batches_logged);
    w.Int("ops_logged", snap.repl_ops_logged);
    w.Int("segments", snap.repl_segments);
    w.Int("batches_streamed", metrics.repl_batches_streamed);
    w.Int("batches_applied", metrics.repl_batches_applied);
    w.Int("snapshots_written", snap.repl_snapshots_written);
    w.Int("snapshots_failed", snap.repl_snapshots_failed);
    w.Int("last_base_seq", snap.repl_last_base_seq);
    w.Int("subscribers", snap.repl_subscribers);
    // Lag: how far the slowest consumer trails this server's head. On a
    // primary that is the slowest catching-up subscriber; on a follower,
    // the last head the upstream announced minus what has applied locally.
    int64_t lag_batches = 0;
    int64_t lag_segments = 0;
    for (const auto& [session, conn] : connections) {
      if (!conn.subscriber || conn.sub_live || conn.sub_cursor == nullptr) {
        continue;
      }
      lag_batches =
          std::max(lag_batches, next_seq - conn.sub_cursor->next_seq());
      if (log_writer != nullptr) {
        int64_t behind = 0;
        for (const int64_t start : log_writer->segment_starts()) {
          if (start > conn.sub_cursor->segment_first_seq()) ++behind;
        }
        lag_segments = std::max(lag_segments, behind);
      }
    }
    if (read_only && upstream_head >= 0) {
      lag_batches = std::max(lag_batches, upstream_head - next_seq);
    }
    // Ops are estimated from mean applied-batch occupancy: the log records
    // batches, so exact trailing op counts would mean re-reading it.
    const int64_t batches_seen =
        metrics.batches_flushed + metrics.repl_batches_applied;
    const double mean_ops =
        batches_seen > 0
            ? static_cast<double>(metrics.ops_applied) /
                  static_cast<double>(batches_seen)
            : 0;
    w.Int("lag_batches", lag_batches);
    w.Double("lag_ops_estimate", static_cast<double>(lag_batches) * mean_ops);
    w.Int("lag_segments", lag_segments);
    w.Int("promotions", snap.repl_promotions);
    w.Int("resharded", snap.repl_resharded);
    w.Int("reshard_in_progress", reshard != nullptr ? 1 : 0);
    w.EndObject();
    w.EndObject();
    return w.Take();
  }

  bool HasCatchingUpSubscriber() const {
    for (const auto& [session, conn] : connections) {
      if (conn.subscriber && !conn.sub_live) return true;
    }
    return false;
  }

  // ---- Socket plumbing ------------------------------------------------------

  bool StartListening(std::string* error) {
    if (options.port < 0 || options.port > 65535) {
      *error = "listen port must be in 0..65535: " +
               std::to_string(options.port);
      return false;
    }
    listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options.port));
    if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
      *error = "bad listen address: " + options.host;
      return false;
    }
    if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      *error = std::string("bind: ") + std::strerror(errno);
      return false;
    }
    if (listen(listen_fd, 128) != 0) {
      *error = std::string("listen: ") + std::strerror(errno);
      return false;
    }
    socklen_t len = sizeof(addr);
    if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      *error = std::string("getsockname: ") + std::strerror(errno);
      return false;
    }
    bound_port = ntohs(addr.sin_port);
    if (!SetNonBlocking(listen_fd)) {
      *error = "cannot set listen socket non-blocking";
      return false;
    }
    epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) {
      *error = std::string("epoll_create1: ") + std::strerror(errno);
      return false;
    }
    wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd < 0) {
      *error = std::string("eventfd: ") + std::strerror(errno);
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEngineWakeTag;
    if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
      *error = std::string("epoll_ctl: ") + std::strerror(errno);
      return false;
    }
    ev.events = EPOLLIN;
    ev.data.u64 = kEngineListenTag;
    if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) != 0) {
      *error = std::string("epoll_ctl: ") + std::strerror(errno);
      return false;
    }
    return true;
  }

  void MuteListener() {
    if (listener_muted) return;
    // Out of descriptors: the queued connection stays on the backlog and
    // level-triggered epoll would re-report it forever. Leave the epoll set
    // and rejoin once the backoff deadline passes.
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    listener_muted = true;
    accept_mute_until = clock.ElapsedSeconds() + 0.1;
  }

  void MaybeUnmuteListener() {
    if (!listener_muted || clock.ElapsedSeconds() < accept_mute_until) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEngineListenTag;
    epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
    listener_muted = false;
  }

  void Accept() {
    for (;;) {
      const int fd = accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EMFILE || errno == ENFILE) MuteListener();
        return;  // EAGAIN (or transient error): back to epoll.
      }
      if (static_cast<int>(connections.size()) >= options.max_connections) {
        const char* msg = "ERR server full\n";
        (void)!write(fd, msg, std::strlen(msg));
        close(fd);
        continue;
      }
      SetNonBlocking(fd);
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const int64_t session = next_session++;
      Connection& conn = connections[session];
      conn.session = session;
      conn.io_thread = next_io_thread;
      next_io_thread = (next_io_thread + 1) % static_cast<int>(io_threads.size());
      // Hand the socket to its I/O thread; from here the engine only ever
      // sees this fd through the session's mailboxes.
      io_threads[conn.io_thread]->orders().Produce([&](IoOrder* o) {
        o->kind = IoOrderKind::kAdopt;
        o->session = session;
        o->fd = fd;
        o->bytes.clear();
        o->pending_out = conn.pending_out;
      });
      kick_needed[conn.io_thread] = 1;
      ++metrics.connections_accepted;
    }
  }

  // Drains every I/O thread's inbox and applies the events in arrival
  // order. Commands run the same admission path the old in-loop parser fed;
  // lifecycle events map onto the winding-down machinery.
  void ProcessIoEvents() {
    for (size_t t = 0; t < io_threads.size(); ++t) {
      std::vector<IoEvent>* events = nullptr;
      const size_t n = io_threads[t]->inbox().Drain(&events);
      for (size_t i = 0; i < n; ++i) {
        IoEvent& ev = (*events)[i];
        auto it = connections.find(ev.session);
        if (it == connections.end()) continue;  // Already torn down.
        Connection& conn = it->second;
        switch (ev.kind) {
          case IoEventKind::kCommand:
            // A winding-down connection (QUIT acked, protocol error) gets
            // no further commands executed.
            if (!conn.close_after_write) HandleCommand(&conn, ev.cmd);
            break;
          case IoEventKind::kBadLine:
            HandleBadLine(&conn, ev.error);
            break;
          case IoEventKind::kFatal:
            HandleFatal(&conn, ev.error);
            break;
          case IoEventKind::kEof:
            // Orderly peer close; answer what was received, then close.
            conn.close_after_write = true;
            MarkDirty(&conn);
            break;
          case IoEventKind::kClosed:
            connections.erase(it);  // Socket already gone on the I/O side.
            break;
        }
      }
    }
  }

  // Ships every dirty connection's staged bytes and lifecycle transitions
  // to its I/O thread as orders, then kicks each thread that got any (and
  // un-parks inboxes that hit their high-water mark). Runs once per loop
  // pass, so N responses staged in one pass cost one order + one wakeup.
  void ShipOutput() {
    for (const int64_t session : dirty_sessions) {
      auto it = connections.find(session);
      if (it == connections.end()) continue;
      Connection& conn = it->second;
      conn.dirty = false;
      IoThread& io = *io_threads[conn.io_thread];
      if (conn.overloaded) {
        ++metrics.protocol_errors;
        io.orders().Produce([&](IoOrder* o) {
          o->kind = IoOrderKind::kCloseNow;
          o->session = session;
          o->fd = -1;
          o->bytes.clear();
          o->pending_out.reset();
        });
        kick_needed[conn.io_thread] = 1;
        connections.erase(it);
        continue;
      }
      if (!conn.staged.empty()) {
        conn.pending_out->fetch_add(static_cast<int64_t>(conn.staged.size()),
                                    std::memory_order_relaxed);
        io.orders().Produce([&](IoOrder* o) {
          o->kind = IoOrderKind::kAppend;
          o->session = session;
          o->fd = -1;
          o->bytes.assign(conn.staged);  // Slot string keeps its capacity.
          o->pending_out.reset();
        });
        conn.staged.clear();
        kick_needed[conn.io_thread] = 1;
      }
      if (conn.close_after_write && !conn.close_order_sent &&
          conn.responses.empty()) {
        conn.close_order_sent = true;
        io.orders().Produce([&](IoOrder* o) {
          o->kind = IoOrderKind::kCloseAfterWrite;
          o->session = session;
          o->fd = -1;
          o->bytes.clear();
          o->pending_out.reset();
        });
        kick_needed[conn.io_thread] = 1;
      }
    }
    dirty_sessions.clear();
    for (size_t t = 0; t < io_threads.size(); ++t) {
      if (io_threads[t]->paused()) {
        // Its inbox has been drained (ProcessIoEvents runs first); re-arm
        // reads.
        io_threads[t]->orders().Produce([](IoOrder* o) {
          o->kind = IoOrderKind::kResume;
          o->session = 0;
          o->fd = -1;
          o->bytes.clear();
          o->pending_out.reset();
        });
        kick_needed[t] = 1;
      }
      if (kick_needed[t]) {
        io_threads[t]->Kick();
        kick_needed[t] = 0;
      }
    }
  }

  bool StartIoThreads(std::string* error) {
    const int n = std::max(1, options.io_threads);
    io_threads.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
      IoThreadOptions io_options;
      io_options.index = t;
      io_options.max_line_bytes = options.max_line_bytes;
      io_options.engine_wake_fd = wake_fd;
      auto io = std::make_unique<IoThread>(io_options);
      if (!io->Start(error)) {
        StopIoThreads();
        return false;
      }
      io_threads.push_back(std::move(io));
    }
    kick_needed.assign(io_threads.size(), 0);
    return true;
  }

  // Asks every I/O thread to flush its remaining output (EPOLLOUT-driven,
  // deadline-bounded inside the thread — no polling re-check loop here)
  // and joins them.
  void StopIoThreads() {
    for (auto& io : io_threads) {
      io->orders().Produce([](IoOrder* o) {
        o->kind = IoOrderKind::kDrain;
        o->session = 0;
        o->fd = -1;
        o->bytes.clear();
        o->pending_out.reset();
      });
      io->Kick();
    }
    for (auto& io : io_threads) io->Join();
    // Keep the final counters readable after the threads are gone (tests
    // and operators inspect MetricsSnapshot() post-shutdown).
    io_metrics_final.clear();
    for (auto& io : io_threads) io_metrics_final.push_back(io->MetricsCopy());
    io_threads.clear();
  }

  int RunLoop() {
    std::string io_error;
    if (!StartIoThreads(&io_error)) {
      std::fprintf(stderr, "dynmis serve: %s\n", io_error.c_str());
      return 1;
    }
    epoll_event events[16];
    while (true) {
      if (stopping) break;

      // Block until traffic — or the pending batch's flush deadline.
      int timeout_ms = -1;
      const auto tighten = [&timeout_ms](int ms) {
        timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
      };
      if (!pending_meta.empty()) {
        const double deadline = pending_meta.front().enqueue_time +
                                options.flush_deadline_us * 1e-6;
        const double remaining = deadline - clock.ElapsedSeconds();
        tighten(remaining <= 0 ? 0 : static_cast<int>(remaining * 1e3) + 1);
      }
      if (listener_muted) {
        // The muted listener must not turn into an indefinite block: keep
        // ticking so the backoff expires and accepting resumes.
        tighten(50);
      }
      if (tail_cursor != nullptr || reshard != nullptr ||
          HasCatchingUpSubscriber()) {
        // Progress on these comes from disk or a worker thread, not socket
        // readiness; keep ticking to notice it.
        tighten(50);
      }
      if (degraded) tighten(50);  // Change-log retry tick.
      if (admission.window_edges() > 0 && !read_only && !fenced) {
        // TTL expiries are clock-driven; tick at a few ms so the window
        // tracks wall time even on an otherwise idle server.
        tighten(5);
      }
      if (reconnect_at >= 0) {
        const double remaining = reconnect_at - clock.ElapsedSeconds();
        tighten(remaining <= 0 ? 0 : static_cast<int>(remaining * 1e3) + 1);
      }
      if (!epoch_path.empty() && !fenced) {
        // Idle fencing probe: without traffic no Flush runs, so keep
        // ticking coarsely to notice a new primary's epoch claim.
        tighten(500);
      }
      const int ready = epoll_wait(epoll_fd, events, 16, timeout_ms);
      if (ready < 0 && errno != EINTR) {
        Drain();
        return 1;
      }

      bool listener_ready = false;
      bool upstream_ready = false;
      for (int i = 0; i < std::max(ready, 0); ++i) {
        switch (events[i].data.u64) {
          case kEngineWakeTag: {
            uint64_t drain = 0;
            (void)!read(wake_fd, &drain, sizeof(drain));
            break;
          }
          case kEngineListenTag:
            listener_ready = true;
            break;
          case kEngineUpstreamTag:
            upstream_ready = true;
            break;
        }
      }

      if (promote_requested.exchange(false)) {
        Flush(FlushReason::kBarrier);
        DoPromote();
      }
      ProcessIoEvents();
      AdvanceWindow();
      if (!pending_meta.empty() &&
          clock.ElapsedSeconds() - pending_meta.front().enqueue_time >=
              options.flush_deadline_us * 1e-6) {
        Flush(FlushReason::kDeadline);
      }
      if (upstream_ready && upstream_fd >= 0) ReadUpstream();
      MaybeReconnectUpstream();
      PumpDirTail();
      PumpSubscribers();
      RetryDegradedLog();
      if (!epoch_path.empty() && !fenced &&
          clock.ElapsedSeconds() >= next_epoch_check) {
        CheckEpochFile();
        next_epoch_check = clock.ElapsedSeconds() + 0.5;
      }
      CheckReshardCutover();
      if (listener_ready) Accept();
      MaybeUnmuteListener();
      ShipOutput();
    }
    Drain();
    return 0;
  }

  // Clean shutdown: apply the in-flight batch, ship the resulting acks (and
  // any other staged bytes) to the I/O threads, then have them flush and
  // close everything under their drain deadline.
  void Drain() {
    Flush(FlushReason::kBarrier);
    ShipOutput();
    StopIoThreads();
    connections.clear();

    // Replication teardown. The final barrier flush above already logged
    // the in-flight batch; fsync so a SIGTERM-initiated exit leaves a log
    // that survives the host going down too.
    if (reshard != nullptr) {
      {
        std::lock_guard<std::mutex> lock(reshard->mutex);
        reshard->finalize = true;
      }
      reshard->cv.notify_all();
      reshard->thread.join();
      reshard.reset();  // Mid-flight result is discarded; shutdown wins.
    }
    if (log_writer != nullptr) {
      std::string error;
      if (!log_writer->Sync(&error)) {
        std::fprintf(stderr, "dynmis serve: change-log sync failed: %s\n",
                     error.c_str());
      }
    }
    if (snapshotter != nullptr) snapshotter->WaitIdle();
    CloseUpstream();
  }

  ~Impl() {
    // Connection sockets are owned (and closed) by the I/O threads.
    if (listen_fd >= 0) close(listen_fd);
    if (epoll_fd >= 0) close(epoll_fd);
    if (wake_fd >= 0) close(wake_fd);
    if (upstream_fd >= 0) close(upstream_fd);
  }
};

Server::Server(std::unique_ptr<ServingBackend> backend, ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(backend), std::move(options))) {
  impl_->read_only = !impl_->options.follow_addr.empty() ||
                     !impl_->options.follow_dir.empty();
  impl_->next_seq = impl_->options.repl_start_seq;
  impl_->last_snapshot_trigger_seq = impl_->next_seq;
}

Server::~Server() = default;

bool Server::Start(std::string* error) {
  if (!impl_->StartListening(error)) return false;
  return impl_->StartReplication(error);
}

int Server::port() const { return impl_->bound_port; }

int Server::Run() { return impl_->RunLoop(); }

void Server::Stop() {
  impl_->stopping = true;
  // write() on an eventfd is async-signal-safe, so this is callable from
  // the SIGINT/SIGTERM handlers.
  if (impl_->wake_fd >= 0) WriteWakeEventFd(impl_->wake_fd);
}

const DynamicGraph& Server::replica_graph() const {
  return impl_->admission.replica();
}

const ingest::KeyMap& Server::key_map() const {
  return impl_->admission.keymap();
}

void Server::AdoptKeyMap(ingest::KeyMap keymap) {
  impl_->admission.AdoptKeyMap(std::move(keymap));
}

std::string Server::StatsJson() { return impl_->BuildStatsJson(); }

ServingMetricsSnapshot Server::MetricsSnapshot() const {
  return impl_->CollectMetrics(impl_->IoMetricsNow());
}

void Server::RequestPromote() {
  impl_->promote_requested.store(true);
  if (impl_->wake_fd >= 0) WriteWakeEventFd(impl_->wake_fd);
}

ServingBackend& Server::backend() { return *impl_->backend; }

namespace {
Server* g_signal_server = nullptr;
void HandleStopSignal(int) {
  if (g_signal_server != nullptr) g_signal_server->Stop();
}
void HandlePromoteSignal(int) {
  if (g_signal_server != nullptr) g_signal_server->RequestPromote();
}
}  // namespace

void Server::InstallSignalHandlers(Server* server) {
  g_signal_server = server;
  struct sigaction action{};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  action.sa_handler = HandlePromoteSignal;
  sigaction(SIGUSR1, &action, nullptr);
}

}  // namespace serve
}  // namespace dynmis
