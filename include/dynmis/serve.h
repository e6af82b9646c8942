// Serving layer: a dependency-free TCP server over the engine facades, so
// the maintained independent set can be driven and queried from outside the
// process — the first subsystem that exercises the library as a service
// rather than as an in-process benchmark.
//
// The server speaks a newline-delimited text protocol (README "Serving"):
//
//   HELLO 1                          versioned handshake (mandatory first line)
//   INS u v / DEL u v                edge updates
//   INSV [n1 n2 ...] / DELV u        vertex updates
//   BATCH n ... END                  n update lines framed as one client batch
//   QUERY u / SOLUTION / STATS       queries (impose a flush barrier)
//   SNAPSHOT path / TRACE path       durable checkpoints / applied-op trace
//   VERIFY                           server-side independence+maximality check
//   REPL SUBSCRIBE seq [EPOCH e]     change-log streaming (replication)
//   REPL STATUS                      replication head + fencing epoch
//   PROMOTE                          follower -> primary (also on SIGUSR1);
//                                    claims a fresh fencing epoch

//   RESHARD n [plan]                 online backend swap to n shards (plan:
//                                    hash | range | locality)
//   QUIT                             orderly goodbye
//
// Updates pass through an *admission layer* (src/serve/admission.h): each op
// is validated against a replica graph (invalid ops are rejected with `ERR`,
// never reach the engine, and can never trip an engine precondition), then
// coalesced with ops from every other connection into one ApplyBatch call,
// flushed when the batch fills (`batch_max_ops`) or a deadline expires
// (`flush_deadline_us`). Acks are deferred until the containing batch
// applies, so `OK` means "applied", and the measured update latency is the
// honest queue+apply time. Throughput therefore scales with connection
// count (one engine call per batch) instead of collapsing into per-op
// engine traffic.
//
// The server runs over either backend behind the ServingBackend adapter: a
// single MisEngine, or a ShardedMisEngine with N shards. STATS
// reports the same EngineStats fields for both (plus a per-shard breakdown
// for the sharded backend), wired from the same counters the bench driver's
// observer hook uses. SNAPSHOT writes the PR-3 container online;
// RestoreServingBackend plus Server::AdoptKeyMap warm-start a fresh server
// from one (warm failover: checkpoint on the old process, --restore on the
// new).
//
// Concurrency model: one engine thread (acceptor + admission + backend +
// replication) plus ServeOptions::io_threads I/O threads. Each I/O thread
// runs its own epoll loop over a share of the connections — non-blocking
// reads, frame/line decode, and writes all happen there — and feeds parsed
// commands to the engine thread through a per-thread SPSC inbox
// (src/serve/mailbox.h); the engine never touches a connection socket, and
// all wakeups (including Stop()/signals) are eventfd-based. Clients may
// negotiate a length-prefixed binary framing with `HELLO 2 BIN`
// (src/serve/binary.h); text stays the default and the debugging
// interface. SIGTERM / Stop() drains cleanly: pending batches are applied,
// deferred acks are written out bounded by a hard drain deadline, then
// sockets close.

#ifndef DYNMIS_INCLUDE_DYNMIS_SERVE_H_
#define DYNMIS_INCLUDE_DYNMIS_SERVE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/engine.h"
#include "dynmis/snapshot.h"
#include "src/graph/edge_list.h"
#include "src/ingest/key_map.h"

namespace dynmis {

class ShardedMisEngine;

namespace serve {

// Text protocol version; `HELLO 1` selects it. `HELLO 2 BIN` selects the
// binary framing (kBinaryProtocolVersion). Anything else is rejected at the
// handshake.
inline constexpr int kProtocolVersion = 1;
inline constexpr int kBinaryProtocolVersion = 2;

struct ServeOptions {
  // Listen address. Port 0 binds an ephemeral port (Server::port() reports
  // the actual one after Start()).
  std::string host = "127.0.0.1";
  int port = 0;

  // "engine" (single MisEngine) or "sharded" (ShardedMisEngine).
  std::string backend = "engine";
  // Shards of the sharded backend (ignored by "engine").
  int shards = 2;
  MaintainerConfig algo;

  // Admission batching: flush the coalesced batch at this many ops, or when
  // the oldest enqueued op has waited this long, whichever comes first.
  int batch_max_ops = 512;
  double flush_deadline_us = 1000;

  // I/O threads (>= 1), each running an epoll loop over its share of the
  // connections. One thread is plenty up to tens of connections; raise it
  // toward the core count when decode/socket work — not the engine —
  // becomes the ceiling (see README "Serving").
  int io_threads = 1;

  // Protocol limits. A line longer than max_line_bytes is a protocol error
  // and closes the connection; a client that piles up more than
  // max_output_bytes of unread responses (pipelining SOLUTION without
  // reading, say) is disconnected rather than allowed to grow server
  // memory without bound.
  size_t max_line_bytes = 1 << 16;
  size_t max_output_bytes = 16 << 20;
  int max_connections = 256;

  // Record every applied update so the TRACE command can export the exact
  // applied sequence (unbounded memory over the server's lifetime; meant
  // for verification runs, not production).
  bool record_trace = false;

  // SNAPSHOT/TRACE write client-supplied paths on the server host — a file
  // -write primitive no unauthenticated remote peer should have. They are
  // enabled automatically on loopback listeners and refused elsewhere
  // unless this is explicitly set.
  bool allow_file_commands = false;

  // Temporal sliding window: when > 0, every admitted edge insert is
  // scheduled for deletion this many wall-clock milliseconds later. Expiry
  // batches flow through the normal admission/apply/replication path, so a
  // follower sees the same deletions the primary applied. 0 disables the
  // window (edges live forever, the classic behaviour).
  int64_t window_ttl_ms = 0;

  // --- Replication (README "Replication") ---

  // When set, every applied ApplyBatch is appended to a segmented change
  // log in this directory, REPL SUBSCRIBE can serve catch-up from disk, and
  // periodic base snapshots land next to the segments.
  std::string change_log_dir;
  // Rotate change-log segments at this size.
  int64_t log_segment_bytes = 4 << 20;
  // Write a background base snapshot every N applied batches (0 = off).
  // Requires change_log_dir.
  int64_t snapshot_every_batches = 0;
  // Also trigger a base snapshot when this much wall time has passed since
  // the last trigger, firing at the next batch boundary (0 = off; combines
  // with snapshot_every_batches — whichever trips first). Requires
  // change_log_dir. Unlike the batch-count cadence this one is workload-
  // independent: an idle-ish primary still snapshots on schedule.
  int64_t snapshot_interval_ms = 0;

  // Follower mode: tail a primary over TCP ("host:port") or tail its
  // change-log directory directly (same-host deployments). Mutually
  // exclusive; either one starts the server read-only (updates answered
  // with `ERR readonly`) until it is promoted.
  std::string follow_addr;
  std::string follow_dir;
  // First change-log seq the follower still needs (set by the bootstrap
  // path after base-snapshot restore + tail replay).
  int64_t repl_start_seq = 0;
  // Seq of the base snapshot the follower booted from (-1: fresh start);
  // surfaced in STATS for observability.
  int64_t bootstrap_base_seq = -1;
  // Highest fencing epoch observed by the bootstrap replay (epoch file,
  // base-snapshot prologue, segment headers). A primary claims a strictly
  // higher epoch at Start(); a follower adopts it as its starting term.
  int64_t start_epoch = 0;
  // Upper bound for the follower's upstream-reconnect backoff (the delay
  // doubles from 50ms per consecutive failure, with +/-25% jitter, and is
  // capped here).
  int64_t reconnect_max_ms = 5000;
};

// The uniform surface the server drives. Both engines sit behind it; a new
// backend (e.g. a remote replica) implements these twelve calls.
class ServingBackend {
 public:
  virtual ~ServingBackend() = default;

  // "engine" or "sharded".
  virtual std::string Kind() const = 0;
  // Shards (1 for the single engine).
  virtual int NumShards() const = 0;
  virtual UpdateResult ApplyBatch(const std::vector<GraphUpdate>& updates) = 0;
  virtual bool InSolution(VertexId v) = 0;
  // Appends the current solution to `out` (not cleared).
  virtual void CollectSolution(std::vector<VertexId>* out) = 0;
  virtual EngineStats Stats() = 0;
  // Per-shard breakdown (empty for the single engine); same field meanings
  // as Stats(), restricted to one shard's local view.
  virtual std::vector<EngineStats> PerShardStats() { return {}; }
  // The sharded engine behind this backend (nullptr for the single engine).
  // STATS reads its ShardStats() for the resolver block, and RESHARD
  // defaults the target partition plan to the current one.
  virtual ShardedMisEngine* Sharded() { return nullptr; }
  virtual SnapshotStatus SaveSnapshot(std::ostream& out) = 0;
  // Appends the backend's sections to an open writer (SaveSnapshot is
  // SaveTo + WriteTo). The server's snapshot path composes this with its
  // own sections (the external-key map) into one container.
  virtual void SaveTo(SnapshotWriter* writer) = 0;
  // A standalone copy of the served graph whose id-space state matches the
  // backend's (future AddVertex ids agree). Seeds the admission replica.
  virtual DynamicGraph ExportGraph() = 0;
  // The maintainer configuration the backend runs (resharding rebuilds a
  // target backend with the same algorithm).
  virtual const MaintainerConfig& Config() const = 0;
};

// Builds the backend named by `options.backend` (with `options.shards` and
// `options.algo`) over a copy of `base`, initialized. Returns nullptr with
// `*error` set on an unknown backend name or algorithm. Snapshots restore
// through RestoreServingBackend.
std::unique_ptr<ServingBackend> MakeServingBackend(const EdgeListGraph& base,
                                                   const ServeOptions& options,
                                                   std::string* error);

// Restores a backend from a snapshot stream, auto-detecting the container
// flavour ("sharded" section present -> ShardedMisEngine, else MisEngine).
// The one restore path: `dynmis_cli serve --restore`, the replication
// bootstrap, RESHARD and the load generator's resume check all load
// snapshots through it, without knowing which backend wrote them. When
// `keymap` is non-null and the container carries a "keymap" section
// (servers with keyed clients write one), it is restored into `*keymap`;
// containers without one leave it empty. Returns nullptr with `*error` set
// on a malformed or incompatible snapshot.
std::unique_ptr<ServingBackend> RestoreServingBackend(
    std::istream& in, std::string* error, ingest::KeyMap* keymap = nullptr);

// Live serving counters, exposed via STATS (JSON) and Server::StatsJson().
struct ServingMetricsSnapshot {
  int64_t connections_accepted = 0;
  int64_t connections_open = 0;
  int64_t protocol_errors = 0;
  int64_t ops_admitted = 0;
  int64_t ops_applied = 0;
  int64_t ops_rejected = 0;
  int64_t batches_flushed = 0;
  double mean_batch_occupancy = 0;
  int64_t flushes_full = 0;      // Batch reached batch_max_ops.
  int64_t flushes_deadline = 0;  // Flush deadline expired.
  int64_t flushes_barrier = 0;   // A query/snapshot/drain forced the flush.
  double uptime_seconds = 0;
  double ops_per_sec = 0;  // Applied ops over uptime.
  // Microsecond percentiles (enqueue -> applied for updates; whole command
  // for queries).
  double update_p50_us = 0;
  double update_p99_us = 0;
  double query_p50_us = 0;
  double query_p99_us = 0;
  // Transport (summed over I/O threads; per-thread detail in STATS JSON).
  int64_t io_threads = 0;
  int64_t io_wakeups = 0;
  int64_t io_frames_decoded = 0;
  int64_t io_inbox_depth_high_water = 0;  // Max over threads.
  // Replication (zero / defaulted when replication is not configured).
  std::string repl_role;         // "primary", "follower", or "fenced".
  int64_t repl_next_seq = 0;     // Batches applied == next log seq.
  int64_t repl_ops_logged = 0;   // Ops appended to the change log.
  int64_t repl_segments = 0;     // Segments created by this writer.
  int64_t repl_snapshots_written = 0;
  int64_t repl_snapshots_failed = 0;
  int64_t repl_last_base_seq = -1;
  int64_t repl_subscribers = 0;  // Live REPL SUBSCRIBE connections.
  int64_t repl_promotions = 0;   // PROMOTE/SIGUSR1 transitions taken.
  int64_t repl_resharded = 0;    // Completed online RESHARD swaps.
  int64_t repl_epoch = 0;        // Highest fencing epoch observed.
  int64_t repl_fenced = 0;       // 1 after a higher epoch fenced this server.
  int64_t repl_reconnects = 0;   // Successful upstream re-establishments.
  // Why writes are currently refused on a degraded primary (change-log
  // append failure); empty while healthy.
  std::string degraded_reason;
  // External-key / temporal-window layer (docs/OPERATIONS.md has the alert
  // thresholds).
  int64_t keymap_entries = 0;  // Live key -> id bindings.
  int64_t window_edges = 0;    // Edges currently inside the TTL window.
  int64_t expired_ops = 0;     // TTL deletions applied over the lifetime.
};

// The TCP server. Construct, Start(), then Run() on the engine thread;
// Run() spawns the configured I/O threads and joins them on drain. Stop()
// is safe from any thread (and from the installed signal handlers) and
// triggers the drain path.
class Server {
 public:
  Server(std::unique_ptr<ServingBackend> backend, ServeOptions options);
  ~Server();

  // Binds and listens (and, for a follower, starts tailing). Returns false
  // with `*error` set on socket failure or a malformed address: a listen
  // port outside 0..65535, or a follow port outside 1..65535.
  bool Start(std::string* error);

  // The bound port (valid after Start()).
  int port() const;

  // Serves until Stop(). Returns 0 on a clean drain, 1 on an internal
  // socket error.
  int Run();

  // Requests shutdown (thread- and signal-safe); Run() drains and returns.
  void Stop();

  // Requests follower promotion (thread- and signal-safe): the loop drops
  // read-only mode, detaches from the upstream, and — when a change_log_dir
  // is configured — starts appending to its own change log. No-op on a
  // server that is already writable.
  void RequestPromote();

  // Routes SIGINT/SIGTERM to Stop() and SIGUSR1 to RequestPromote() of this
  // server (one server per process).
  static void InstallSignalHandlers(Server* server);

  // The admission layer's replica of the served graph — exactly the state
  // every applied update has been validated against. Read-only interop for
  // verification; meaningless while Run() is mid-loop on another thread.
  const DynamicGraph& replica_graph() const;

  // The external-key map (KINS/KDEL/KQUERY bindings). Same caveats as
  // replica_graph().
  const ingest::KeyMap& key_map() const;

  // Seeds the key map before Run() — the replication bootstrap path hands
  // over the bindings it restored from the base snapshot + tail replay.
  void AdoptKeyMap(ingest::KeyMap keymap);

  // The STATS payload (one-line JSON), for tooling that has no socket.
  std::string StatsJson();

  ServingMetricsSnapshot MetricsSnapshot() const;

  ServingBackend& backend();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_SERVE_H_
