// In-server metrics registry for the serving layer: per-command counters,
// admission-batch occupancy, and latency percentiles, all O(1) per event so
// recording never shows up in the serving hot path.
//
// Latencies go into a log-bucketed histogram (~20% bucket growth over
// 0.5us..>1h), so p50/p99 are estimates with bounded relative error and
// constant memory — a raw-sample reservoir would either bound the window or
// grow forever. STATS renders everything as one JSON object (schema in
// README "Serving").

#ifndef DYNMIS_SRC_SERVE_METRICS_H_
#define DYNMIS_SRC_SERVE_METRICS_H_

#include <array>
#include <cstdint>

#include "src/serve/protocol.h"

namespace dynmis {
namespace serve {

// Constant-memory latency histogram. Record() is O(1); PercentileUs() walks
// the 128 buckets.
class LatencyRecorder {
 public:
  void Record(double seconds);

  int64_t count() const { return total_; }
  double total_seconds() const { return sum_seconds_; }

  // Nearest-rank percentile estimate in microseconds, p in (0, 1]. Returns
  // the upper bound of the bucket holding the rank (0 when empty).
  double PercentileUs(double p) const;

  static constexpr int kBuckets = 128;
  // Upper bound (microseconds) of bucket i.
  static double BucketBoundUs(int i);

 private:
  std::array<int64_t, kBuckets> counts_{};
  int64_t total_ = 0;
  double sum_seconds_ = 0;
};

// Number of distinct protocol verbs (per-command counters are indexed by
// static_cast<int>(Verb)).
inline constexpr int kNumVerbs = static_cast<int>(Verb::kQuit) + 1;

// The counters the event loop bumps. Plain struct — the loop is single-
// threaded, so there is no atomicity to manage.
struct ServeMetrics {
  int64_t connections_accepted = 0;
  int64_t protocol_errors = 0;

  // Admission layer: admitted = validated and enqueued; applied = flushed
  // through the backend; rejected = failed validation (never reached it).
  int64_t ops_admitted = 0;
  int64_t ops_applied = 0;
  int64_t ops_rejected = 0;
  int64_t batches_flushed = 0;
  int64_t batch_ops_total = 0;
  int64_t flushes_full = 0;
  int64_t flushes_deadline = 0;
  int64_t flushes_barrier = 0;

  std::array<int64_t, kNumVerbs> commands{};

  // Replication: change-log appends, live subscriber pushes, follower-side
  // applied batches, promotions and completed reshard swaps. Snapshot
  // counters live on the Snapshotter (its worker thread owns them).
  int64_t repl_ops_logged = 0;
  int64_t repl_batches_logged = 0;
  int64_t repl_batches_streamed = 0;  // RBATCH frames pushed/pumped out.
  int64_t repl_batches_applied = 0;   // Follower: upstream batches applied.
  int64_t repl_promotions = 0;
  int64_t repl_resharded = 0;
  int64_t repl_reconnects = 0;  // Successful upstream re-establishments.

  // Wall time inside the engine thread's backend ApplyBatch calls (client
  // flushes and replicated batches): STATS `engine.update_seconds`.
  double update_seconds = 0;

  // Enqueue -> batch-applied time per update op; whole-command time for
  // queries (QUERY/SOLUTION/STATS/VERIFY).
  LatencyRecorder update_latency;
  LatencyRecorder query_latency;

  double MeanBatchOccupancy() const {
    return batches_flushed > 0
               ? static_cast<double>(batch_ops_total) /
                     static_cast<double>(batches_flushed)
               : 0;
  }
};

// Per-I/O-thread transport counters. Each I/O thread mutates its own plain
// instance on the hot path and republishes a whole-struct copy under a
// mutex once per wakeup (src/serve/io_thread.h), so STATS on the engine
// thread reads a consistent snapshot without atomics in the decode loop.
struct IoMetrics {
  int64_t wakeups = 0;         // epoll_wait returns.
  int64_t frames_decoded = 0;  // Text lines + binary frames parsed.
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t decode_errors = 0;
  int64_t connections = 0;  // Currently owned by this thread.
  // High-water depth of this thread's inbox to the engine (mirrored from
  // the mailbox at publish time).
  int64_t inbox_depth_high_water = 0;
  // Wire-to-Command decode time per verb (BATCH frames record under kBatch).
  std::array<LatencyRecorder, kNumVerbs> decode_latency;
};

}  // namespace serve
}  // namespace dynmis

#endif  // DYNMIS_SRC_SERVE_METRICS_H_
