// Temporal sliding-window streams: every inserted edge carries a timestamp
// and expires after a TTL, turning the insert-biased update mix the bench
// scenarios default to into the deletion-heavy workload of the dynamic
// streaming literature (Monemizadeh et al., PAPERS.md).
//
// The expiry engine is a timing wheel: `ttl` slots, one per tick, cursor
// advancing O(1) per tick and draining exactly the edges whose lifetime
// elapsed. Slot vectors are cleared, never freed, so a warm wheel schedules
// and expires forever without allocating — the serving engine thread runs
// one inline with admission.
//
// Two clients, one code path:
//  * bench_driver: MakeTemporalSequence pre-draws a deterministic update
//    sequence (tick == op index) where deletions are exclusively TTL
//    expiries, plus the adversarial `storm` mode that aligns whole insert
//    bursts onto one expiry tick.
//  * serving: the server schedules admitted edge inserts on a wall-clock
//    wheel (ServeOptions window TTL) and feeds the drained batches through
//    the same admission flush as client writes, so expiries replicate and
//    snapshot like any other deletion.

#ifndef DYNMIS_SRC_INGEST_TEMPORAL_H_
#define DYNMIS_SRC_INGEST_TEMPORAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/update_stream.h"

namespace dynmis {
namespace ingest {

class TimingWheel {
 public:
  // Edges scheduled at tick t expire when the cursor reaches t + ttl_ticks.
  explicit TimingWheel(uint32_t ttl_ticks);

  // Schedules {u, v} for expiry one TTL from now.
  void Schedule(VertexId u, VertexId v);

  // Advances one tick and appends the edges expiring at the new tick to
  // *out (which is not cleared). The drained slot keeps its capacity.
  void Advance(std::vector<std::pair<VertexId, VertexId>>* out);

  // Jumps the cursor straight to `tick` — legal only while nothing is
  // scheduled (there is nothing to drain along the way). No-op when `tick`
  // is not ahead of now(). The serving loop uses this to skip a long idle
  // or read-only stretch instead of ticking through it.
  void FastForward(uint64_t tick);

  uint64_t now() const { return now_; }
  uint32_t ttl_ticks() const { return static_cast<uint32_t>(slots_.size()); }
  // Edges scheduled and not yet expired. Edges deleted by other means
  // before their TTL still count until their slot drains; callers filter
  // drained pairs against the live graph.
  size_t scheduled() const { return scheduled_; }

 private:
  std::vector<std::vector<std::pair<VertexId, VertexId>>> slots_;
  uint64_t now_ = 0;
  size_t scheduled_ = 0;
};

struct TemporalStreamOptions {
  uint32_t ttl_ticks = 2000;  // Edge lifetime, in update ticks.
  // Inserts per tick. 1 is the steady sliding window; the storm mode below
  // overrides the shape.
  int inserts_per_tick = 1;
  // Adversarial deletion storm: inserts arrive in bursts of `storm_burst`
  // on every `storm_period`-th tick (idle otherwise), so each burst expires
  // as one deletion batch of the same size one TTL later.
  bool storm = false;
  int storm_burst = 256;
  int storm_period = 64;
  EndpointBias bias = EndpointBias::kUniform;
  uint64_t seed = 1;
};

struct TemporalStats {
  uint32_t ttl_ticks = 0;
  int64_t inserts = 0;
  int64_t expiries = 0;           // Expiry deletions emitted.
  size_t window_peak_edges = 0;   // Max edges in flight in the window.
  size_t expiry_backlog_peak = 0; // Max expiry deletions from one tick.
  double deletion_share = 0.0;    // expiries / total updates.
};

// Pre-draws `count` updates against a scratch copy of `base`: each tick
// first emits the deletions the wheel expires, then draws the tick's
// inserts. Deterministic given the options; replaying against any graph
// identical to `base` is valid by construction. Stats out-param optional.
// A degree-biased draw numbers the edges as MakeUpdateSequence does: in
// base.EdgeList() order here, in list order in the overload below.
std::vector<GraphUpdate> MakeTemporalSequence(
    const DynamicGraph& base, int count, const TemporalStreamOptions& options,
    TemporalStats* stats);
std::vector<GraphUpdate> MakeTemporalSequence(
    const EdgeListGraph& base, int count, const TemporalStreamOptions& options,
    TemporalStats* stats);

}  // namespace ingest
}  // namespace dynmis

#endif  // DYNMIS_SRC_INGEST_TEMPORAL_H_
