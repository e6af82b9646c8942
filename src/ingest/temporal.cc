#include "src/ingest/temporal.h"

#include <algorithm>

#include "src/util/random.h"

namespace dynmis {
namespace ingest {

TimingWheel::TimingWheel(uint32_t ttl_ticks)
    : slots_(std::max<uint32_t>(1, ttl_ticks)) {}

void TimingWheel::Schedule(VertexId u, VertexId v) {
  // The wheel has exactly ttl slots, so "now + ttl" lands on the slot the
  // cursor is leaving — which drains when it comes around again, one full
  // TTL later (Advance drains before the tick's inserts are scheduled).
  slots_[now_ % slots_.size()].emplace_back(u, v);
  ++scheduled_;
}

void TimingWheel::FastForward(uint64_t tick) {
  if (scheduled_ == 0 && tick > now_) now_ = tick;
}

void TimingWheel::Advance(std::vector<std::pair<VertexId, VertexId>>* out) {
  ++now_;
  auto& slot = slots_[now_ % slots_.size()];
  scheduled_ -= slot.size();
  out->insert(out->end(), slot.begin(), slot.end());
  slot.clear();  // Capacity retained: no allocation next time around.
}

namespace {

// Draws against `scratch`. Only a degree-biased draw reads edge ids, so
// `ids` is kept in step only then.
std::vector<GraphUpdate> DrawTemporal(DynamicGraph scratch, EdgeIdTable ids,
                                      int count,
                                      const TemporalStreamOptions& options,
                                      TemporalStats* stats) {
  const bool by_id = options.bias == EndpointBias::kDegreeProportional;
  TimingWheel wheel(options.ttl_ticks);
  Rng rng(SplitMix64(options.seed));
  TemporalStats local;
  TemporalStats& st = stats != nullptr ? *stats : local;
  st = TemporalStats();
  st.ttl_ticks = wheel.ttl_ticks();

  std::vector<GraphUpdate> sequence;
  sequence.reserve(count);
  std::vector<std::pair<VertexId, VertexId>> expired;
  uint64_t last_emit_tick = 0;
  // Storm mode legitimately idles for a whole period between bursts, which
  // can exceed the TTL when the wheel is small; the stall detector below
  // must not fire inside that gap.
  const uint64_t idle_limit =
      std::max<uint64_t>(
          wheel.ttl_ticks(),
          options.storm ? static_cast<uint64_t>(options.storm_period) : 0) +
      1;

  while (static_cast<int>(sequence.size()) < count) {
    expired.clear();
    wheel.Advance(&expired);
    st.expiry_backlog_peak = std::max(st.expiry_backlog_peak, expired.size());
    for (const auto& [u, v] : expired) {
      if (static_cast<int>(sequence.size()) >= count) break;
      GraphUpdate update;
      update.kind = UpdateKind::kDeleteEdge;
      update.u = u;
      update.v = v;
      if (by_id) ids.Apply(scratch, update);
      ApplyUpdate(&scratch, update);
      sequence.push_back(std::move(update));
      ++st.expiries;
      last_emit_tick = wheel.now();
    }
    int inserts = options.inserts_per_tick;
    if (options.storm) {
      inserts = wheel.now() % std::max(1, options.storm_period) == 0
                    ? options.storm_burst
                    : 0;
    }
    for (int i = 0; i < inserts; ++i) {
      if (static_cast<int>(sequence.size()) >= count) break;
      GraphUpdate update;
      update.kind = UpdateKind::kInsertEdge;
      if (!RandomNonEdge(scratch, ids, options.bias, &rng, &update.u,
                         &update.v)) {
        break;
      }
      if (by_id) ids.Apply(scratch, update);
      ApplyUpdate(&scratch, update);
      wheel.Schedule(update.u, update.v);
      sequence.push_back(std::move(update));
      ++st.inserts;
      last_emit_tick = wheel.now();
    }
    st.window_peak_edges = std::max(st.window_peak_edges, wheel.scheduled());
    // Safety valve: a degenerate configuration (near-complete graph, empty
    // wheel) must terminate rather than spin ticks forever.
    if (wheel.now() - last_emit_tick > idle_limit) break;
  }
  st.deletion_share =
      sequence.empty()
          ? 0.0
          : static_cast<double>(st.expiries) /
                static_cast<double>(sequence.size());
  return sequence;
}

}  // namespace

std::vector<GraphUpdate> MakeTemporalSequence(
    const DynamicGraph& base, int count, const TemporalStreamOptions& options,
    TemporalStats* stats) {
  EdgeIdTable ids;
  if (options.bias == EndpointBias::kDegreeProportional) {
    ids = EdgeIdTable(base.EdgeList());
  }
  return DrawTemporal(base, std::move(ids), count, options, stats);
}

std::vector<GraphUpdate> MakeTemporalSequence(
    const EdgeListGraph& base, int count, const TemporalStreamOptions& options,
    TemporalStats* stats) {
  EdgeIdTable ids;
  if (options.bias == EndpointBias::kDegreeProportional) {
    ids = EdgeIdTable(base.edges);
  }
  return DrawTemporal(base.ToDynamic(), std::move(ids), count, options, stats);
}

}  // namespace ingest
}  // namespace dynmis
