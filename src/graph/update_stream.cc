#include "src/graph/update_stream.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <tuple>
#include <unordered_set>

#include "src/util/check.h"

namespace dynmis {

std::string GraphUpdate::DebugString() const {
  char buf[96];
  switch (kind) {
    case UpdateKind::kInsertEdge:
      std::snprintf(buf, sizeof(buf), "+edge(%d,%d)", u, v);
      break;
    case UpdateKind::kDeleteEdge:
      std::snprintf(buf, sizeof(buf), "-edge(%d,%d)", u, v);
      break;
    case UpdateKind::kInsertVertex:
      std::snprintf(buf, sizeof(buf), "+vertex(deg=%zu)", neighbors.size());
      break;
    case UpdateKind::kDeleteVertex:
      std::snprintf(buf, sizeof(buf), "-vertex(%d)", u);
      break;
  }
  return buf;
}

EdgeIdTable::EdgeIdTable(std::vector<std::pair<VertexId, VertexId>> edges)
    : ends_(std::move(edges)), num_edges_(static_cast<int64_t>(ends_.size())) {
  DYNMIS_CHECK_LE(ends_.size(),
                  static_cast<size_t>(std::numeric_limits<EdgeId>::max()));
}

namespace {

// The index hash of edge {u, v}, in either order.
size_t PairHash(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return static_cast<size_t>(SplitMix64(static_cast<uint64_t>(u) << 32 |
                                        static_cast<uint32_t>(v)));
}

}  // namespace

size_t EdgeIdTable::Home(EdgeId e) const {
  return PairHash(ends_[e].first, ends_[e].second) & (slots_.size() - 1);
}

void EdgeIdTable::Reindex(size_t slots) {
  slots_.assign(slots, 0);
  for (EdgeId e = 0; e < Capacity(); ++e) {
    if (IsAlive(e)) Place(e);
  }
}

void EdgeIdTable::Place(EdgeId e) {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(e);
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = e + 1;
}

void EdgeIdTable::Unplace(EdgeId e) {
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(e);
  while (slots_[hole] != e + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion: an entry later in the probe run moves into
  // the hole unless its home lies after the hole.
  for (size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    if (((j - Home(slots_[j] - 1)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
}

void EdgeIdTable::Add(VertexId u, VertexId v) {
  EdgeId e;
  if (!free_.empty()) {
    e = free_.back();
    free_.pop_back();
    ends_[e] = {u, v};
  } else {
    DYNMIS_CHECK_LT(ends_.size(),
                    static_cast<size_t>(std::numeric_limits<EdgeId>::max()));
    e = static_cast<EdgeId>(ends_.size());
    ends_.emplace_back(u, v);
  }
  ++num_edges_;
  if (slots_.empty()) return;
  if (2 * static_cast<size_t>(num_edges_) > slots_.size()) {
    Reindex(2 * slots_.size());
  } else {
    Place(e);
  }
}

void EdgeIdTable::Remove(EdgeId e) {
  DYNMIS_CHECK(IsAlive(e));
  if (!slots_.empty()) Unplace(e);
  ends_[e].first = kInvalidVertex;
  free_.push_back(e);
  --num_edges_;
}

EdgeId EdgeIdTable::Find(VertexId u, VertexId v) {
  if (slots_.empty()) {
    Reindex(std::bit_ceil(2 * static_cast<size_t>(num_edges_) + 16));
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = PairHash(u, v) & mask;; i = (i + 1) & mask) {
    DYNMIS_CHECK_NE(slots_[i], 0);  // {u, v} is alive.
    const EdgeId e = slots_[i] - 1;
    const auto [a, b] = ends_[e];
    if ((a == u && b == v) || (a == v && b == u)) return e;
  }
}

void EdgeIdTable::Apply(const DynamicGraph& g, const GraphUpdate& update) {
  switch (update.kind) {
    case UpdateKind::kInsertEdge:
      Add(update.u, update.v);
      return;
    case UpdateKind::kDeleteEdge:
      Remove(Find(update.u, update.v));
      return;
    case UpdateKind::kInsertVertex: {
      const std::vector<VertexId>& free_ids = g.FreeVertexIds();
      const VertexId v =
          free_ids.empty() ? g.VertexCapacity() : free_ids.back();
      for (VertexId u : update.neighbors) Add(u, v);
      return;
    }
    case UpdateKind::kDeleteVertex:
      g.ForEachIncident(update.u,
                        [&](VertexId w) { Remove(Find(update.u, w)); });
      return;
  }
}

UpdateStreamGenerator::UpdateStreamGenerator(UpdateStreamOptions options)
    : options_(options), rng_(SplitMix64(options.seed)) {}

UpdateStreamGenerator::UpdateStreamGenerator(UpdateStreamOptions options,
                                             const EdgeListGraph& base)
    : options_(options),
      rng_(SplitMix64(options.seed)),
      ids_(base.edges),
      numbered_(true) {}

namespace {

// A uniformly random alive id of `ids`; requires ids.NumEdges() > 0.
EdgeId RandomAliveEdge(const EdgeIdTable& ids, Rng* rng) {
  while (true) {
    const auto e = static_cast<EdgeId>(rng->NextBounded(ids.Capacity()));
    if (ids.IsAlive(e)) return e;
  }
}

}  // namespace

VertexId RandomAliveVertex(const DynamicGraph& g, Rng* rng) {
  DYNMIS_CHECK_GT(g.NumVertices(), 0);
  while (true) {
    const auto v = static_cast<VertexId>(rng->NextBounded(g.VertexCapacity()));
    if (g.IsVertexAlive(v)) return v;
  }
}

VertexId RandomBiasedVertex(const DynamicGraph& g, const EdgeIdTable& ids,
                            EndpointBias bias, Rng* rng) {
  if (bias == EndpointBias::kDegreeProportional && ids.NumEdges() > 0) {
    // A uniform edge endpoint is a degree-proportional vertex.
    const auto [a, b] = ids.Endpoints(RandomAliveEdge(ids, rng));
    return rng->NextBool(0.5) ? a : b;
  }
  return RandomAliveVertex(g, rng);
}

bool RandomNonEdge(const DynamicGraph& g, const EdgeIdTable& ids,
                   EndpointBias bias, Rng* rng, VertexId* u, VertexId* v) {
  if (g.NumVertices() < 2) return false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const VertexId a = RandomBiasedVertex(g, ids, bias, rng);
    const VertexId b = RandomBiasedVertex(g, ids, bias, rng);
    if (a == b || g.HasEdge(a, b)) continue;
    *u = a;
    *v = b;
    return true;
  }
  return false;  // Graph is (nearly) complete.
}

GraphUpdate UpdateStreamGenerator::Next(const DynamicGraph& g) {
  if (!numbered_) {
    ids_ = EdgeIdTable(g.EdgeList());
    numbered_ = true;
  }
  // The caller applies every update before drawing the next one.
  DYNMIS_CHECK_EQ(ids_.NumEdges(), g.NumEdges());
  GraphUpdate update;
  const bool edge_op = rng_.NextBool(options_.edge_op_fraction);
  const bool insert = rng_.NextBool(options_.insert_fraction);
  if (edge_op && insert) {
    if (RandomNonEdge(g, ids_, options_.bias, &rng_, &update.u, &update.v)) {
      update.kind = UpdateKind::kInsertEdge;
      ids_.Apply(g, update);
      return update;
    }
    // Dense graph: fall through to edge deletion.
  }
  if (edge_op && ids_.NumEdges() > 0) {
    const EdgeId e = RandomAliveEdge(ids_, &rng_);
    std::tie(update.u, update.v) = ids_.Endpoints(e);
    update.kind = UpdateKind::kDeleteEdge;
    ids_.Remove(e);
    return update;
  }
  // No edges: fall through to vertex insertion.
  if (insert || g.NumVertices() == 0) {
    update.kind = UpdateKind::kInsertVertex;
    int degree = options_.new_vertex_degree;
    if (degree < 0) {
      degree = g.NumVertices() == 0
                   ? 0
                   : static_cast<int>(2 * g.NumEdges() / g.NumVertices());
    }
    degree = std::min<int>(degree, g.NumVertices());
    std::unordered_set<VertexId> chosen;
    while (static_cast<int>(chosen.size()) < degree) {
      chosen.insert(RandomBiasedVertex(g, ids_, options_.bias, &rng_));
    }
    update.neighbors.assign(chosen.begin(), chosen.end());
    std::sort(update.neighbors.begin(), update.neighbors.end());
    ids_.Apply(g, update);
    return update;
  }
  update.kind = UpdateKind::kDeleteVertex;
  update.u = RandomAliveVertex(g, &rng_);
  ids_.Apply(g, update);
  return update;
}

VertexId ApplyUpdate(DynamicGraph* g, const GraphUpdate& update) {
  switch (update.kind) {
    case UpdateKind::kInsertEdge:
      g->AddEdge(update.u, update.v);
      return kInvalidVertex;
    case UpdateKind::kDeleteEdge: {
      const bool removed = g->RemoveEdgeBetween(update.u, update.v);
      DYNMIS_CHECK(removed);
      return kInvalidVertex;
    }
    case UpdateKind::kInsertVertex: {
      const VertexId v = g->AddVertex();
      for (VertexId u : update.neighbors) g->AddEdge(u, v);
      return v;
    }
    case UpdateKind::kDeleteVertex:
      g->RemoveVertex(update.u);
      return kInvalidVertex;
  }
  DYNMIS_CHECK(false);
  return kInvalidVertex;
}

namespace {

std::vector<GraphUpdate> DrawSequence(DynamicGraph scratch,
                                      UpdateStreamGenerator gen, int count) {
  std::vector<GraphUpdate> sequence;
  sequence.reserve(count);
  for (int i = 0; i < count; ++i) {
    sequence.push_back(gen.Next(scratch));
    ApplyUpdate(&scratch, sequence.back());
  }
  return sequence;
}

}  // namespace

std::vector<GraphUpdate> MakeUpdateSequence(
    const DynamicGraph& g, int count, const UpdateStreamOptions& options) {
  return DrawSequence(g, UpdateStreamGenerator(options), count);
}

std::vector<GraphUpdate> MakeUpdateSequence(
    const EdgeListGraph& base, int count, const UpdateStreamOptions& options) {
  return DrawSequence(base.ToDynamic(), UpdateStreamGenerator(options, base),
                      count);
}

}  // namespace dynmis
