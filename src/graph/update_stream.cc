#include "src/graph/update_stream.h"

#include <algorithm>
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

UpdateStreamGenerator::UpdateStreamGenerator(UpdateStreamOptions options)
    : options_(options), rng_(SplitMix64(options.seed)) {}

namespace {

bool RandomAliveEdge(const DynamicGraph& g, Rng* rng, VertexId* u,
                     VertexId* v) {
  if (g.NumEdges() == 0) return false;
  while (true) {
    const auto e = static_cast<EdgeId>(rng->NextBounded(g.EdgeCapacity()));
    if (g.IsEdgeAlive(e)) {
      std::tie(*u, *v) = g.Endpoints(e);
      return true;
    }
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

VertexId RandomBiasedVertex(const DynamicGraph& g, EndpointBias bias,
                            Rng* rng) {
  if (bias == EndpointBias::kDegreeProportional && g.NumEdges() > 0) {
    // A uniform edge endpoint is a degree-proportional vertex.
    while (true) {
      const auto e = static_cast<EdgeId>(rng->NextBounded(g.EdgeCapacity()));
      if (g.IsEdgeAlive(e)) {
        const auto [a, b] = g.Endpoints(e);
        return rng->NextBool(0.5) ? a : b;
      }
    }
  }
  return RandomAliveVertex(g, rng);
}

bool RandomNonEdge(const DynamicGraph& g, EndpointBias bias, Rng* rng,
                   VertexId* u, VertexId* v) {
  if (g.NumVertices() < 2) return false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const VertexId a = RandomBiasedVertex(g, bias, rng);
    const VertexId b = RandomBiasedVertex(g, bias, rng);
    if (a == b || g.HasEdge(a, b)) continue;
    *u = a;
    *v = b;
    return true;
  }
  return false;  // Graph is (nearly) complete.
}

GraphUpdate UpdateStreamGenerator::Next(const DynamicGraph& g) {
  GraphUpdate update;
  const bool edge_op = rng_.NextBool(options_.edge_op_fraction);
  const bool insert = rng_.NextBool(options_.insert_fraction);
  if (edge_op && insert) {
    if (RandomNonEdge(g, options_.bias, &rng_, &update.u, &update.v)) {
      update.kind = UpdateKind::kInsertEdge;
      return update;
    }
    // Dense graph: fall through to edge deletion.
  }
  if (edge_op) {
    if (RandomAliveEdge(g, &rng_, &update.u, &update.v)) {
      update.kind = UpdateKind::kDeleteEdge;
      return update;
    }
    // No edges: fall through to vertex insertion.
  }
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
      chosen.insert(RandomBiasedVertex(g, options_.bias, &rng_));
    }
    update.neighbors.assign(chosen.begin(), chosen.end());
    std::sort(update.neighbors.begin(), update.neighbors.end());
    return update;
  }
  update.kind = UpdateKind::kDeleteVertex;
  update.u = RandomAliveVertex(g, &rng_);
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

std::vector<GraphUpdate> MakeUpdateSequence(
    const DynamicGraph& g, int count, const UpdateStreamOptions& options) {
  DynamicGraph scratch = g;
  UpdateStreamGenerator gen(options);
  std::vector<GraphUpdate> sequence;
  sequence.reserve(count);
  for (int i = 0; i < count; ++i) {
    sequence.push_back(gen.Next(scratch));
    ApplyUpdate(&scratch, sequence.back());
  }
  return sequence;
}

}  // namespace dynmis
