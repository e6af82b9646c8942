// Random update streams over dynamic graphs.
//
// The paper's workload ("similar to [21], we randomly insert/remove a
// predetermined number of vertices/edges") is reproduced by
// UpdateStreamGenerator: a seeded source of graph updates that are always
// valid against the current graph state. Because every algorithm under
// comparison applies the identical update sequence to its own graph copy,
// and DynamicGraph id allocation is deterministic, vertex ids stay in sync
// across algorithms.

#ifndef DYNMIS_SRC_GRAPH_UPDATE_STREAM_H_
#define DYNMIS_SRC_GRAPH_UPDATE_STREAM_H_

#include <string>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/util/random.h"

namespace dynmis {

enum class UpdateKind {
  kInsertEdge,
  kDeleteEdge,
  kInsertVertex,
  kDeleteVertex,
};

// One graph update. For kInsertEdge/kDeleteEdge, (u, v) is the edge. For
// kDeleteVertex, u is the vertex. For kInsertVertex the new vertex id is
// assigned by the receiving graph (deterministically) and `neighbors` lists
// the edges it arrives with.
struct GraphUpdate {
  UpdateKind kind = UpdateKind::kInsertEdge;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  std::vector<VertexId> neighbors;
  // External key binding, meaningful only on kInsertVertex (bind the new
  // vertex's id to `key`) and kDeleteVertex (the vertex was named by `key`;
  // `u` carries the resolved id). Empty means unkeyed — the common case —
  // and short keys stay in the SSO buffer, so unkeyed hot paths pay nothing.
  std::string key;

  std::string DebugString() const;
};

// How endpoints of inserted edges (and neighbours of inserted vertices) are
// chosen.
enum class EndpointBias {
  kUniform,             // Uniform over alive vertices.
  kDegreeProportional,  // Proportional to current degree (preferential-
                        // attachment churn). Preserves a power-law degree
                        // profile under heavy churn, mirroring how real
                        // social/web graphs evolve; uniform churn would
                        // slowly turn any stand-in into an Erdos-Renyi
                        // graph.
};

struct UpdateStreamOptions {
  // Probability that an update is an edge operation (vs a vertex operation).
  double edge_op_fraction = 0.9;
  // Probability that an operation is an insertion (vs a deletion).
  double insert_fraction = 0.5;
  // Degree of newly inserted vertices; -1 means "match the current average".
  int new_vertex_degree = -1;
  EndpointBias bias = EndpointBias::kUniform;
  uint64_t seed = 1;
};

// --- Samplers ----------------------------------------------------------------
// Shared by UpdateStreamGenerator and the temporal stream (src/ingest), so
// both draw from `rng` in the same order.

// A uniformly random alive vertex; requires g.NumVertices() > 0.
VertexId RandomAliveVertex(const DynamicGraph& g, Rng* rng);

// A vertex sampled according to `bias` (degree-proportional sampling picks
// a random endpoint of a random edge; it never returns isolated vertices,
// so it falls back to uniform when there are no edges).
VertexId RandomBiasedVertex(const DynamicGraph& g, EndpointBias bias,
                            Rng* rng);

// A non-adjacent pair of distinct vertices, both drawn with `bias`. Returns
// false when 64 draws find none (the graph is nearly complete) or when the
// graph has fewer than two vertices.
bool RandomNonEdge(const DynamicGraph& g, EndpointBias bias, Rng* rng,
                   VertexId* u, VertexId* v);

// Draws valid updates against an evolving graph. The caller applies each
// update to the graph(s) before drawing the next one.
class UpdateStreamGenerator {
 public:
  explicit UpdateStreamGenerator(UpdateStreamOptions options);

  // Samples the next update, valid with respect to `g`. Falls back across
  // kinds when a kind is impossible (e.g. deleting from an empty graph).
  GraphUpdate Next(const DynamicGraph& g);

 private:
  UpdateStreamOptions options_;
  Rng rng_;
};

// Applies `update` to `g` (no independent-set bookkeeping). Returns the id
// of the inserted vertex for kInsertVertex, kInvalidVertex otherwise.
VertexId ApplyUpdate(DynamicGraph* g, const GraphUpdate& update);

// Convenience: pre-draws `count` updates by applying them to a scratch copy
// of `g`. The returned sequence is valid when replayed against any graph
// that starts identical to `g`.
std::vector<GraphUpdate> MakeUpdateSequence(const DynamicGraph& g, int count,
                                            const UpdateStreamOptions& options);

}  // namespace dynmis

#endif  // DYNMIS_SRC_GRAPH_UPDATE_STREAM_H_
