// Random update streams over dynamic graphs.
//
// The paper's workload ("similar to [21], we randomly insert/remove a
// predetermined number of vertices/edges") is reproduced by
// UpdateStreamGenerator: a seeded source of graph updates that are always
// valid against the current graph state. Because every algorithm under
// comparison applies the identical update sequence to its own graph copy,
// and DynamicGraph id allocation is deterministic, vertex ids stay in sync
// across algorithms. The samplers draw edges by id from EdgeIdTable, their
// own numbering, since the graph keeps no edge ids.

#ifndef DYNMIS_SRC_GRAPH_UPDATE_STREAM_H_
#define DYNMIS_SRC_GRAPH_UPDATE_STREAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/graph/edge_list.h"
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

// The samplers' edge numbering, which fixes what a seeded stream draws:
// edge i of the seed list is id i, freed ids are reused last-freed-first,
// and each id keeps its endpoints in the order AddEdge received them
// (RandomBiasedVertex flips a coin between the two). Apply keeps the table
// in step with the graph an update is drawn against.
class EdgeIdTable {
 public:
  EdgeIdTable() = default;
  explicit EdgeIdTable(std::vector<std::pair<VertexId, VertexId>> edges);

  int64_t NumEdges() const { return num_edges_; }
  // One past the largest id ever allocated.
  int Capacity() const { return static_cast<int>(ends_.size()); }
  bool IsAlive(EdgeId e) const { return ends_[e].first != kInvalidVertex; }
  const std::pair<VertexId, VertexId>& Endpoints(EdgeId e) const {
    return ends_[e];
  }

  // Numbers the edges `update` adds and frees those it removes, as the
  // graph `g` it was drawn against is about to apply it: an inserted
  // vertex's edges run from each listed neighbour to the id AddVertex will
  // return, and a deleted vertex frees its edges most recent first.
  void Apply(const DynamicGraph& g, const GraphUpdate& update);
  // Frees alive id `e`.
  void Remove(EdgeId e);

 private:
  void Add(VertexId u, VertexId v);
  // The id of edge {u, v}, which must be alive.
  EdgeId Find(VertexId u, VertexId v);
  // The index slot where the probe for alive id `e` starts.
  size_t Home(EdgeId e) const;
  void Reindex(size_t slots);
  void Place(EdgeId e);
  void Unplace(EdgeId e);

  // Endpoints per id; a free id has first == kInvalidVertex.
  std::vector<std::pair<VertexId, VertexId>> ends_;
  std::vector<EdgeId> free_;
  // The ids of the alive edges, open-addressed by their endpoints: a slot
  // holds id + 1 (0 = empty), probed linearly and kept at most half full.
  // Built on the first Find, since only vertex deletes and deletes named
  // by endpoints look an edge up.
  std::vector<EdgeId> slots_;
  int64_t num_edges_ = 0;
};

// --- Samplers ----------------------------------------------------------------
// Shared by UpdateStreamGenerator and the temporal stream (src/ingest), so
// both draw from `rng` in the same order.

// A uniformly random alive vertex; requires g.NumVertices() > 0.
VertexId RandomAliveVertex(const DynamicGraph& g, Rng* rng);

// A vertex sampled according to `bias` (degree-proportional sampling picks
// a random endpoint of a random edge of `ids`; it never returns isolated
// vertices, so it falls back to uniform when there are no edges).
VertexId RandomBiasedVertex(const DynamicGraph& g, const EdgeIdTable& ids,
                            EndpointBias bias, Rng* rng);

// A non-adjacent pair of distinct vertices, both drawn with `bias`. Returns
// false when 64 draws find none (the graph is nearly complete) or when the
// graph has fewer than two vertices.
bool RandomNonEdge(const DynamicGraph& g, const EdgeIdTable& ids,
                   EndpointBias bias, Rng* rng, VertexId* u, VertexId* v);

// Draws valid updates against an evolving graph. The caller applies each
// update to the graph(s) before drawing the next one.
class UpdateStreamGenerator {
 public:
  // Numbers the edges of the graph of the first Next() in EdgeList() order.
  explicit UpdateStreamGenerator(UpdateStreamOptions options);
  // Numbers them as `base` lists them; the first Next() must be drawn
  // against a graph built from `base`.
  UpdateStreamGenerator(UpdateStreamOptions options, const EdgeListGraph& base);

  // Samples the next update, valid with respect to `g`. Falls back across
  // kinds when a kind is impossible (e.g. deleting from an empty graph).
  GraphUpdate Next(const DynamicGraph& g);

 private:
  UpdateStreamOptions options_;
  Rng rng_;
  EdgeIdTable ids_;
  bool numbered_ = false;
};

// Applies `update` to `g` (no independent-set bookkeeping). Returns the id
// of the inserted vertex for kInsertVertex, kInvalidVertex otherwise.
VertexId ApplyUpdate(DynamicGraph* g, const GraphUpdate& update);

// Convenience: pre-draws `count` updates by applying them to a scratch copy
// of `g`. The returned sequence is valid when replayed against any graph
// that starts identical to `g`. The edges are numbered in g.EdgeList()
// order, which for a graph built from a sorted list, or loaded from a
// snapshot, is the order it was built in.
std::vector<GraphUpdate> MakeUpdateSequence(const DynamicGraph& g, int count,
                                            const UpdateStreamOptions& options);

// The same, over base.ToDynamic(), with the edges numbered as `base` lists
// them.
std::vector<GraphUpdate> MakeUpdateSequence(const EdgeListGraph& base,
                                            int count,
                                            const UpdateStreamOptions& options);

}  // namespace dynmis

#endif  // DYNMIS_SRC_GRAPH_UPDATE_STREAM_H_
