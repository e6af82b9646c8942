// DynamicGraph: an undirected graph supporting O(1) edge insertion/deletion
// and vertex insertion/deletion in time proportional to the vertex degree.
//
// This is the substrate every dynamic algorithm in the library runs on. Two
// properties matter to the algorithm layers:
//
//  * Vertex ids and edge ids are *stable*: an id never moves while the
//    vertex/edge is alive, so algorithm layers can keep their per-vertex and
//    per-edge state in flat arrays indexed by id (no hashing on hot paths).
//    Ids of deleted elements are recycled via free lists.
//  * Adjacency is an intrusive doubly-linked list threaded through the edge
//    records themselves, which is what makes deletion O(1). This mirrors the
//    paper's "I(v) can be updated in constant time if it is implemented by a
//    doubly-linked list and a pointer ... is recorded in edge (v, u)".
//
// The graph is not thread-safe; a single maintainer mutates it.

#ifndef DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_
#define DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/io/snapshot.h"
#include "src/util/check.h"

namespace dynmis {

using VertexId = int32_t;
using EdgeId = int32_t;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr EdgeId kInvalidEdge = -1;

class DynamicGraph {
 public:
  DynamicGraph() = default;

  // Convenience constructor: `n` vertices (ids 0..n-1), no edges.
  explicit DynamicGraph(int n);

  DynamicGraph(const DynamicGraph&) = default;
  DynamicGraph& operator=(const DynamicGraph&) = default;
  DynamicGraph(DynamicGraph&&) = default;
  DynamicGraph& operator=(DynamicGraph&&) = default;

  // --- Vertices -------------------------------------------------------------

  // Adds an isolated vertex and returns its id. Recycles ids of previously
  // removed vertices before growing the id space — unless ids have been
  // queued with QueueVertexId, in which case the oldest queued id is used.
  VertexId AddVertex();

  // Directs upcoming AddVertex() calls: each queued id is consumed in FIFO
  // order, and the consuming AddVertex() returns exactly that id (growing
  // the id space or pulling the id out of the free list as needed; ids
  // skipped while growing join the free list, keeping it exact). This lets
  // an owner that allocates ids externally — the sharded engine's global id
  // space — route vertex inserts through maintainers unchanged. Queued ids
  // must be dead and distinct from one another.
  void QueueVertexId(VertexId v);

  // Removes `v` and all its incident edges. `v` must be alive.
  void RemoveVertex(VertexId v);

  // True if `v` names a currently alive vertex.
  bool IsVertexAlive(VertexId v) const {
    return v >= 0 && v < VertexCapacity() && vertices_[v].degree >= 0;
  }

  int NumVertices() const { return num_vertices_; }

  // One past the largest vertex id ever allocated. Per-vertex side arrays in
  // algorithm layers should be sized to this.
  int VertexCapacity() const { return static_cast<int>(vertices_.size()); }

  int Degree(VertexId v) const {
    DYNMIS_DCHECK(IsVertexAlive(v));
    return vertices_[v].degree;
  }

  // Maximum degree over alive vertices. O(1) and always exact: a degree
  // histogram is maintained incrementally (the former implementation kept a
  // lazy upper bound and recomputed with an O(n) scan whenever the bound
  // may have decreased).
  int MaxDegree() const { return max_degree_; }

  // Pre-sizes the internal arrays for `n` vertices and `m` edges, so bulk
  // loaders and generators do not growth-reallocate edge by edge. Purely an
  // optimization; never shrinks.
  void Reserve(int n, int64_t m);

  // Dead vertex ids in recycling order (AddVertex pops from the back).
  // Consumers that rebuild an id-space-exact copy of this graph — the
  // sharded engine's resharding path — replay these removals so future
  // AddVertex calls allocate identical ids on both sides.
  const std::vector<VertexId>& FreeVertexIds() const { return free_vertices_; }

  // --- Edges ----------------------------------------------------------------

  // Inserts undirected edge {u, v} and returns its id. Requirements: u != v,
  // both alive, and the edge must not already exist (checked in debug builds;
  // use HasEdge() first when the input may contain duplicates).
  EdgeId AddEdge(VertexId u, VertexId v);

  // Removes the edge with id `e`. `e` must be alive.
  void RemoveEdge(EdgeId e);

  // Removes the edge between u and v if present. Returns true if removed.
  bool RemoveEdgeBetween(VertexId u, VertexId v);

  // Returns the id of edge {u, v}, or kInvalidEdge. O(min(deg(u), deg(v))).
  EdgeId FindEdge(VertexId u, VertexId v) const;

  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  bool IsEdgeAlive(EdgeId e) const {
    return e >= 0 && e < EdgeCapacity() &&
           edges_[e].endpoint[0] != kInvalidVertex;
  }

  int64_t NumEdges() const { return num_edges_; }

  // One past the largest edge id ever allocated.
  int EdgeCapacity() const { return static_cast<int>(edges_.size()); }

  // Endpoints of alive edge `e` (unordered).
  std::pair<VertexId, VertexId> Endpoints(EdgeId e) const {
    DYNMIS_DCHECK(IsEdgeAlive(e));
    return {edges_[e].endpoint[0], edges_[e].endpoint[1]};
  }

  // The endpoint of `e` opposite to `v`.
  VertexId Other(EdgeId e, VertexId v) const {
    DYNMIS_DCHECK(IsEdgeAlive(e));
    const EdgeRec& rec = edges_[e];
    DYNMIS_DCHECK(rec.endpoint[0] == v || rec.endpoint[1] == v);
    return rec.endpoint[0] == v ? rec.endpoint[1] : rec.endpoint[0];
  }

  // --- Incidence iteration ---------------------------------------------------

  // First incident edge of `v`, or kInvalidEdge.
  EdgeId FirstIncident(VertexId v) const {
    DYNMIS_DCHECK(IsVertexAlive(v));
    return vertices_[v].head;
  }

  // Incident edge following `e` in v's adjacency list, or kInvalidEdge.
  // Touches only the 16-byte hot edge record (endpoints + forward links),
  // so adjacency scans fetch four records per cache line.
  EdgeId NextIncident(EdgeId e, VertexId v) const {
    DYNMIS_DCHECK(IsEdgeAlive(e));
    return edges_[e].next[SideOf(e, v)];
  }

  // Calls fn(neighbor, edge_id) for every edge incident to `v`. The callback
  // must not mutate the graph.
  template <typename Fn>
  void ForEachIncident(VertexId v, Fn&& fn) const {
    for (EdgeId e = FirstIncident(v); e != kInvalidEdge;
         e = NextIncident(e, v)) {
      fn(Other(e, v), e);
    }
  }

  // Returns v's neighbors as a fresh vector (convenience; O(deg)).
  std::vector<VertexId> Neighbors(VertexId v) const;

  // Returns the ids of all alive vertices in increasing order.
  std::vector<VertexId> AliveVertices() const;

  // Returns all alive edges as endpoint pairs (u < v), in edge-id order.
  std::vector<std::pair<VertexId, VertexId>> EdgeList() const;

  // Bytes held by the graph's internal arrays (capacity-based accounting).
  size_t MemoryUsageBytes() const;

  // --- Snapshots -------------------------------------------------------------

  // Writes the graph's flat arrays verbatim as the snapshot section "graph".
  // Ids (vertex, edge, adjacency links, free lists) are preserved exactly,
  // so algorithm layers can persist their id-indexed side arrays alongside.
  void SaveTo(SnapshotWriter* w) const;

  // Replaces this graph with the section "graph" of `r`. Runs a full O(n+m)
  // structural validation (bounds, degree sums, doubly-linked adjacency
  // integrity, free-list exactness) before any data is adopted, so a
  // corrupted or crafted payload yields a structured reader error — never
  // out-of-bounds access or a cyclic adjacency walk. Returns false (with
  // the reader failed) on any violation.
  bool LoadFrom(SnapshotReader* r);

 private:
  // 8 bytes. A negative degree encodes "dead" (the former bool padded the
  // record to 12 bytes); alive vertices always have degree >= 0.
  struct VertexRec {
    EdgeId head = kInvalidEdge;  // First edge of the adjacency list.
    int32_t degree = -1;
  };

  // An undirected edge threaded into both endpoints' adjacency lists.
  // Slot s in {0,1} stores the linkage for endpoint[s]'s list. Only the
  // forward direction lives here: this is the hot record that adjacency
  // scans (FindEdge, ForEachIncident, the MIS state's neighborhood walks)
  // chase, and at exactly 16 bytes four of them share a cache line — the
  // former 28-byte layout (prev links + alive bool) fit barely two. The
  // prev links, needed only on unlink, live in the cold side array
  // edge_prev_; "alive" is encoded as endpoint[0] != kInvalidVertex.
  struct EdgeRec {
    VertexId endpoint[2] = {kInvalidVertex, kInvalidVertex};
    EdgeId next[2] = {kInvalidEdge, kInvalidEdge};
  };

  // Which slot of edge `e` belongs to endpoint `v`.
  int SideOf(EdgeId e, VertexId v) const {
    const EdgeRec& rec = edges_[e];
    DYNMIS_DCHECK(rec.endpoint[0] == v || rec.endpoint[1] == v);
    return rec.endpoint[0] == v ? 0 : 1;
  }

  void UnlinkFrom(EdgeId e, VertexId v);

  // Degree histogram bookkeeping for the O(1) exact MaxDegree().
  void DegreeChanged(int old_degree, int new_degree);

  std::vector<VertexRec> vertices_;
  std::vector<EdgeRec> edges_;
  // Cold per-edge backward links, indexed 2 * e + side.
  std::vector<EdgeId> edge_prev_;
  std::vector<VertexId> free_vertices_;
  std::vector<EdgeId> free_edges_;
  // Forced ids queued by QueueVertexId, consumed FIFO by AddVertex
  // (queued_head_ indexes the next unconsumed entry; the vector is cleared
  // once drained). Transient routing state: empty at every quiescent point,
  // never snapshotted.
  std::vector<VertexId> queued_ids_;
  size_t queued_head_ = 0;
  int num_vertices_ = 0;
  int64_t num_edges_ = 0;
  // degree_count_[d]: number of alive vertices with degree d (maintained
  // for d <= max_degree_; the vector never shrinks).
  std::vector<int32_t> degree_count_;
  int max_degree_ = 0;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_
