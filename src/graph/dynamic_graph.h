// DynamicGraph: an undirected graph supporting amortized O(1) edge
// insertion, amortized O(1) edge deletion once the edge is found, and vertex
// deletion in time proportional to the vertex degree.
//
// This is the substrate every dynamic algorithm in the library runs on.
// Three properties matter to the algorithm layers:
//
//  * Vertex ids and edge ids are *stable*: an id never moves while the
//    vertex/edge is alive, so algorithm layers can keep their per-vertex and
//    per-edge state in flat arrays indexed by id (no hashing on hot paths).
//    Ids of deleted elements are recycled last-freed-first.
//  * Incidence order is most recent first, and a delete removes in place.
//    The maintainers' tie-breaks follow this order, so it is part of the
//    behaviour contract that tests/determinism_test.cc pins.
//  * Adjacency is contiguous. Each vertex owns an array of 8-byte
//    (neighbour, edge id) entries, appended in insertion order and read
//    back to front, so FindEdge and every neighbourhood scan read memory in
//    sequence. The paper keeps I(v) as a doubly-linked list with a pointer
//    stored in each edge, for O(1) deletion; here each edge record holds
//    its entry's position in both endpoints' arrays instead. A delete
//    leaves a tombstone (one at the end is simply dropped). An
//    order-preserving compaction drops the tombstones and patches the
//    positions of the entries it moved: in a short array once half of it
//    is dead, or when an append finds it full with dead entries; in a long
//    one once a quarter is dead. A compaction keeps the array's block while
//    the array stays over half full, so under sliding-window churn (each
//    delete hits an array's oldest entry) an array keeps reusing its block.
//
// Memory comes in fixed-size pieces, so no insert ever reallocates an
// edge-indexed array. Adjacency arrays live in size-class blocks. Short
// ones (capacities ~1/8 apart, up to 64 entries) share 4 KB slab pages,
// and a page that loses 1/8 of its contents is evacuated and reused, so
// fragmentation stays bounded; a longer array has a chunk of its own (a
// power of two), recycled through a free list per class. Edge records live
// in 3 KB pages, and the free edge ids form a stack threaded through the
// dead records. Bulk loaders size each array once (ReserveDegree).
//
// The graph is not thread-safe; a single maintainer mutates it.

#ifndef DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_
#define DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_

#include <array>
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

  // Maximum degree over alive vertices: an exact O(n) scan of the vertex
  // records (a dead record's degree is -1).
  int MaxDegree() const;

  // Pre-sizes the per-vertex arrays for `n` vertices and allocates the
  // edge-record pages for ids below `m` and shared adjacency pages for 2m
  // entries, as headroom for churn. Purely an optimization; never shrinks.
  void Reserve(int n, int64_t m);

  // Sizes alive vertex `v`'s adjacency array once, so that it can reach
  // `degree` without relocating. Bulk loaders call it for every vertex
  // before inserting (see EdgeListGraph::ToDynamic): growing an array edge
  // by edge leaves a trail of outgrown blocks in the slabs.
  void ReserveDegree(VertexId v, int degree);

  // Dead vertex ids in recycling order (AddVertex pops from the back).
  // Consumers that rebuild an id-space-exact copy of this graph — the
  // sharded engine's resharding path — replay these removals so future
  // AddVertex calls allocate identical ids on both sides.
  const std::vector<VertexId>& FreeVertexIds() const { return free_vertices_; }

  // --- Edges ----------------------------------------------------------------

  // Inserts undirected edge {u, v} and returns its id. Requirements: u != v,
  // both alive, and the edge must not already exist (checked in debug builds;
  // use HasEdge() first when the input may contain duplicates). A vertex's
  // adjacency array holds at most 2^26 - 1 entries (checked).
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
    return e >= 0 && e < edge_capacity_ && Rec(e).u != kInvalidVertex;
  }

  int64_t NumEdges() const { return num_edges_; }

  // One past the largest edge id ever allocated.
  int EdgeCapacity() const { return edge_capacity_; }

  // Endpoints of alive edge `e`, in the order AddEdge received them.
  std::pair<VertexId, VertexId> Endpoints(EdgeId e) const {
    DYNMIS_DCHECK(IsEdgeAlive(e));
    const EdgeRec& rec = Rec(e);
    return {rec.u, Entries(rec.u)[rec.pos[0]].nbr};
  }

  // The endpoint of `e` opposite to `v`.
  VertexId Other(EdgeId e, VertexId v) const {
    DYNMIS_DCHECK(IsEdgeAlive(e));
    const EdgeRec& rec = Rec(e);
    if (rec.u != v) {
      DYNMIS_DCHECK(Entries(rec.u)[rec.pos[0]].nbr == v);
      return rec.u;
    }
    return Entries(v)[rec.pos[0]].nbr;
  }

  // --- Incidence iteration ---------------------------------------------------

  // Calls pred(neighbor, edge_id) for the edges incident to `v`, most
  // recently inserted first, until it returns true; returns whether it did.
  // The predicate must not mutate the graph.
  template <typename Pred>
  bool AnyIncident(VertexId v, Pred&& pred) const {
    DYNMIS_DCHECK(IsVertexAlive(v));
    const auto len = static_cast<int32_t>(vertices_[v].len);
    if (len == 0) return false;
    const Entry* entries = Entries(v);
    for (int32_t i = len - 1; i >= 0; --i) {
      if (entries[i].nbr != kInvalidVertex &&
          pred(entries[i].nbr, entries[i].edge)) {
        return true;
      }
    }
    return false;
  }

  // Calls fn(neighbor, edge_id) for every edge incident to `v`, most
  // recently inserted first. The callback must not mutate the graph.
  template <typename Fn>
  void ForEachIncident(VertexId v, Fn&& fn) const {
    AnyIncident(v, [&](VertexId u, EdgeId e) {
      fn(u, e);
      return false;
    });
  }

  // Returns v's neighbors as a fresh vector (convenience; O(deg)).
  std::vector<VertexId> Neighbors(VertexId v) const;

  // Returns the ids of all alive vertices in increasing order.
  std::vector<VertexId> AliveVertices() const;

  // Returns all alive edges as endpoint pairs (u < v), in edge-id order.
  std::vector<std::pair<VertexId, VertexId>> EdgeList() const;

  // Bytes held by the graph's internal arrays (capacity-based accounting).
  size_t MemoryUsageBytes() const;

  // Adjacency arrays relocated since construction or load: every move to
  // another block (growth, evacuation) and every compaction.
  int64_t Relocations() const { return relocations_; }

  // --- Snapshots -------------------------------------------------------------

  // Writes the snapshot section "graph" in its v1 encoding: per vertex an
  // adjacency head and degree, per edge id its endpoints plus the
  // doubly-linked incidence chain links (derived from the arrays on save;
  // a dead record is all -1), and the free lists. Ids and incidence order
  // are preserved exactly, so algorithm layers can persist their id-indexed
  // side arrays alongside.
  void SaveTo(SnapshotWriter* w) const;

  // Replaces this graph with the section "graph" of `r`. Runs a full O(n+m)
  // structural validation (bounds, degree sums, doubly-linked chain
  // integrity, free-list exactness) before any data is adopted, so a
  // corrupted or crafted payload yields a structured reader error — never
  // out-of-bounds access or a cyclic chain walk. Returns false (with the
  // reader failed) on any violation.
  bool LoadFrom(SnapshotReader* r);

 private:
  // One side of an edge in an adjacency array. A tombstone (deleted edge)
  // has nbr == kInvalidVertex. An array with no entries yet keeps its owner
  // in slot 0 as {kOwnerMark, owner}, so a page can always name the owner
  // of each array it holds. A free shared block starts with
  // {kFreeMark, next + 1} and {prev + 1, class}, linking its class's free
  // list both ways (every class holds at least two entries).
  struct Entry {
    VertexId nbr;
    EdgeId edge;
  };
  static constexpr VertexId kOwnerMark = -2;
  static constexpr VertexId kFreeMark = -3;
  static constexpr uint32_t kNoBlock = 63;  // The class of "no array".

  // 12 bytes: the first endpoint as AddEdge received it, and the edge's
  // entry position in each endpoint's array (pos[0] in u's, pos[1] in the
  // other's). The second endpoint is read from u's entry; the delete path
  // gets it from its caller instead (see Detach). A dead record has u ==
  // kInvalidVertex, and its pos[0] links the free-id stack.
  struct EdgeRec {
    VertexId u = kInvalidVertex;
    int32_t pos[2] = {0, 0};
  };

  // 12 bytes per vertex, so that an update touches one line per endpoint:
  // the degree (negative = dead), where its array lives (`block`, a slab
  // offset: page index << kPageShift | entry index), the entries in use
  // (`len`, tombstones included) and the block's size class.
  struct VertexRec {
    int32_t degree = -1;
    uint32_t block = 0;
    uint32_t len : 26 = 0;
    uint32_t cls : 6 = kNoBlock;
  };
  // The longest array (and so the highest degree) a vertex may have.
  static constexpr int32_t kMaxLen = (1 << 26) - 1;

  static constexpr int kPageShift = 9;  // 512 entries = 4 KB.
  static constexpr int32_t kPageEntries = 1 << kPageShift;
  // Arrays up to this capacity share slab pages; a larger one has a chunk
  // of its own, recycled through a free list per class.
  static constexpr int32_t kMaxSharedCap = kPageEntries / 8;
  static constexpr int kNumClasses = 53;
  static constexpr int kEdgePageShift = 8;  // 256 records = 3 KB.
  static constexpr int32_t kEdgePageRecords = 1 << kEdgePageShift;

  // Per shared page: entries bumped into it while it was the bump page, the
  // entries of its blocks in use, whether the page waits in evac_queue_,
  // and a bitmap of its blocks' first entries (in use or free).
  struct PageInfo {
    int32_t used = 0;
    int32_t live = 0;
    bool queued = false;
    std::array<uint64_t, kPageEntries / 64> starts{};
  };

  const Entry* EntryAt(uint32_t offset) const {
    return pages_[offset >> kPageShift].data() + (offset & (kPageEntries - 1));
  }
  Entry* EntryAt(uint32_t offset) {
    return pages_[offset >> kPageShift].data() + (offset & (kPageEntries - 1));
  }
  // v's array. Valid only while v holds a block (cls != kNoBlock).
  const Entry* Entries(VertexId v) const {
    return EntryAt(vertices_[v].block);
  }
  Entry* Entries(VertexId v) { return EntryAt(vertices_[v].block); }

  const EdgeRec& Rec(EdgeId e) const {
    return edge_pages_[e >> kEdgePageShift][e & (kEdgePageRecords - 1)];
  }
  EdgeRec& Rec(EdgeId e) {
    return edge_pages_[e >> kEdgePageShift][e & (kEdgePageRecords - 1)];
  }

  // Removes alive edge e, whose endpoints are {a, b} in either order.
  void Detach(EdgeId e, VertexId a, VertexId b);
  // Appends (nbr, e) to x's array, first compacting a full short array
  // that holds tombstones, else moving a full array to the next class, and
  // returns the entry's position.
  int32_t Append(VertexId x, VertexId nbr, EdgeId e);
  // Leaves a tombstone at x's entry `pos`, dropping trailing tombstones and
  // compacting the array once enough of its entries are dead.
  void DropEntry(VertexId x, int32_t pos);
  // Moves x's array verbatim (tombstones too, so no position changes) into
  // a new block of class `cls`.
  void Move(VertexId x, int cls);
  // Drops x's tombstones, keeping the order, into a block of the smallest
  // class that holds its degree (in place if that is x's class, or if x
  // still fills its block over half; no block at degree 0), and patches
  // the positions of the entries that moved.
  void Compact(VertexId x);

  // Slab allocation. A shared block comes from its class's free list, else
  // is bumped from the current page. Once more than 1/8 of what a page's
  // blocks held is free, the page is queued, and Evacuate(), run at the end
  // of every mutation, unlinks its free blocks, moves its live arrays
  // elsewhere (positions are relative to the block, so a move patches
  // nothing) and recycles the page. Free space thus stays under 1/8 of the
  // shared pages, and no page or chunk ever goes back to the heap.
  uint32_t AllocBlock(int cls);
  void FreeBlock(uint32_t offset, int cls);
  void Unlink(uint32_t offset, int cls);
  void NextBumpPage();
  void MaybeQueue(uint32_t page);
  void Evacuate();
  // The vertex whose array starts at live block `offset`.
  VertexId OwnerOf(uint32_t offset) const;

  void PushFreeEdge(EdgeId e);

  std::vector<VertexRec> vertices_;
  // Slab pages: shared pages of kPageEntries entries, and chunks holding
  // one array of a class above kMaxSharedCap. free_pages_ holds recycled
  // and reserved shared pages. free_[cls] heads the free list of class cls
  // (offset + 1, 0 = empty): shared blocks, or chunks (singly linked).
  std::vector<std::vector<Entry>> pages_;
  std::vector<PageInfo> page_info_;
  int64_t bump_page_ = -1;
  int32_t bump_used_ = kPageEntries;
  size_t shared_pages_ = 0;
  std::vector<uint32_t> free_pages_;
  std::vector<uint32_t> evac_queue_;
  std::array<uint32_t, kNumClasses> free_{};
  std::vector<std::vector<EdgeRec>> edge_pages_;
  int edge_capacity_ = 0;
  EdgeId free_edge_ = kInvalidEdge;  // Top of the free-id stack.
  std::vector<VertexId> free_vertices_;
  // Forced ids queued by QueueVertexId, consumed FIFO by AddVertex
  // (queued_head_ indexes the next unconsumed entry; the vector is cleared
  // once drained). Transient routing state: empty at every quiescent point,
  // never snapshotted.
  std::vector<VertexId> queued_ids_;
  size_t queued_head_ = 0;
  int num_vertices_ = 0;
  int64_t num_edges_ = 0;
  int64_t relocations_ = 0;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_
