// DynamicGraph: an undirected graph supporting amortized O(1) edge
// insertion, amortized O(1) edge deletion once the edge is found, and vertex
// deletion in time proportional to the vertex degree.
//
// This is the substrate every dynamic algorithm in the library runs on.
// Three properties matter to the algorithm layers:
//
//  * Vertex ids are *stable*: an id never moves while the vertex is alive,
//    so algorithm layers can keep their per-vertex state in flat arrays
//    indexed by id (no hashing on hot paths). Ids of deleted vertices are
//    recycled last-freed-first, and snapshots keep them (see LoadFrom).
//    Edges have no ids: an edge is its two entries, one in each endpoint's
//    array.
//  * Incidence order is most recent first, and a delete removes in place.
//    The maintainers' tie-breaks follow this order, so it is part of the
//    behaviour contract that tests/determinism_test.cc pins.
//  * Adjacency is contiguous. Each vertex owns an array of 8-byte
//    (neighbour, mirror) entries, appended in insertion order and read back
//    to front, so a lookup and every neighbourhood scan read memory in
//    sequence. The paper keeps I(v) as a doubly-linked list with a pointer
//    stored in each edge, for O(1) deletion; here each entry holds the
//    position of its mirror, the same edge's entry in the neighbour's
//    array, instead. A delete scans the shorter array, follows the mirror
//    and leaves a tombstone on both sides (one at the end is simply
//    dropped). An order-preserving compaction drops the tombstones and
//    patches the mirrors of the entries it moved: in a short array once
//    half of it is dead, or when an append finds it full with dead
//    entries; in a long one once a quarter is dead. A compaction keeps the
//    array's block while the array stays over half full, so under
//    sliding-window churn (each delete hits an array's oldest entry) an
//    array keeps reusing its block.
//
// Memory comes in fixed-size pieces, so no insert ever reallocates an
// edge-indexed array. Adjacency arrays live in size-class blocks. Short
// ones (capacities ~1/8 apart, up to 64 entries) share 4 KB slab pages,
// and a page that loses 1/8 of its contents is evacuated and reused, so
// fragmentation stays bounded; a longer array has a chunk of its own (a
// power of two), recycled through a free list per class. The bulk builds
// (FromEdges, LoadFrom) size each array once, in vertex order.
//
// The graph is not thread-safe; a single maintainer mutates it.

#ifndef DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_
#define DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/io/snapshot.h"
#include "src/util/check.h"

namespace dynmis {

using VertexId = int32_t;
// Edge ids belong to the stream samplers' own table (EdgeIdTable in
// src/graph/update_stream.h); the graph keeps none.
using EdgeId = int32_t;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr EdgeId kInvalidEdge = -1;

class DynamicGraph {
 public:
  DynamicGraph() = default;

  // Convenience constructor: `n` vertices (ids 0..n-1), no edges.
  explicit DynamicGraph(int n);

  // The graph on vertices 0..n-1 that a ReserveDegree of every vertex to
  // its final degree, then one AddEdge per edge in list order, would build,
  // byte for byte, built in one pass: each array is allocated once in
  // vertex order and each edge's two entries are written with their
  // mirrors. As AddEdge does, checks ids in range and no self loop, and no
  // parallel edge in debug builds.
  static DynamicGraph FromEdges(
      int n, const std::vector<std::pair<VertexId, VertexId>>& edges);

  DynamicGraph(const DynamicGraph&) = default;
  DynamicGraph& operator=(const DynamicGraph&) = default;
  DynamicGraph(DynamicGraph&&) = default;
  DynamicGraph& operator=(DynamicGraph&&) = default;

  // --- Vertices -------------------------------------------------------------

  // Adds an isolated vertex and returns its id. Recycles ids of previously
  // removed vertices before growing the id space — unless an id has been
  // queued with QueueVertexId, in which case that id is used.
  VertexId AddVertex();

  // Directs the next AddVertex() call: it returns exactly `v` (growing the
  // id space or pulling `v` out of the free list as needed; ids skipped
  // while growing join the free list, keeping it exact). This lets an owner
  // that allocates ids externally — the sharded engine's global id space —
  // route vertex inserts through maintainers unchanged. `v` must be dead,
  // and at most one id is queued at a time.
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

  // Pre-sizes the per-vertex arrays for `n` vertices and allocates shared
  // adjacency pages for 2m entries (m edges), as headroom for churn.
  // Purely an optimization; never shrinks.
  void Reserve(int n, int64_t m);

  // Sizes alive vertex `v`'s adjacency array once, so that it can reach
  // `degree` without relocating. The sharded engine's build calls it for
  // every vertex before inserting (see ShardedMisEngine::Build): growing an
  // array edge by edge leaves a trail of outgrown blocks in the slabs.
  void ReserveDegree(VertexId v, int degree);

  // Dead vertex ids in recycling order (AddVertex pops from the back).
  // Consumers that rebuild an id-space-exact copy of this graph — the
  // sharded engine's resharding path — replay these removals so future
  // AddVertex calls allocate identical ids on both sides.
  const std::vector<VertexId>& FreeVertexIds() const { return free_vertices_; }

  // --- Edges ----------------------------------------------------------------

  // Inserts undirected edge {u, v}. Requirements: u != v, both alive, and
  // the edge must not already exist (checked in debug builds; use HasEdge()
  // first when the input may contain duplicates). A vertex's adjacency
  // array holds at most 2^26 - 1 entries (checked).
  void AddEdge(VertexId u, VertexId v);

  // Removes the edge between u and v if present. Returns true if removed.
  // O(min(deg(u), deg(v))).
  bool RemoveEdgeBetween(VertexId u, VertexId v);

  // O(min(deg(u), deg(v))); false for ids that are out of range or dead.
  bool HasEdge(VertexId u, VertexId v) const;

  int64_t NumEdges() const { return num_edges_; }

  // --- Incidence iteration ---------------------------------------------------

  // Calls pred(neighbor) for the edges incident to `v`, most recently
  // inserted first, until it returns true; returns whether it did. The
  // predicate must not mutate the graph. A predicate that takes a second
  // argument gets kInvalidEdge there: perfbench's answer check still passes
  // a (VertexId, EdgeId) callback.
  template <typename Pred>
  bool AnyIncident(VertexId v, Pred&& pred) const {
    DYNMIS_DCHECK(IsVertexAlive(v));
    const auto len = static_cast<int32_t>(vertices_[v].len);
    if (len == 0) return false;
    const Entry* entries = Entries(v);
    for (int32_t i = len - 1; i >= 0; --i) {
      if (entries[i].nbr != kInvalidVertex && Visit(pred, entries[i].nbr)) {
        return true;
      }
    }
    return false;
  }

  // Calls fn(neighbor) for every edge incident to `v`, most recently
  // inserted first. The callback must not mutate the graph. A callback that
  // takes a second argument gets kInvalidEdge there, as in AnyIncident.
  template <typename Fn>
  void ForEachIncident(VertexId v, Fn&& fn) const {
    AnyIncident(v, [&](VertexId u) {
      Visit(fn, u);
      return false;
    });
  }

  // Returns v's neighbors as a fresh vector (convenience; O(deg)).
  std::vector<VertexId> Neighbors(VertexId v) const;

  // Returns the ids of all alive vertices in increasing order.
  std::vector<VertexId> AliveVertices() const;

  // Returns all alive edges as endpoint pairs (u < v): lower endpoints
  // ascending, each with its higher neighbours in incidence order, oldest
  // first. A graph built from a sorted list, or loaded from a snapshot,
  // lists its edges in the order it was built.
  std::vector<std::pair<VertexId, VertexId>> EdgeList() const;

  // Bytes held by the graph's internal arrays (capacity-based accounting).
  size_t MemoryUsageBytes() const;

  // Adjacency arrays relocated since construction or load: every move to
  // another block (growth, evacuation) and every compaction.
  int64_t Relocations() const { return relocations_; }

  // Test hook: aborts unless every live entry's mirror points back to it,
  // each degree equals its array's live entries, each array's last entry
  // is live, an empty array carries its owner mark, and the counts add up.
  void CheckConsistency() const;

  // --- Snapshots -------------------------------------------------------------

  // Writes the snapshot section "graph": the vertex and edge counts, every
  // vertex's degree (-1 = dead), each live vertex's neighbour ids in
  // incidence order (oldest first, one flat array), and the free-vertex
  // list. Vertex ids, incidence order and the vertex recycling order
  // restore exactly, so algorithm layers can persist their vertex-indexed
  // side arrays alongside.
  void SaveTo(SnapshotWriter* w) const;

  // Replaces this graph with the section "graph" of `r`. Validates the
  // payload in O(n + m) before adopting any of it: degree bounds and sums,
  // neighbour ids in range and alive, no self loop, no parallel edge,
  // symmetric lists, and a free list of exactly the dead ids. A corrupted
  // or crafted payload yields a structured reader error, never
  // out-of-bounds access, and leaves this graph untouched. The mirrors are
  // rebuilt in the pass that checks symmetry. Returns false (with the
  // reader failed) on any violation.
  bool LoadFrom(SnapshotReader* r);

 private:
  // One side of an edge in an adjacency array: the neighbour, and the
  // position of the mirror entry (the same edge's) in the neighbour's
  // array. A tombstone (deleted edge) has nbr == kInvalidVertex. An array
  // with no entries yet keeps its owner in slot 0 as {kOwnerMark, owner},
  // so a page can always name the owner of each array it holds. A free
  // shared block starts with {kFreeMark, next + 1} and {prev + 1, class},
  // linking its class's free list both ways (every class holds at least
  // two entries); a free chunk starts with {kInvalidVertex, next + 1}.
  struct Entry {
    VertexId nbr;
    int32_t mirror;
  };
  static constexpr VertexId kOwnerMark = -2;
  static constexpr VertexId kFreeMark = -3;
  static constexpr uint32_t kNoBlock = 63;  // The class of "no array".

  template <typename Fn>
  static decltype(auto) Visit(Fn& fn, VertexId u) {
    if constexpr (std::is_invocable_v<Fn&, VertexId>) {
      return fn(u);
    } else {
      return fn(u, kInvalidEdge);
    }
  }

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

  // Orders {*u, *v} so that *u has the shorter array and returns the
  // position of *v's entry in it, or -1 if there is no such edge.
  int32_t Locate(VertexId* u, VertexId* v) const;
  // Appends nbr to x's array, first compacting a full short array that
  // holds tombstones, else moving a full array to the next class, and
  // returns the entry's position. The caller sets its mirror.
  int32_t Append(VertexId x, VertexId nbr);
  // Leaves a tombstone at x's entry `pos`, dropping trailing tombstones and
  // compacting the array once enough of its entries are dead.
  void DropEntry(VertexId x, int32_t pos);
  // On an empty graph, gives each vertex v < degrees.size() its record:
  // dead at degree -1, else alive with that degree and an empty array (len
  // 0, no owner mark) in a block of the smallest class holding it, none at
  // degree 0. Blocks are allocated in vertex order. The bulk builds then
  // fill every array to its degree.
  void SizeArrays(const std::vector<int32_t>& degrees);
  // Moves x's array verbatim (tombstones too, so no position changes) into
  // a new block of class `cls`.
  void Move(VertexId x, int cls);
  // Drops x's tombstones, keeping the order, into a block of the smallest
  // class that holds its degree (in place if that is x's class, or if x
  // still fills its block over half; no block at degree 0), and patches
  // the mirrors of the entries that moved.
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
  // The vertex whose array starts at live block `offset`: its owner mark,
  // or the neighbour named by a live entry's mirror.
  VertexId OwnerOf(uint32_t offset) const;

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
  std::vector<VertexId> free_vertices_;
  // The id queued by QueueVertexId for the next AddVertex, or
  // kInvalidVertex. Transient: unset at every quiescent point, never
  // snapshotted.
  VertexId queued_id_ = kInvalidVertex;
  int num_vertices_ = 0;
  int64_t num_edges_ = 0;
  int64_t relocations_ = 0;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_GRAPH_DYNAMIC_GRAPH_H_
