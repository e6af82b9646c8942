// CutEdgeResolver: the cross-shard half of the sharded engine. It owns the
// global vertex id space and every cross-shard ("cut") edge — cut edges
// never enter a shard's graph, so shard maintainers stay oblivious to them
// and all cross-shard coordination concentrates here.
//
// Because the resolver observes every vertex add/remove in global op order
// and mirrors DynamicGraph's id recycling exactly (LIFO free list), its id
// allocation matches what a single un-sharded engine replaying the same
// stream would assign — which is what keeps pre-drawn update sequences and
// the single-engine comparison baselines replayable against a sharded
// engine.
//
// Cut edges live in a purpose-built store rather than a DynamicGraph:
// unordered per-vertex neighbor arrays with swap-remove deletion, where
// each 8-byte entry carries the edge's position in the other endpoint's
// array ("mirror index"). A deletion scans only the smaller endpoint's
// contiguous array and finds the far side's entry through the mirror in
// O(1); every mutation is allocation-free in steady state and involves no
// hashing. Neighbor iteration order is NOT canonical (swap-remove
// reorders), which is safe because the barrier pass sorts every
// order-sensitive working set before use — its output is a pure,
// order-insensitive function of the edge set and the shard states.
//
// Cut-edge mutations from routed updates are buffered in op order and
// applied by ApplyCutOps() at each barrier, after the shards' pending
// blocks. Buffering keeps routing O(1) and the store's upkeep out of
// ApplyBatch, whose latency callers time: applied at routing, the upkeep
// put window-sharded's median write at 1.30x (bench/EXPERIMENTS.md, "One
// cut-edge resolver"). Bulk loads (engine creation, snapshot restore)
// insert directly.
//
// Resolve() is the barrier pass: with every shard's pending block and the
// buffered ops applied, it repairs the union of the shards' local
// solutions into a verified maximal independent set of the global graph —
// min-degree greedy confirm over the vertices on conflicting cut edges,
// re-extension of the evicted neighborhoods, and a bounded 1-swap polish
// (paper Algorithm 2's move) over every member. Every working set is sorted
// before use, so the result is a pure function of the shard solutions and
// the edge sets — barrier and block boundaries don't matter. The
// min-degree orders (the conflicted set, the re-extension candidates, each
// polished member's bar1) sort by (total degree, id), with every total
// degree read once per pass into a flat array, since the graphs stay fixed
// while a pass runs.

#ifndef DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_
#define DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/io/snapshot.h"
#include "src/shard/partition_plan.h"
#include "src/shard/shard.h"

namespace dynmis {

class CutEdgeResolver {
 public:
  // Starts with vertices 0..initial_vertices-1 alive and no cut edges.
  explicit CutEdgeResolver(int initial_vertices);

  CutEdgeResolver(const CutEdgeResolver&) = delete;
  CutEdgeResolver& operator=(const CutEdgeResolver&) = delete;

  // --- Global id space (applied in global op order) -------------------------

  VertexId AddVertex();
  // Frees the id for recycling at once and buffers the drop of its cut
  // edges.
  void RemoveVertex(VertexId v);
  bool IsVertexAlive(VertexId v) const {
    return v >= 0 && v < VertexCapacity() && alive_[v];
  }

  // Cut-edge mutations, buffered in op order until ApplyCutOps().
  void AddCutEdge(VertexId u, VertexId v);
  void RemoveCutEdge(VertexId u, VertexId v);

  // Applies the buffered cut-edge mutations in op order. The buffer keeps
  // its capacity, so steady-state barriers do not allocate for it.
  void ApplyCutOps();

  // Bulk loading (engine creation, nothing buffered): frees the id of a
  // vertex that has no cut edges, and inserts a cut edge at once.
  void FreeVertexId(VertexId v);
  void InsertCutEdge(VertexId u, VertexId v);

  // --- Cut-graph reads (exact once ApplyCutOps() ran) -----------------------

  bool HasCutEdge(VertexId u, VertexId v) const {
    if (CutDegree(v) < CutDegree(u)) std::swap(u, v);
    for (const Half& h : adjacency_[u]) {
      if (h.to == v) return true;
    }
    return false;
  }

  int CutDegree(VertexId v) const {
    return v < static_cast<VertexId>(adjacency_.size())
               ? static_cast<int>(adjacency_[v].size())
               : 0;
  }
  // Calls fn(neighbor) for every cut edge incident to `v` (unordered).
  template <typename Fn>
  void ForEachCutNeighbor(VertexId v, Fn&& fn) const {
    if (v >= static_cast<VertexId>(adjacency_.size())) return;
    for (const Half& h : adjacency_[v]) fn(h.to);
  }
  // All cut edges as (u < v) pairs, sorted (snapshot/validation path).
  std::vector<std::pair<VertexId, VertexId>> CutEdgeList() const;

  int64_t NumCutEdges() const { return num_edges_; }
  int NumVertices() const { return num_vertices_; }
  int VertexCapacity() const { return static_cast<int>(alive_.size()); }

  // The dead ids in recycle order (LIFO, matching DynamicGraph's free
  // list). ShardedMisEngine::BuildGlobalGraph uses this to reconstruct a
  // standalone graph whose future AddVertex() calls assign the same ids
  // this resolver will.
  const std::vector<VertexId>& FreeVertexIds() const { return free_vertices_; }

  // --- Barrier resolution ---------------------------------------------------

  struct Resolution {
    // The verified global solution, sorted by id.
    std::vector<VertexId> solution;
    int64_t conflicts = 0;   // Conflicting cut edges found this pass.
    int64_t evictions = 0;   // Vertices evicted from the overlay.
    int64_t readded = 0;     // Vertices re-added by the extension pass.
    int64_t swaps = 0;       // 1-swaps performed by the polish pass.
  };

  // The barrier pass: collects the overlay (the union of the shards' local
  // solutions) and repairs it. Every shard's pending block must have been
  // applied, and ApplyCutOps() run, since the last routed op.
  Resolution Resolve(const PartitionPlan& plan,
                     const std::vector<std::unique_ptr<Shard>>& shards);

  // --- Snapshots ------------------------------------------------------------

  // Persists the id space and cut edges as section "state" (the caller
  // scopes it with a section prefix). The free list travels verbatim so a
  // restored engine recycles ids in the identical order. Call with no ops
  // buffered.
  void SaveTo(SnapshotWriter* w) const;
  // Restores from "state" after full validation (bounds, aliveness,
  // duplicate edges, free-list exactness). On success the adjacency and
  // index are rebuilt from scratch. Returns false with the reader failed
  // on any violation.
  bool LoadFrom(SnapshotReader* r);

  // The id space, the cut store and the barrier scratch. The op buffer is
  // transient routing state, like the shards' pending blocks, and is not
  // counted.
  size_t MemoryUsageBytes() const;

 private:
  // One direction of a cut edge: the far endpoint plus the position of the
  // reverse entry inside the far endpoint's adjacency array.
  struct Half {
    VertexId to;
    int32_t mirror;
  };

  // One buffered cut-graph mutation.
  struct CutOp {
    enum class Kind : uint8_t { kAddEdge, kRemoveEdge, kDropVertex };
    Kind kind;
    VertexId u;
    VertexId v;
  };

  // Grows the per-vertex adjacency to cover id `v`.
  void EnsureCutCapacity(VertexId v);

  void InsertEdgeHalves(VertexId u, VertexId v);
  void RemoveEdgeHalves(VertexId u, VertexId v);
  void DropVertexEdges(VertexId v);

  // Swap-removes adjacency_[owner][index], repairing the mirror of the
  // entry moved into the hole.
  void SwapRemoveHalf(VertexId owner, int32_t index);

  // Fills degree_[v] with v's degree in the global graph (intra-shard +
  // cut) for every alive id, once per pass, so that no sort comparator
  // asks the plan, a shard graph and the cut store.
  void FillDegrees(const PartitionPlan& plan,
                   const std::vector<std::unique_ptr<Shard>>& shards);

  // Sorts `vertices` by ascending (degree_, id), the min-degree greedy's
  // order. Ids are distinct, so the order is total.
  void SortByDegree(std::vector<VertexId>* vertices) const;

  // The 1-swap polish over the repaired solution in in_sol_ (degree_
  // filled); returns the swaps made.
  int64_t Polish(const PartitionPlan& plan,
                 const std::vector<std::unique_ptr<Shard>>& shards);

  // --- Id space -------------------------------------------------------------
  std::vector<uint8_t> alive_;
  std::vector<VertexId> free_vertices_;
  int num_vertices_ = 0;

  // --- Cut store ------------------------------------------------------------
  std::vector<std::vector<Half>> adjacency_;
  int64_t num_edges_ = 0;

  // Mutations routed since the last ApplyCutOps(), in op order.
  std::vector<CutOp> cut_ops_;

  // Reusable scratch (sized to vertex capacity / pass volume).
  std::vector<int32_t> degree_;
  std::vector<uint8_t> in_sol_;
  std::vector<uint8_t> considered_;
  std::vector<VertexId> members_;
  std::vector<VertexId> conflicted_;
  std::vector<VertexId> evicted_;
  std::vector<VertexId> candidates_;
  std::vector<int32_t> count_;
  std::vector<VertexId> bar1_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_
