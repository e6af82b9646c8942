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
// reorders), which is safe because the resolution passes sort every
// order-sensitive working set before use — their output is a pure,
// order-insensitive function of the edge set and the shard states.
//
// Two operating modes:
//
//  * Sequential (the PR 4 design, kept as the fallback for maintainers
//    that cannot report status transitions): cut-edge mutations apply
//    inline on the engine thread, and Resolve() recomputes the overlay
//    and its conflicts from scratch at every barrier.
//
//  * Asynchronous (StartWorker()): a dedicated worker thread owns the cut
//    adjacency and a standing overlay of the shards' local solutions. The
//    engine thread ships cut-edge ops in blocks; every shard worker ships
//    its maintainer's MoveIn/MoveOut status transitions as blocks are
//    applied (libgrape-lite's fragment-local inner/outer-vertex idiom:
//    asynchronous message-driven repair instead of global supersteps).
//    The worker folds both streams into the overlay and continuously
//    maintains the standing conflict set — the cut edges whose endpoints
//    are both locally in-solution — so a barrier only has to finalize a
//    mostly-clean frontier. Per-vertex exactness after a drain follows
//    from each vertex having a single transition producer (its owner
//    shard, in that shard's deterministic order) and cut ops having a
//    single producer (the engine thread); cross-producer interleaving
//    only perturbs transient states that every message re-checks.
//
// Threading contract (async mode): between a Ship*/Flush and the return of
// DrainWorker() the worker owns the cut adjacency, overlay, and conflict
// set exclusively; after DrainWorker() returns (and until the next ship)
// the engine thread may read and mutate them directly — the inbox mutex
// carries the happens-before edge, exactly like Shard's queue contract.
//
// ResolveIncremental() is the async barrier pass: with every shard worker
// idle and the worker drained, it repairs the standing conflict set into a
// verified maximal independent set of the global graph — min-degree greedy
// confirm over the conflicted vertices, re-extension of the evicted
// neighborhoods, and a bounded 1-swap polish (paper Algorithm 2's move)
// restricted to the members the repair could have affected (cut-incident
// members plus the distance-2 neighborhoods of the repair's evictions and
// re-additions; shard solutions are locally swap-optimal, so profitable
// swaps cannot hide elsewhere). Every working set is sorted before use, so
// the result is a pure function of the overlay and the edge sets — thread
// scheduling, flush and block boundaries provably don't matter, exactly as
// for the sequential Resolve(). The min-degree orders (the conflicted set,
// the re-extension candidates, each polished member's bar1) sort by
// (total degree, id), with every total degree read once per pass into a
// flat array, since the graphs stay fixed while a pass runs.

#ifndef DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_
#define DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/io/snapshot.h"
#include "src/shard/partition_plan.h"
#include "src/shard/shard.h"

namespace dynmis {

class CutEdgeResolver {
 public:
  // Maintainer status transitions, shipped by shard workers (declared in
  // shard.h, next to their producer).
  using Transition = StatusTransition;
  using TransitionBatch = StatusTransitionBatch;

  // Starts with vertices 0..initial_vertices-1 alive and no cut edges.
  explicit CutEdgeResolver(int initial_vertices);
  ~CutEdgeResolver();

  CutEdgeResolver(const CutEdgeResolver&) = delete;
  CutEdgeResolver& operator=(const CutEdgeResolver&) = delete;

  // --- Global id space (engine thread, applied in global op order) ---------

  VertexId AddVertex();
  // Frees the id for recycling and drops its cut edges (inline in
  // sequential mode; via a shipped op in async mode).
  void RemoveVertex(VertexId v);
  bool IsVertexAlive(VertexId v) const {
    return v >= 0 && v < VertexCapacity() && alive_[v];
  }

  // Cut-edge mutations: inline in sequential mode, buffered into a pending
  // block and shipped to the worker in async mode (flushed when the block
  // reaches `block_ops`, set via SetBlockOps, or at FlushCutOps).
  void AddCutEdge(VertexId u, VertexId v);
  void RemoveCutEdge(VertexId u, VertexId v);

  // --- Cut-graph reads (engine thread; in async mode only between a
  // DrainWorker() return and the next ship) -----------------------------

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

  // --- Asynchronous worker --------------------------------------------------

  // Spawns the worker thread and switches cut-edge mutations to shipped
  // blocks. Call before any shard worker starts (shards ship transitions
  // into the inbox). Requires a quiescent resolver.
  void StartWorker();

  // Drains the inbox and joins the worker. Call after every shard worker
  // stopped. Idempotent.
  void StopWorker();

  bool worker_running() const { return worker_started_; }

  // Worker-block granularity for engine-thread cut ops (mirrors
  // ShardedEngineOptions::block_ops).
  void SetBlockOps(int block_ops) { block_ops_ = block_ops; }

  // Enqueues a batch of status transitions. Shard worker threads (and the
  // engine thread); any thread, any time the worker runs.
  void ShipTransitions(TransitionBatch&& batch);

  // Ships the engine thread's pending cut-op block, if any.
  void FlushCutOps();

  // FlushCutOps, then blocks until the inbox is drained and the worker
  // idles. After this returns the engine thread owns the cut structures
  // until the next ship. No-op in sequential mode.
  void DrainWorker();

  // Rebuilds the standing overlay and conflict set from the shards' current
  // solutions (engine thread, worker quiescent). Used after a snapshot
  // restore, where maintainers adopt their solutions without emitting
  // transitions.
  void SeedOverlay(const std::vector<std::unique_ptr<Shard>>& shards);

  // Instrumentation (atomic reads; safe from any thread, any time).
  int64_t BacklogOps() const {
    return backlog_ops_.load(std::memory_order_relaxed);
  }
  int64_t StandingConflicts() const {
    return standing_conflicts_.load(std::memory_order_relaxed);
  }
  int64_t TransitionsConsumed() const {
    return transitions_consumed_.load(std::memory_order_relaxed);
  }

  // --- Barrier resolution ---------------------------------------------------

  struct Resolution {
    // The verified global solution, sorted by id.
    std::vector<VertexId> solution;
    int64_t conflicts = 0;   // Conflicting cut edges found this pass.
    int64_t evictions = 0;   // Vertices evicted from the overlay.
    int64_t readded = 0;     // Vertices re-added by the extension pass.
    int64_t swaps = 0;       // 1-swaps performed by the polish pass.
  };

  // Sequential barrier pass: recomputes the overlay from the shard
  // maintainers and repairs it from scratch. Every worker in `shards` must
  // be idle (the engine thread calls this only after a full barrier).
  Resolution Resolve(const PartitionPlan& plan,
                     const std::vector<std::unique_ptr<Shard>>& shards);

  // Asynchronous barrier pass: finalizes the standing overlay/conflict set
  // maintained by the worker. Requires every shard idle AND DrainWorker()
  // returned with no ships in between.
  Resolution ResolveIncremental(
      const PartitionPlan& plan,
      const std::vector<std::unique_ptr<Shard>>& shards);

  // --- Snapshots ------------------------------------------------------------

  // Persists the id space and cut edges as section "state" (the caller
  // scopes it with a section prefix). The free list travels verbatim so a
  // restored engine recycles ids in the identical order. Async mode:
  // engine thread, worker drained.
  void SaveTo(SnapshotWriter* w) const;
  // Restores from "state" after full validation (bounds, aliveness,
  // duplicate edges, free-list exactness). On success the adjacency and
  // index are rebuilt from scratch. Returns false with the reader failed
  // on any violation. Call before StartWorker().
  bool LoadFrom(SnapshotReader* r);

  size_t MemoryUsageBytes() const;

 private:
  // One direction of a cut edge: the far endpoint plus the position of the
  // reverse entry inside the far endpoint's adjacency array.
  struct Half {
    VertexId to;
    int32_t mirror;
  };

  // One cut-graph mutation shipped from the engine thread.
  struct CutOp {
    enum class Kind : uint8_t { kAddEdge, kRemoveEdge, kDropVertex };
    Kind kind;
    VertexId u;
    VertexId v;
  };
  using CutOpBatch = std::vector<CutOp>;

  // One inbox message: exactly one of the two batches is non-empty.
  struct Message {
    TransitionBatch transitions;
    CutOpBatch cut_ops;
  };

  void WorkerLoop();
  void Consume(Message& message);
  void EnqueueMessage(Message&& message, size_t ops);

  // Grows the worker-owned per-vertex arrays (adjacency, overlay, conflict
  // flags) to cover id `v`.
  void EnsureCutCapacity(VertexId v);

  // Re-derives `v`'s standing-conflict membership from the current overlay
  // and adjacency.
  void RecheckConflict(VertexId v);

  // Queues `v` for one RecheckConflict at the end of the message the
  // worker is consuming (dedup via dirty_flag_).
  void MarkDirty(VertexId v) {
    if (v >= static_cast<VertexId>(dirty_flag_.size())) {
      dirty_flag_.resize(static_cast<size_t>(v) + 1, 0);
    }
    if (!dirty_flag_[v]) {
      dirty_flag_[v] = 1;
      dirty_.push_back(v);
    }
  }

  // Worker-side op application: structural change + dirty marking.
  void ApplyAddCutEdge(VertexId u, VertexId v);
  void ApplyRemoveCutEdge(VertexId u, VertexId v);
  void ApplyDropVertex(VertexId v);

  // Structural mutations shared by the inline (sequential) and worker
  // paths. No conflict bookkeeping.
  void InsertEdgeHalves(VertexId u, VertexId v);
  void RemoveEdgeHalves(VertexId u, VertexId v);
  void DropVertexEdges(VertexId v);

  // Swap-removes adjacency_[owner][index], repairing the mirror of the
  // entry moved into the hole.
  void SwapRemoveHalf(VertexId owner, int32_t index);

  // Fills degree_[v] with v's degree in the global graph (intra-shard +
  // cut) for every alive id. Both barrier passes call it once, at their
  // start, so that no sort comparator asks the plan, a shard graph and the
  // cut store.
  void FillDegrees(const PartitionPlan& plan,
                   const std::vector<std::unique_ptr<Shard>>& shards);

  // Sorts `vertices` by ascending (degree_, id), the min-degree greedy's
  // order. Ids are distinct, so the order is total.
  void SortByDegree(std::vector<VertexId>* vertices) const;

  // Shared repair tail of both barrier passes. Expects degree_ filled and
  // in_sol_ to hold the overlay with `conflicted_` unmarked and sorted by
  // (degree, id): greedy confirm, re-extension of the evicted
  // neighborhoods, 1-swap polish, solution collection. With
  // `restrict_polish` the polish only visits members the repair could have
  // affected (cut-incident members plus distance-<=2 neighborhoods of
  // evictions/re-additions); without it, every member.
  void RepairAndPolish(const PartitionPlan& plan,
                       const std::vector<std::unique_ptr<Shard>>& shards,
                       bool restrict_polish, Resolution* result);

  // --- Id space (engine thread) ---------------------------------------------
  std::vector<uint8_t> alive_;
  std::vector<VertexId> free_vertices_;
  int num_vertices_ = 0;

  // --- Cut structures (worker thread in async mode between ships; engine
  // thread otherwise) --------------------------------------------------------
  std::vector<std::vector<Half>> adjacency_;
  int64_t num_edges_ = 0;

  // Standing overlay (union of the shards' local solutions) and conflict
  // set, maintained by the worker. conflict_pos_[v] is v's index in
  // conflict_list_ (-1 when absent) for O(1) set maintenance.
  std::vector<uint8_t> base_;
  std::vector<int32_t> conflict_pos_;
  std::vector<VertexId> conflict_list_;
  // Per-message recheck queue (see MarkDirty); flags are cleared as the
  // queue drains, so both are empty between messages.
  std::vector<VertexId> dirty_;
  std::vector<uint8_t> dirty_flag_;

  // --- Worker plumbing ------------------------------------------------------
  std::thread worker_;
  std::mutex inbox_mutex_;
  std::condition_variable inbox_cv_;   // Worker: inbox non-empty / stop.
  std::condition_variable drained_cv_; // Waiters: inbox empty and idle.
  std::deque<Message> inbox_;
  bool worker_busy_ = false;
  bool worker_started_ = false;
  bool worker_stop_ = false;

  // Engine-thread pending cut-op block (async mode).
  CutOpBatch pending_cut_ops_;
  int block_ops_ = 1024;

  std::atomic<int64_t> backlog_ops_{0};
  std::atomic<int64_t> standing_conflicts_{0};
  std::atomic<int64_t> transitions_consumed_{0};

  // Reusable scratch (sized to vertex capacity / pass volume).
  std::vector<int32_t> degree_;
  std::vector<uint8_t> in_sol_;
  std::vector<uint8_t> considered_;
  std::vector<VertexId> members_;
  std::vector<VertexId> conflicted_;
  std::vector<VertexId> evicted_;
  std::vector<VertexId> readded_;
  std::vector<VertexId> candidates_;
  std::vector<VertexId> polish_members_;
  std::vector<int32_t> count_;
  std::vector<uint8_t> active_;
  std::vector<uint8_t> seeded_;
  std::vector<uint8_t> expanded_;
  std::vector<VertexId> bar1_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_SHARD_CUT_EDGE_RESOLVER_H_
