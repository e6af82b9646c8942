// ShardedMisEngine: the vertex-partitioned counterpart of MisEngine.
// Vertices are split across S shards by a PartitionPlan (hash,
// contiguous-range, or streaming-greedy locality); each shard owns a
// DynamicGraph of its intra-shard edges plus a registry maintainer.
// Cross-shard edges never enter a shard graph: the CutEdgeResolver tracks
// them and repairs the conflicts they cause — evicting one endpoint of
// each conflicting cut edge (deterministic lower-degree-wins rule),
// re-extending around the evictions, and polishing with bounded 1-swaps —
// so CollectSolution() always returns a verified independent set — in
// fact a maximal one — of the global graph.
//
// Everything runs on the caller's thread. Apply/ApplyBatch only route:
// they classify each op in O(1), buffer cut-edge ops for the resolver in
// op order, and append intra-shard ops to per-shard pending blocks.
// Queries (Solution, Stats, SaveSnapshot, ...) impose a barrier — apply
// each shard's pending block, then the buffered cut ops, then resolve from
// the shards' solutions. A shard whose pending block reaches a fixed cap
// (1 << 16 ops) applies it during routing, so a caller that never queries
// stays bounded. The final solution is a pure function of the update
// sequence: neither block nor barrier boundaries affect it, so seeded runs
// replay identically (see tests/sharded_engine_test.cc), because each
// shard applies its ops in order and the barrier pass sorts every working
// set into a canonical order.
//
// With S = 1 every edge is intra-shard and the one shard applies exactly
// the op sequence a MisEngine would: the degenerate case reproduces the
// single-engine solution verbatim.
//
// The engine is not thread-safe: one caller thread drives it.

#ifndef DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_
#define DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/engine.h"
#include "dynmis/snapshot.h"
#include "src/graph/edge_list.h"
#include "src/shard/cut_edge_resolver.h"
#include "src/shard/partition_plan.h"
#include "src/shard/shard.h"

namespace dynmis {

struct ShardedEngineOptions {
  int num_shards = 1;
  PartitionStrategy partition = PartitionStrategy::kHash;
  // Ignored: the resolver has one mode, a pass over the shards' solutions
  // at each barrier. The field stays because existing callers assign it,
  // and snapshots still carry its byte.
  bool async_resolver = true;
};

// Sharding-specific counters, alongside the common EngineStats.
struct ShardedStats {
  int num_shards = 0;
  std::string partition;        // "hash", "range", or "locality".
  int64_t intra_edges = 0;      // Sum over shard graphs.
  int64_t cut_edges = 0;
  double cut_edge_fraction = 0; // cut / (cut + intra).
  int64_t barriers = 0;         // Resolution passes run so far.
  // Cumulative over all resolution passes.
  int64_t conflicts = 0;
  int64_t evictions = 0;
  int64_t readded = 0;
  int64_t swaps = 0;            // Polish-pass 1-swaps.
  double resolve_seconds = 0;   // Wall time inside barrier resolutions.
  // Local (pre-resolution) solution size per shard at the last barrier.
  std::vector<int64_t> shard_solution_sizes;
};

class ShardedMisEngine {
 public:
  // Builds a sharded engine over `base` with the maintainer named by
  // `config.algorithm` in every shard. Returns nullptr when the name is
  // not registered or the shard count is out of range. Call Initialize()
  // before applying updates.
  static std::unique_ptr<ShardedMisEngine> Create(
      const EdgeListGraph& base, MaintainerConfig config = {},
      ShardedEngineOptions options = {});

  // Builds a sharded engine over a live DynamicGraph — dead-id gaps, free-
  // list recycle order and all — so the new engine's global id allocation
  // continues exactly where `global`'s would (future vertex inserts assign
  // identical ids). This is the online-resharding primitive: restore a
  // checkpoint, BuildGlobalGraph(), re-partition into a different shard
  // count, replay the tail. Call Initialize() before applying updates.
  static std::unique_ptr<ShardedMisEngine> CreateFromGraph(
      const DynamicGraph& global, MaintainerConfig config = {},
      ShardedEngineOptions options = {});

  ~ShardedMisEngine();

  // Initializes every shard's maintainer from the empty set, one shard
  // after another, and runs the first resolution.
  void Initialize();

  // --- Updates (routed; shard work runs at the next barrier) ----------------

  // `seconds` in the returned UpdateResult measures routing, which includes
  // shard work only when a pending block reaches the cap.
  UpdateResult Apply(const GraphUpdate& update);
  UpdateResult ApplyBatch(const std::vector<GraphUpdate>& updates);

  UpdateResult InsertEdge(VertexId u, VertexId v);
  UpdateResult DeleteEdge(VertexId u, VertexId v);
  // Returns the globally assigned id of the inserted vertex (allocated
  // synchronously; ids match what a single engine would assign).
  VertexId InsertVertex(const std::vector<VertexId>& neighbors);
  UpdateResult DeleteVertex(VertexId v);

  // Applies every shard's pending block and the buffered cut-edge ops (a
  // barrier without a resolution pass).
  void Flush();

  // --- Queries (impose a barrier + resolution when updates are pending) ----

  bool InSolution(VertexId v);
  int64_t SolutionSize();
  std::vector<VertexId> Solution();
  // Appends the resolved solution (sorted by id) to `out` (not cleared).
  void CollectSolution(std::vector<VertexId>* out);

  EngineStats Stats();
  ShardedStats ShardStats();

  // Per-shard EngineStats breakdown (one entry per shard, local view: the
  // shard's intra-shard graph, its maintainer's pre-resolution solution and
  // memory). Lifetime counters (updates_applied / update_seconds) are
  // engine-global and reported by Stats() only, so they stay zero here.
  // Serving-layer parity: STATS reports the same fields for the sharded
  // backend as for a single engine, plus this breakdown.
  std::vector<EngineStats> PerShardStats();

  // Called once per Apply/ApplyBatch with the op count and the routing wall
  // time (batch-latency semantics: shard work is not timed per op, since
  // it runs at the barrier).
  using UpdateObserver = std::function<void(int64_t applied, double seconds)>;
  void SetUpdateObserver(UpdateObserver observer) {
    observer_ = std::move(observer);
  }

  // --- Snapshots ------------------------------------------------------------

  // Barrier, then writes one versioned container holding the engine
  // section, the cut structure, and each shard section-wise ("shard<i>/"
  // prefixed graph + maintainer state). Restoring is O(state) per shard.
  SnapshotStatus SaveSnapshot(std::ostream& out);

  // Appends the engine's sections to an open writer (barrier included);
  // SaveSnapshot is SaveTo + WriteTo. Lets the serving layer add its own
  // sections (the external-key map) to the same container.
  void SaveTo(SnapshotWriter* writer);

  // Rebuilds a sharded engine from a snapshot stream. Returns nullptr on
  // any structural problem (reason in `*status`), including cross-section
  // inconsistencies a crafted payload could smuggle in (a vertex alive in
  // the cut structure but missing from its shard, a shard edge that the
  // plan says is cut, ...). Never aborts on malformed input.
  static std::unique_ptr<ShardedMisEngine> LoadSnapshot(
      std::istream& in, SnapshotStatus* status = nullptr);

  const MaintainerConfig& config() const { return config_; }
  const ShardedEngineOptions& options() const { return options_; }
  const PartitionPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }

  // Read-mostly interop for verification and tests. Shard graphs hold the
  // shard's vertices at their global ids plus intra-shard edges only; the
  // resolver holds every vertex plus the cut edges. Only meaningful at a
  // barrier (call Flush() or a query first).
  const DynamicGraph& shard_graph(int shard) const {
    return shards_[shard]->graph();
  }
  const CutEdgeResolver& resolver() const { return resolver_; }

  // Materializes the global graph (every alive vertex, intra-shard plus cut
  // edges) as one standalone DynamicGraph whose id-space state — capacity
  // and vertex free-list recycle order — matches this engine's, so future
  // AddVertex() calls on the copy assign the ids this engine will. Imposes
  // a barrier. The serving layer's admission replica is seeded from this
  // after a warm restore.
  DynamicGraph BuildGlobalGraph();

 private:
  ShardedMisEngine(MaintainerConfig config, ShardedEngineOptions options,
                   PartitionPlan plan, int initial_vertices);

  // Classifies and routes one update; returns the assigned id for
  // kInsertVertex ops. Invalidates the cached resolution.
  VertexId Route(const GraphUpdate& update);
  // Applies the shard's pending block once it reaches the cap.
  void ApplyIfFull(int shard);
  void Barrier();
  // Barrier + resolution pass (cached until the next routed update).
  void EnsureResolved();
  bool LoadShards(SnapshotReader* reader);
  // Cross-structure consistency of freshly loaded shard/cut graphs.
  bool ValidateLoaded(SnapshotReader* reader) const;

  MaintainerConfig config_;
  ShardedEngineOptions options_;
  PartitionPlan plan_;
  CutEdgeResolver resolver_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard::Block> pending_;

  bool resolved_ = false;
  CutEdgeResolver::Resolution resolution_;

  UpdateObserver observer_;
  int64_t updates_applied_ = 0;
  double update_seconds_ = 0;
  double resolve_seconds_ = 0;
  int64_t barriers_ = 0;
  int64_t total_conflicts_ = 0;
  int64_t total_evictions_ = 0;
  int64_t total_readded_ = 0;
  int64_t total_swaps_ = 0;
};

}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_
