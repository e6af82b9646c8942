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
// Everything runs on the caller's thread. Apply/ApplyBatch classify each
// op in O(1). An edge op, intra-shard or cut, is appended to one edge-op
// log in op order. A vertex insert or delete first applies the log and
// then applies itself at once: to the global id space, the cut store and
// its shard's maintainer. The log holds at most 1 << 16 ops; routing
// applies it when it fills, so a caller that never queries stays bounded.
// Queries (Solution, Stats, SaveSnapshot, ...) impose a barrier: apply the
// log, then resolve from the shards' solutions. Each shard and the cut
// store receive their ops in op order whenever the log is applied, so the
// final solution is a pure function of the update sequence: neither log
// nor barrier boundaries affect it, and seeded runs replay identically
// (see tests/sharded_engine_test.cc), because the barrier pass also sorts
// every working set into a canonical order.
//
// With S = 1 every edge is intra-shard and the one shard applies exactly
// the op sequence a MisEngine would: the degenerate case reproduces the
// single-engine solution verbatim.
//
// The engine is not thread-safe: one caller thread drives it.

#ifndef DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_
#define DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/engine.h"
#include "dynmis/snapshot.h"
#include "src/graph/edge_list.h"
#include "src/shard/cut_edge_resolver.h"
#include "src/shard/partition_plan.h"

namespace dynmis {

struct ShardedEngineOptions {
  int num_shards = 1;
  PartitionStrategy partition = PartitionStrategy::kHash;
  // Ignored: the resolver has one mode, a pass over the shards' solutions
  // at each barrier. The field stays because existing callers assign it;
  // snapshots do not record it.
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

  // --- Updates (edge ops logged until the next barrier) ---------------------

  // Like MisEngine's, these read no clock: a caller that wants latencies
  // times its own calls.
  UpdateResult Apply(const GraphUpdate& update);
  UpdateResult ApplyBatch(const std::vector<GraphUpdate>& updates);

  UpdateResult InsertEdge(VertexId u, VertexId v);
  UpdateResult DeleteEdge(VertexId u, VertexId v);
  // Returns the globally assigned id of the inserted vertex (allocated
  // synchronously; ids match what a single engine would assign).
  VertexId InsertVertex(const std::vector<VertexId>& neighbors);
  UpdateResult DeleteVertex(VertexId v);

  // Applies the edge-op log in op order and empties it (a barrier without
  // a resolution pass).
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
  // memory). The lifetime updates_applied is engine-global and reported by
  // Stats() only, so it stays zero here. Serving-layer parity: STATS
  // reports the same fields for the sharded backend as for a single
  // engine, plus this breakdown.
  std::vector<EngineStats> PerShardStats();

  // --- Snapshots ------------------------------------------------------------

  // Barrier, then writes one versioned container. Its "sharded" section
  // holds the algorithm key and display name, k, perturb, recompute_every,
  // the shard count, partition strategy and block size, the lifetime
  // counters (updates, a retired 8-byte slot, resolve seconds, barriers,
  // conflicts, evictions, re-adds, swaps) and the locality owner table
  // (empty for hash and range). The retired slot held update seconds in
  // earlier builds; it is written as 0.0 and ignored on load, so files
  // load across builds without a format bump. Then come "cut/state" (the
  // cut edges and the global id space) and, per shard, "shard<i>/graph"
  // and the maintainer's state under the same prefix. Restoring is
  // O(state) per shard.
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
  // LoadSnapshot minus the read, from a container `reader` already read
  // (see MisEngine::LoadFrom).
  static std::unique_ptr<ShardedMisEngine> LoadFrom(
      SnapshotReader* reader, SnapshotStatus* status = nullptr);

  const MaintainerConfig& config() const { return config_; }
  const ShardedEngineOptions& options() const { return options_; }
  const PartitionPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }

  // Read-mostly interop for verification and tests. Shard graphs hold the
  // shard's vertices at their global ids plus intra-shard edges only; the
  // resolver holds every vertex plus the cut edges. Only meaningful at a
  // barrier (call Flush() or a query first).
  const DynamicGraph& shard_graph(int shard) const {
    return shards_[shard].graph;
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
  // One routed edge op, held in the log until the log is applied.
  struct EdgeOp {
    VertexId u;
    VertexId v;
    int16_t shard;  // The owning shard, or kCutShard for a cut edge.
    bool insert;
  };
  static constexpr int16_t kCutShard = -1;

  ShardedMisEngine(MaintainerConfig config, ShardedEngineOptions options,
                   PartitionPlan plan, int initial_vertices);

  // The builder behind Create and CreateFromGraph: ids 0..capacity-1, of
  // which `free_ids` (in recycle order) are dead, plus `edges`. Each edge
  // goes straight into its shard graph or the cut store; no global graph
  // is built.
  static std::unique_ptr<ShardedMisEngine> Build(
      int capacity, const std::vector<VertexId>& free_ids,
      const std::vector<std::pair<VertexId, VertexId>>& edges,
      MaintainerConfig config, ShardedEngineOptions options);
  // Creates each shard's maintainer over its populated graph. Returns false
  // when the registry does not know `config_.algorithm`.
  bool BuildMaintainers();

  // Routes one update; returns the assigned id for kInsertVertex ops.
  VertexId Route(const GraphUpdate& update);
  // Flush + resolution pass (cached until the next routed update).
  void EnsureResolved();
  bool LoadShards(SnapshotReader* reader);
  // Cross-structure consistency of freshly loaded shard/cut graphs.
  bool ValidateLoaded(SnapshotReader* reader) const;

  MaintainerConfig config_;
  ShardedEngineOptions options_;
  PartitionPlan plan_;
  CutEdgeResolver resolver_;
  // Sized once at construction: each maintainer points at its shard's graph.
  std::vector<Shard> shards_;
  // Edge ops routed since the log was last applied, in op order. Cleared
  // with its capacity kept, so steady-state rounds do not allocate for it.
  std::vector<EdgeOp> log_;

  bool resolved_ = false;
  CutEdgeResolver::Resolution resolution_;

  int64_t updates_applied_ = 0;
  double resolve_seconds_ = 0;
  int64_t barriers_ = 0;
  int64_t total_conflicts_ = 0;
  int64_t total_evictions_ = 0;
  int64_t total_readded_ = 0;
  int64_t total_swaps_ = 0;
};

}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_SHARDED_ENGINE_H_
