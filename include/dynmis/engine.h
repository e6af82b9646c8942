// MisEngine: the owning facade over (dynamic graph + maintainer). Where the
// raw DynamicMisMaintainer interface borrows a caller-managed DynamicGraph,
// the engine owns both halves: it is constructed from an EdgeListGraph (or
// an already-built DynamicGraph), builds its maintainer through the global
// MaintainerRegistry, and keeps the pair consistent for its whole lifetime.
// This is the intended entry point for applications; examples and the CLI
// are written against it.
//
// Every mutation returns a structured UpdateResult carrying the applied-op
// count and the vertex ids assigned to kInsertVertex ops (which the old
// ApplyBatch path silently dropped). The engine reads no clock on the
// update path: a caller that wants latencies times its own calls, as the
// bench driver does per op and the server does per batch.

#ifndef DYNMIS_INCLUDE_DYNMIS_ENGINE_H_
#define DYNMIS_INCLUDE_DYNMIS_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"
#include "dynmis/registry.h"
#include "dynmis/snapshot.h"
#include "src/graph/edge_list.h"

namespace dynmis {

// Outcome of one Apply / ApplyBatch call.
struct UpdateResult {
  // Number of graph updates applied.
  int64_t applied = 0;
  // Ids assigned to the call's kInsertVertex ops, in op order.
  std::vector<VertexId> new_vertices;
};

// Decoded "engine" section of a snapshot: the algorithm key and knobs the
// engine was saved with, plus its lifetime update count. One decoder
// (MisEngine::ReadEngineMeta) serves both LoadSnapshot and the CLI's
// `snapshot info`, so the field order lives in exactly two places —
// SaveSnapshot and ReadEngineMeta. The section ends in a retired 8-byte
// slot (update seconds in earlier builds), written as 0.0 and ignored.
struct SnapshotEngineMeta {
  MaintainerConfig config;
  // Maintainer display name (DynamicMisMaintainer::Name) at save time.
  std::string display_name;
  int64_t updates_applied = 0;
};

// Point-in-time snapshot of the engine (see MisEngine::Stats).
struct EngineStats {
  // Display name of the maintainer (DynamicMisMaintainer::Name).
  std::string algorithm;
  int64_t solution_size = 0;
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  // Bytes held by the maintainer's own structures (graph excluded).
  size_t structure_memory_bytes = 0;
  // Bytes held by the owned graph.
  size_t graph_memory_bytes = 0;
  // Ops applied by all Apply/ApplyBatch/typed-op calls so far.
  int64_t updates_applied = 0;
};

class MisEngine {
 public:
  // Builds an engine over a copy of `base` with the maintainer named by
  // `config.algorithm`. Returns nullptr when the name is not registered.
  // The solution starts empty; call Initialize() before applying updates.
  static std::unique_ptr<MisEngine> Create(const EdgeListGraph& base,
                                           MaintainerConfig config = {});

  // Same, adopting an already-built graph.
  static std::unique_ptr<MisEngine> Create(DynamicGraph graph,
                                           MaintainerConfig config = {});

  // Builds the maintained solution from `initial` (must be an independent
  // set of the current graph; the default extends the empty set to a
  // maximal — for swap algorithms, k-maximal — solution).
  void Initialize(const std::vector<VertexId>& initial = {});

  // --- Updates --------------------------------------------------------------

  UpdateResult Apply(const GraphUpdate& update);

  // Applies the block as one transaction through the maintainer's batch
  // path (deferred swap restoration where supported).
  UpdateResult ApplyBatch(const std::vector<GraphUpdate>& updates);

  // Typed conveniences over Apply().
  UpdateResult InsertEdge(VertexId u, VertexId v);
  UpdateResult DeleteEdge(VertexId u, VertexId v);
  // Returns the id of the inserted vertex.
  VertexId InsertVertex(const std::vector<VertexId>& neighbors);
  UpdateResult DeleteVertex(VertexId v);

  // --- Queries --------------------------------------------------------------

  bool InSolution(VertexId v) const { return maintainer_->InSolution(v); }
  int64_t SolutionSize() const { return maintainer_->SolutionSize(); }
  std::vector<VertexId> Solution() const { return maintainer_->Solution(); }
  // Appends the solution to `out` (not cleared) without building a fresh
  // vector; pair with a reused buffer when polling the solution frequently.
  void CollectSolution(std::vector<VertexId>* out) const {
    maintainer_->CollectSolution(out);
  }

  EngineStats Stats() const;

  // --- Snapshots ------------------------------------------------------------

  // Writes a versioned binary snapshot of the whole engine (graph topology,
  // maintainer state, configuration, lifetime counters) to `out`. Must be
  // called between updates. Restoring the snapshot is O(state) — it replays
  // nothing — which is what makes restart on a massive graph practical.
  // Format and compatibility policy: README "Snapshots".
  SnapshotStatus SaveSnapshot(std::ostream& out) const;

  // Appends the engine's sections to an open writer without serializing the
  // container, so composite producers (the serving layer's snapshot path)
  // can put engine state and their own sections — the external-key map —
  // into one container. SaveSnapshot is SaveTo + WriteTo.
  void SaveTo(SnapshotWriter* writer) const;

  // Rebuilds an engine from a snapshot stream: the maintainer is resolved
  // through MaintainerRegistry::Global() by the algorithm key stored in the
  // snapshot, the graph is restored verbatim (ids preserved), and the
  // maintainer's LoadState hook restores its swap structures. Returns
  // nullptr on any structural problem — bad magic, version mismatch,
  // truncation, CRC failure, unknown algorithm, invalid state — with the
  // reason in `*status` (when non-null). Never aborts or corrupts memory on
  // malformed input.
  static std::unique_ptr<MisEngine> LoadSnapshot(
      std::istream& in, SnapshotStatus* status = nullptr);

  // LoadSnapshot minus the read: rebuilds an engine from a container that
  // `reader` has already read, so a caller that also inspects the container
  // (the serving layer's restore, which loads its key map from it) reads
  // the bytes once.
  static std::unique_ptr<MisEngine> LoadFrom(SnapshotReader* reader,
                                             SnapshotStatus* status = nullptr);

  // Decodes the "engine" section of an already-parsed snapshot (the
  // reader's cursor is repositioned). Returns false, failing the reader,
  // on malformed contents. LoadSnapshot and `dynmis_cli snapshot info`
  // both go through this.
  static bool ReadEngineMeta(SnapshotReader* r, SnapshotEngineMeta* meta);

  // The configuration the engine was created with (algorithm key as given,
  // before alias resolution). This is the key SaveSnapshot persists.
  const MaintainerConfig& config() const { return config_; }

  // The owned graph / maintainer, for read-mostly interop (snapshots,
  // verification). Mutating the graph directly desynchronizes the solution;
  // route updates through the engine.
  const DynamicGraph& graph() const { return *graph_; }
  DynamicMisMaintainer& maintainer() { return *maintainer_; }
  const DynamicMisMaintainer& maintainer() const { return *maintainer_; }

 private:
  MisEngine(std::unique_ptr<DynamicGraph> graph,
            std::unique_ptr<DynamicMisMaintainer> maintainer,
            MaintainerConfig config)
      : graph_(std::move(graph)),
        maintainer_(std::move(maintainer)),
        config_(std::move(config)) {}

  // Heap-held so its address stays stable for the maintainer's pointer.
  std::unique_ptr<DynamicGraph> graph_;
  std::unique_ptr<DynamicMisMaintainer> maintainer_;
  MaintainerConfig config_;
  int64_t updates_applied_ = 0;
};

}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_ENGINE_H_
