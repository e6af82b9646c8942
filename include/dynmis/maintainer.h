// DynamicMisMaintainer: the common interface of all dynamic independent-set
// algorithms in the library (the swap maintainers DySwap — registered as
// DyOneSwap and DyTwoSwap — and KSwapMaintainer, and the baselines DyARW /
// DGOneDIS / DGTwoDIS / recompute).
// This is the library's public algorithm contract: implementations are
// constructed through MaintainerRegistry (dynmis/registry.h) or owned by a
// MisEngine (dynmis/engine.h).
//
// A maintainer owns the *mutation* of its DynamicGraph: callers route every
// graph update through the maintainer so the independent set and the graph
// stay consistent. The benchmark driver gives each algorithm its own copy of
// the input graph and replays one shared update sequence through all of them
// (vertex ids stay aligned because DynamicGraph id allocation is
// deterministic).

#ifndef DYNMIS_INCLUDE_DYNMIS_MAINTAINER_H_
#define DYNMIS_INCLUDE_DYNMIS_MAINTAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/graph/update_stream.h"
#include "src/io/snapshot.h"

namespace dynmis {

class DynamicMisMaintainer {
 public:
  virtual ~DynamicMisMaintainer() = default;

  // Builds the maintained state from `initial`, which must be an independent
  // set of the current graph. The maintainer extends it to a maximal
  // (and, for the swap-based algorithms, k-maximal) solution.
  virtual void Initialize(const std::vector<VertexId>& initial) = 0;

  // Update operations. Preconditions mirror DynamicGraph's: inserted edges
  // must not exist, deleted edges/vertices must exist.
  virtual void InsertEdge(VertexId u, VertexId v) = 0;
  virtual void DeleteEdge(VertexId u, VertexId v) = 0;
  virtual VertexId InsertVertex(const std::vector<VertexId>& neighbors) = 0;
  virtual void DeleteVertex(VertexId v) = 0;

  // Current solution.
  virtual bool InSolution(VertexId v) const = 0;
  virtual int64_t SolutionSize() const = 0;
  virtual std::vector<VertexId> Solution() const = 0;

  // Copy-on-demand form of Solution(): appends the members to `out` (not
  // cleared), reusing the caller's buffer across calls instead of building a
  // fresh vector. Callers that only need the count should use SolutionSize(),
  // which is O(1) on every implementation.
  virtual void CollectSolution(std::vector<VertexId>* out) const {
    const std::vector<VertexId> solution = Solution();
    out->insert(out->end(), solution.begin(), solution.end());
  }

  // --- Status transitions ----------------------------------------------------

  // Installs an observer invoked on every solution status transition
  // (`in` = true for a move into the solution, false for a move out),
  // immediately after the membership flip, on whatever thread applies the
  // update. Passing nullptr uninstalls. Returns false when the maintainer
  // cannot report transitions (the baselines, which rebuild solutions
  // wholesale); callers must then fall back to polling Solution(). Its
  // user is perfbench's layer ladder, which counts transitions per update
  // (`core.transitions_per_update`).
  using StatusObserverFn = void (*)(void* ctx, VertexId v, bool in);
  virtual bool SetStatusObserver(StatusObserverFn fn, void* ctx) {
    (void)fn;
    (void)ctx;
    return false;
  }

  // Bytes used by the maintainer's own data structures (graph excluded).
  virtual size_t MemoryUsageBytes() const = 0;

  virtual std::string Name() const = 0;

  // --- Snapshots ------------------------------------------------------------

  // Appends the maintainer's persistent state to an open snapshot (one or
  // more whole sections). Must be called at a quiescent point — between
  // updates, never mid-batch. The graph itself is saved separately by the
  // owner (MisEngine::SaveSnapshot); ids in the persisted state refer to
  // that graph's id space. The default persists only the solution
  // membership (section "maintainer/solution").
  virtual void SaveState(SnapshotWriter* w) const {
    w->BeginSection("maintainer/solution");
    std::vector<VertexId> solution;
    CollectSolution(&solution);
    w->PutI32Array(solution);
    w->EndSection();
  }

  // Restores the state saved by SaveState. `g` is the owning graph, already
  // restored to the snapshot's topology (the same graph this maintainer was
  // constructed over). Returns false (with the reader's error set) on
  // missing sections or malformed contents. The default validates the
  // persisted membership (alive, independent) and re-initializes from it —
  // a recompute-on-load fallback costing one Initialize pass; the swap
  // maintainers (SwapMaintainer: DySwap and KSwapMaintainer) override both
  // hooks to restore membership and tightness counts directly: one
  // O(n + m) validation pass that also rebuilds the owner sums, and no
  // MoveIn/MoveOut.
  virtual bool LoadState(SnapshotReader* r, const DynamicGraph& g) {
    if (!r->OpenSection("maintainer/solution")) return false;
    std::vector<VertexId> solution;
    if (!r->GetI32Array(&solution)) return false;
    if (!r->AtSectionEnd()) {
      r->Fail("snapshot: maintainer/solution: trailing bytes");
      return false;
    }
    std::vector<uint8_t> member(g.VertexCapacity(), 0);
    for (VertexId v : solution) {
      if (!g.IsVertexAlive(v) || member[v]) {
        r->Fail("snapshot: maintainer/solution: invalid vertex id");
        return false;
      }
      member[v] = 1;
    }
    for (VertexId v : solution) {
      bool independent = true;
      g.ForEachIncident(v, [&](VertexId u) {
        if (member[u]) independent = false;
      });
      if (!independent) {
        r->Fail("snapshot: maintainer/solution: set is not independent");
        return false;
      }
    }
    Initialize(solution);
    return true;
  }

  // Applies a block of updates as one transaction and returns the vertex ids
  // assigned to the block's kInsertVertex ops, in op order. The default
  // processes updates one at a time; maintainers that support deferred swap
  // restoration (DySwap, i.e. DyOneSwap and DyTwoSwap) override this to run
  // the graph mutations and maximality fixes for the whole block first and a
  // single swap-restoration pass at the end, which amortizes overlapping
  // cascades.
  // The k-maximality guarantee holds at the *end* of the batch (intermediate
  // states are only maximal).
  virtual std::vector<VertexId> ApplyBatch(
      const std::vector<GraphUpdate>& updates) {
    std::vector<VertexId> new_vertices;
    for (const GraphUpdate& update : updates) {
      const VertexId v = Apply(update);
      if (update.kind == UpdateKind::kInsertVertex) new_vertices.push_back(v);
    }
    return new_vertices;
  }

  // Dispatches a GraphUpdate to the typed operations above.
  VertexId Apply(const GraphUpdate& update) {
    switch (update.kind) {
      case UpdateKind::kInsertEdge:
        InsertEdge(update.u, update.v);
        return kInvalidVertex;
      case UpdateKind::kDeleteEdge:
        DeleteEdge(update.u, update.v);
        return kInvalidVertex;
      case UpdateKind::kInsertVertex:
        return InsertVertex(update.neighbors);
      case UpdateKind::kDeleteVertex:
        DeleteVertex(update.u);
        return kInvalidVertex;
    }
    return kInvalidVertex;
  }
};

}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_MAINTAINER_H_
