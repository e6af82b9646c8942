// SwapMaintainer: the paper's maintenance framework (Algorithm 1, Section
// III-B) written once. It owns the update skeleton every swap maintainer
// shares; an instance supplies only its candidate queues and swap search:
//
//  * DySwap (dy_swap.h) - DyOneSwap (Algorithm 2) at k = 1 and DyTwoSwap
//    (Algorithm 3) at k = 2;
//  * KSwapMaintainer (k_swap.h) - the generic k-swap search.
//
// The skeleton keeps the solution maximal after every update; the instance
// restores k-maximality (no j-swap for any j <= k). Each update handler
// mutates the graph and the MisState in a fixed order - MisState's edge
// hooks bracket the graph mutation: OnEdgeAdded after AddEdge,
// OnEdgeRemoving before RemoveEdgeBetween, OnVertexRemoving before RemoveVertex
// and a slot reset after it, since the id may be recycled - then calls the
// instance's Restore() exactly once. Restore drains MisState's transition
// log, handing each still j-tight vertex (1 <= j <= k) to OnTight, and
// processes the queues. Both instances are final, so that drain loop
// calls OnTight directly; the skeleton itself calls a hook a constant
// number of times per update, never once per transition.

#ifndef DYNMIS_SRC_CORE_SWAP_MAINTAINER_H_
#define DYNMIS_SRC_CORE_SWAP_MAINTAINER_H_

#include <cstdint>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"
#include "src/core/solution.h"

namespace dynmis {

class SwapMaintainer : public DynamicMisMaintainer {
 public:
  // Extends `initial` to a maximal solution, seeds the queues with every
  // j-tight vertex (1 <= j <= k) in ascending id order through OnTight, and
  // restores k-maximality.
  void Initialize(const std::vector<VertexId>& initial) final;

  // Convenience: initialize from the empty set (greedy maximal + swaps).
  void InitializeEmpty() { Initialize({}); }

  void InsertEdge(VertexId u, VertexId v) final;
  void DeleteEdge(VertexId u, VertexId v) final;
  VertexId InsertVertex(const std::vector<VertexId>& neighbors) final;
  void DeleteVertex(VertexId v) final;

  bool InSolution(VertexId v) const final { return state_.InSolution(v); }
  int64_t SolutionSize() const final { return state_.SolutionSize(); }
  std::vector<VertexId> Solution() const final { return state_.Solution(); }
  void CollectSolution(std::vector<VertexId>* out) const final {
    state_.AppendSolution(out);
  }

  bool SetStatusObserver(StatusObserverFn fn, void* ctx) final {
    state_.SetStatusObserver(fn, ctx);
    return true;
  }

  // The shared structures (state, marks, scratch); instances add theirs.
  size_t MemoryUsageBytes() const override;

  // Persists the MisState arrays verbatim (section "mis"); the candidate
  // queues are empty at every quiescent point, so no queue state travels.
  // Load validates and adopts the arrays directly — no recompute (see
  // StateTransitionOps).
  void SaveState(SnapshotWriter* w) const final;
  bool LoadState(SnapshotReader* r, const DynamicGraph& g) final;

  // Lifetime MoveIn/MoveOut count of the underlying state. A snapshot load
  // performs none (the snapshot tests assert 0 after LoadState, proving the
  // restore path never falls back to recomputation).
  int64_t StateTransitionOps() const { return state_.status_ops(); }

  // Test hook: validates all internal invariants (O(n + m)).
  void CheckConsistency() const {
    state_.CheckConsistency(/*expect_maximal=*/true);
  }

 protected:
  // `g` must outlive the maintainer; the maintainer is the sole mutator.
  // The instance's constructor must call EnsureCapacity() to size its
  // slots (GrowSlots cannot be dispatched from here).
  SwapMaintainer(DynamicGraph* g, int k, MaintainerConfig options);

  // --- Hooks ---------------------------------------------------------------

  // Enqueues `u`, which is j-tight for some 1 <= j <= k, as a candidate.
  virtual void OnTight(VertexId u) = 0;
  // Deletion case ii: the edge {u, v} was just removed and neither
  // endpoint is in the solution.
  virtual void OnFreedEdge(VertexId u, VertexId v) = 0;
  // Drains the transition log into the queues and restores k-maximality.
  virtual void Restore() = 0;
  // Grows the instance's per-vertex slots to `vcap` / clears the slots of
  // a (possibly recycled) vertex id.
  virtual void GrowSlots(size_t vcap) = 0;
  virtual void ResetSlots(VertexId v) = 0;
  // Whether every candidate queue is empty (SaveState asserts it).
  virtual bool QueuesEmpty() const = 0;

  // --- Shared machinery ----------------------------------------------------

  // Sizes the state, the marks and (via GrowSlots) the instance's slots to
  // the graph's vertex capacity.
  void EnsureCapacity();

  // Whether `u` is a candidate OnTight takes: alive, not in the solution,
  // with 1 <= count(u) <= k.
  bool IsTight(VertexId u) const {
    if (!g_->IsVertexAlive(u) || state_.InSolution(u)) return false;
    const int c = state_.Count(u);
    return c >= 1 && c <= k_;
  }

  // Moves every count-0 vertex in `*candidates` into the solution (in
  // degree order under perturbation). Borrows the caller's buffer — may
  // reorder it — so steady-state callers can pass reusable scratch instead
  // of a fresh vector.
  void ExtendSolution(std::vector<VertexId>* candidates);

  void NewEpoch() { ++epoch_; }
  void Mark(VertexId v) { mark_[v] = epoch_; }
  bool Marked(VertexId v) const { return mark_[v] == epoch_; }

  DynamicGraph* g_;
  const int k_;
  MaintainerConfig options_;
  MisState state_;

 private:
  void ResetVertexSlots(VertexId v);

  // Epoch-stamped scratch marks.
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  // Freed vertices / deleted-vertex neighbourhoods of the update handlers.
  std::vector<VertexId> extend_scratch_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_SWAP_MAINTAINER_H_
