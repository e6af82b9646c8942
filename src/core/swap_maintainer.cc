#include "src/core/swap_maintainer.h"

#include <algorithm>

#include "src/util/memory.h"

namespace dynmis {

SwapMaintainer::SwapMaintainer(DynamicGraph* g, int k,
                               MaintainerConfig options)
    : g_(g), k_(k), options_(options), state_(g, k) {}

void SwapMaintainer::EnsureCapacity() {
  state_.EnsureCapacity();
  const size_t vcap = g_->VertexCapacity();
  if (mark_.size() < vcap) {
    mark_.resize(vcap, 0);
    GrowSlots(vcap);
  }
}

void SwapMaintainer::ResetVertexSlots(VertexId v) {
  EnsureCapacity();
  state_.OnVertexAdded(v);
  mark_[v] = 0;
  ResetSlots(v);
}

void SwapMaintainer::Initialize(const std::vector<VertexId>& initial) {
  for (VertexId v : initial) {
    DYNMIS_CHECK(g_->IsVertexAlive(v));
    state_.MoveIn(v);  // Aborts if `initial` is not independent.
  }
  // Extend to a maximal solution.
  std::vector<VertexId> free;
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (g_->IsVertexAlive(v) && !state_.InSolution(v) && state_.Count(v) == 0) {
      free.push_back(v);
    }
  }
  ExtendSolution(&free);
  // Establish k-maximality: every j-tight vertex (1 <= j <= k) seeds the
  // queues.
  state_.DiscardTransitions();
  for (VertexId u = 0; u < g_->VertexCapacity(); ++u) {
    if (IsTight(u)) OnTight(u);
  }
  Restore();
}

void SwapMaintainer::ExtendSolution(std::vector<VertexId>* candidates) {
  if (options_.perturb) {
    // Prefer low-degree vertices: they are more likely to be in a MaxIS.
    std::sort(candidates->begin(), candidates->end(),
              [&](VertexId a, VertexId b) {
                return g_->Degree(a) != g_->Degree(b)
                           ? g_->Degree(a) < g_->Degree(b)
                           : a < b;
              });
  }
  for (VertexId w : *candidates) {
    if (g_->IsVertexAlive(w) && !state_.InSolution(w) && state_.Count(w) == 0) {
      state_.MoveIn(w);
    }
  }
}

void SwapMaintainer::InsertEdge(VertexId u, VertexId v) {
  const bool u_in = state_.InSolution(u);
  const bool v_in = state_.InSolution(v);
  const EdgeId e = g_->AddEdge(u, v);
  state_.OnEdgeAdded(e);
  if (u_in && v_in) {
    // One endpoint must leave. Prefer the one with 1-tight neighbours (a
    // replacement is then guaranteed); otherwise drop the higher degree.
    VertexId loser;
    const bool bu = state_.HasBar1(u);
    const bool bv = state_.HasBar1(v);
    if (bu != bv) {
      loser = bu ? u : v;
    } else {
      loser = g_->Degree(u) >= g_->Degree(v) ? u : v;
    }
    state_.MoveOut(loser);
    extend_scratch_.clear();
    g_->ForEachIncident(loser, [&](VertexId w, EdgeId) {
      if (!state_.InSolution(w) && state_.Count(w) == 0) {
        extend_scratch_.push_back(w);
      }
    });
    ExtendSolution(&extend_scratch_);
  }
  Restore();
}

void SwapMaintainer::DeleteEdge(VertexId u, VertexId v) {
  state_.OnEdgeRemoving(u, v);
  DYNMIS_CHECK(g_->RemoveEdgeBetween(u, v));
  const bool u_in = state_.InSolution(u);
  const bool v_in = state_.InSolution(v);
  if (u_in || v_in) {
    const VertexId other = u_in ? v : u;
    if (!state_.InSolution(other) && state_.Count(other) == 0) {
      state_.MoveIn(other);
    }
  } else {
    OnFreedEdge(u, v);
  }
  Restore();
}

VertexId SwapMaintainer::InsertVertex(const std::vector<VertexId>& neighbors) {
  const VertexId v = g_->AddVertex();
  ResetVertexSlots(v);
  for (VertexId u : neighbors) {
    DYNMIS_CHECK_NE(u, v);
    const EdgeId e = g_->AddEdge(u, v);
    state_.OnEdgeAdded(e);
  }
  if (state_.Count(v) == 0) state_.MoveIn(v);
  Restore();
  return v;
}

void SwapMaintainer::DeleteVertex(VertexId v) {
  DYNMIS_CHECK(g_->IsVertexAlive(v));
  extend_scratch_.clear();
  g_->ForEachIncident(v, [&](VertexId w, EdgeId) {
    extend_scratch_.push_back(w);
  });
  if (state_.InSolution(v)) state_.MoveOut(v);
  state_.OnVertexRemoving(v);
  g_->RemoveVertex(v);
  ResetVertexSlots(v);  // The id may be recycled; clear stale algorithm state.
  ExtendSolution(&extend_scratch_);
  Restore();
}

void SwapMaintainer::SaveState(SnapshotWriter* w) const {
  DYNMIS_CHECK(QueuesEmpty());  // Quiescent point: no pending candidates.
  state_.SaveTo(w);
}

bool SwapMaintainer::LoadState(SnapshotReader* r, const DynamicGraph&) {
  if (!state_.LoadFrom(r)) return false;
  EnsureCapacity();
  return true;
}

size_t SwapMaintainer::MemoryUsageBytes() const {
  return state_.MemoryUsageBytes() + VectorBytes(mark_) +
         VectorBytes(extend_scratch_);
}

}  // namespace dynmis
