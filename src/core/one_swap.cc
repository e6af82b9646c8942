#include "src/core/one_swap.h"

#include <algorithm>

#include "src/util/memory.h"

namespace dynmis {

DyOneSwap::DyOneSwap(DynamicGraph* g, MaintainerConfig options)
    : g_(g), options_(options), state_(g, /*k=*/1) {
  EnsureCapacity();
}

void DyOneSwap::EnsureCapacity() {
  state_.EnsureCapacity();
  const size_t vcap = g_->VertexCapacity();
  if (in_queue_.size() < vcap) {
    in_queue_.resize(vcap, 0);
    cands_.EnsureCapacity(vcap);
    mark_.resize(vcap, 0);
  }
}

void DyOneSwap::ResetVertexSlots(VertexId v) {
  EnsureCapacity();
  state_.OnVertexAdded(v);
  in_queue_[v] = 0;
  cands_.OnVertexReset(v);
  mark_[v] = 0;
}

void DyOneSwap::Initialize(const std::vector<VertexId>& initial) {
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
  // Establish 1-maximality: every 1-tight vertex is a candidate.
  state_.DiscardTransitions();
  for (VertexId u = 0; u < g_->VertexCapacity(); ++u) {
    if (g_->IsVertexAlive(u) && !state_.InSolution(u) && state_.Count(u) == 1) {
      EnqueueCandidate(state_.OwnerOf(u), u);
    }
  }
  ProcessQueue();
}

void DyOneSwap::ExtendSolution(std::vector<VertexId>* candidates) {
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

void DyOneSwap::EnqueueCandidate(VertexId owner, VertexId u) {
  if (!cands_.Enqueue(owner, u)) return;
  if (!in_queue_[owner]) {
    in_queue_[owner] = 1;
    queue_.push_back(owner);
  }
}

void DyOneSwap::DrainTransitions() {
  state_.DrainTransitions([&](VertexId u) {
    if (!g_->IsVertexAlive(u) || state_.InSolution(u) ||
        state_.Count(u) != 1) {
      return;
    }
    EnqueueCandidate(state_.OwnerOf(u), u);
  });
}

std::vector<VertexId> DyOneSwap::ApplyBatch(
    const std::vector<GraphUpdate>& updates) {
  deferred_ = true;
  std::vector<VertexId> new_vertices =
      DynamicMisMaintainer::ApplyBatch(updates);
  deferred_ = false;
  ProcessQueue();
  return new_vertices;
}

void DyOneSwap::ProcessQueue() {
  if (deferred_) return;
  std::vector<VertexId>& kept = kept_;
  while (!queue_.empty()) {
    const VertexId v = queue_.back();
    queue_.pop_back();
    in_queue_[v] = 0;
    const bool v_valid = g_->IsVertexAlive(v) && state_.InSolution(v);
    // Consume v's candidate list; entries may be stale (candidates are
    // re-validated, not unlinked, when their tightness changes).
    kept.clear();
    cands_.Consume(v, [&](VertexId u) {
      if (v_valid && g_->IsVertexAlive(u) && !state_.InSolution(u) &&
          state_.Count(u) == 1 && state_.OwnerOf(u) == v) {
        kept.push_back(u);
      }
    });
    if (kept.empty()) continue;
    stats_.candidates_processed += static_cast<int64_t>(kept.size());

    bar1_scratch_.clear();
    state_.CollectBar1(v, &bar1_scratch_);
    const int bar1_size = static_cast<int>(bar1_scratch_.size());
    NewEpoch();
    for (VertexId w : bar1_scratch_) Mark(w);

    VertexId chosen = kInvalidVertex;
    for (VertexId u : kept) {
      // |N[u] cap bar1(v)| = 1 (u itself) + marked open neighbours.
      int inter = 1;
      g_->ForEachIncident(u, [&](VertexId w, EdgeId) {
        if (Marked(w)) ++inter;
      });
      if (inter < bar1_size) {
        if (!options_.perturb) {
          chosen = u;
          break;
        }
        if (chosen == kInvalidVertex || g_->Degree(u) < g_->Degree(chosen)) {
          chosen = u;
        }
      }
    }
    if (chosen != kInvalidVertex) {
      PerformOneSwap(v, chosen, &bar1_scratch_);
      continue;
    }
    if (options_.perturb && !bar1_scratch_.empty()) {
      // Perturbation (paper optimization 2): G[bar1(v)] is a clique, so v
      // can rotate with any member without changing the solution size.
      // Rotating toward the smallest-degree member strictly decreases the
      // total solution degree (ensuring termination) and tends to free up
      // future swaps, since high-degree vertices rarely belong to a MaxIS.
      VertexId best = bar1_scratch_.front();
      for (VertexId w : bar1_scratch_) {
        if (g_->Degree(w) < g_->Degree(best)) best = w;
      }
      if (g_->Degree(best) < g_->Degree(v)) {
        state_.MoveOut(v);
        DYNMIS_DCHECK(state_.Count(best) == 0);
        state_.MoveIn(best);
        DrainTransitions();
      }
    }
  }
}

void DyOneSwap::PerformOneSwap(VertexId v, VertexId u,
                               std::vector<VertexId>* bar1_snapshot) {
  ++stats_.one_swaps;
  state_.MoveOut(v);
  state_.MoveIn(u);
  ExtendSolution(bar1_snapshot);
  DrainTransitions();
}

void DyOneSwap::InsertEdge(VertexId u, VertexId v) {
  const bool u_in = state_.InSolution(u);
  const bool v_in = state_.InSolution(v);
  const EdgeId e = g_->AddEdge(u, v);
  EnsureCapacity();
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
  DrainTransitions();
  ProcessQueue();
}

void DyOneSwap::DeleteEdge(VertexId u, VertexId v) {
  const EdgeId e = g_->FindEdge(u, v);
  DYNMIS_CHECK(e != kInvalidEdge);
  state_.OnEdgeRemoving(e);
  g_->RemoveEdge(e);
  const bool u_in = state_.InSolution(u);
  const bool v_in = state_.InSolution(v);
  if (u_in || v_in) {
    const VertexId other = u_in ? v : u;
    if (!state_.InSolution(other) && state_.Count(other) == 0) {
      state_.MoveIn(other);
    }
  } else if (state_.Count(u) == 1 && state_.Count(v) == 1) {
    const VertexId wu = state_.OwnerOf(u);
    const VertexId wv = state_.OwnerOf(v);
    if (wu == wv) {
      // u and v are now non-adjacent and both covered only by w: the swap
      // {w} -> {u, v} strictly grows the solution (Alg 2, deletion case ii).
      ++stats_.one_swaps;
      bar1_scratch_.clear();
      state_.CollectBar1(wu, &bar1_scratch_);
      state_.MoveOut(wu);
      DYNMIS_DCHECK(state_.Count(u) == 0);
      state_.MoveIn(u);
      if (state_.Count(v) == 0) state_.MoveIn(v);
      ExtendSolution(&bar1_scratch_);
    }
  }
  DrainTransitions();
  ProcessQueue();
}

VertexId DyOneSwap::InsertVertex(const std::vector<VertexId>& neighbors) {
  const VertexId v = g_->AddVertex();
  EnsureCapacity();
  ResetVertexSlots(v);
  for (VertexId u : neighbors) {
    DYNMIS_CHECK_NE(u, v);
    const EdgeId e = g_->AddEdge(u, v);
    EnsureCapacity();
    state_.OnEdgeAdded(e);
  }
  if (state_.Count(v) == 0) state_.MoveIn(v);
  DrainTransitions();
  ProcessQueue();
  return v;
}

void DyOneSwap::DeleteVertex(VertexId v) {
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
  DrainTransitions();
  ProcessQueue();
}

void DyOneSwap::SaveState(SnapshotWriter* w) const {
  DYNMIS_CHECK(queue_.empty());  // Quiescent point: no pending candidates.
  state_.SaveTo(w);
}

bool DyOneSwap::LoadState(SnapshotReader* r, const DynamicGraph&) {
  if (!state_.LoadFrom(r)) return false;
  EnsureCapacity();
  return true;
}

size_t DyOneSwap::MemoryUsageBytes() const {
  return state_.MemoryUsageBytes() + VectorBytes(queue_) +
         VectorBytes(in_queue_) + cands_.MemoryUsageBytes() +
         VectorBytes(mark_) + VectorBytes(bar1_scratch_) +
         VectorBytes(kept_) + VectorBytes(extend_scratch_);
}

std::string DyOneSwap::Name() const {
  std::string name = "DyOneSwap";
  if (options_.perturb) name += "*";
  return name;
}

}  // namespace dynmis
