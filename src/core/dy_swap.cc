#include "src/core/dy_swap.h"

#include <algorithm>

#include "src/util/memory.h"

namespace dynmis {

DySwap::DySwap(DynamicGraph* g, int k, MaintainerConfig options)
    : SwapMaintainer(g, k, options) {
  DYNMIS_CHECK(k == 1 || k == 2);
  EnsureCapacity();
}

void DySwap::GrowSlots(size_t vcap) {
  c1_.GrowMembers(vcap);
  c1_.GrowOwners(vcap);
  if (k_ == 1) return;
  c2_.GrowMembers(vcap);
  c2_head_.resize(vcap, -1);
}

void DySwap::ResetSlots(VertexId v) {
  c1_.DropOwner(v);
  c1_.DropMember(v);
  if (k_ == 2) c2_.DropMember(v);
}

int32_t* DySwap::FindBucketLink(VertexId a, VertexId b) {
  int32_t* link = &c2_head_[a];
  while (*link != -1 && c2_pool_[*link].y != b) {
    link = &c2_pool_[*link].next;
  }
  return link;
}

void DySwap::OnTight(VertexId u) {
  if (state_.Count(u) == 1) {
    c1_.Enqueue(state_.OwnerOf(u), u);
  } else {
    VertexId a, b;
    state_.OwnersOf2(u, &a, &b);
    EnqueueC2(a, b, u);
  }
}

void DySwap::EnqueueC2(VertexId a, VertexId b, VertexId x) {
  if (a > b) std::swap(a, b);
  const int32_t current = c2_.OwnerOf(x);
  if (current != CandidateList::kNoOwner && c2_pool_[current].x == a &&
      c2_pool_[current].y == b) {
    return;
  }
  // Find the pair's active bucket among those sharing the smaller endpoint.
  int32_t bucket = *FindBucketLink(a, b);
  if (bucket == -1) {
    if (!c2_free_.empty()) {
      bucket = c2_free_.back();
      c2_free_.pop_back();
    } else {
      bucket = static_cast<int32_t>(c2_pool_.size());
      c2_pool_.emplace_back();
      c2_.GrowOwners(c2_pool_.size());
    }
    c2_pool_[bucket] = {a, b, c2_head_[a]};
    c2_head_[a] = bucket;
  }
  c2_.Enqueue(bucket, x);
}

void DySwap::DrainTransitions() {
  state_.DrainTransitions([&](VertexId u) {
    if (IsTight(u)) OnTight(u);
  });
}

void DySwap::Restore() {
  DrainTransitions();
  if (!deferred_) ProcessQueues();
}

std::vector<VertexId> DySwap::ApplyBatch(
    const std::vector<GraphUpdate>& updates) {
  deferred_ = true;
  std::vector<VertexId> new_vertices =
      DynamicMisMaintainer::ApplyBatch(updates);
  deferred_ = false;
  ProcessQueues();
  return new_vertices;
}

void DySwap::ProcessQueues() {
  while (!c1_.Empty() || !c2_.Empty()) {
    if (!c1_.Empty()) {
      FindOneSwapStep();
    } else {
      FindTwoSwapStep();
    }
  }
}

void DySwap::FindOneSwapStep() {
  const VertexId v = c1_.PopOwner();
  const bool v_valid = g_->IsVertexAlive(v) && state_.InSolution(v);
  // Consume v's candidate list; entries may be stale (candidates are
  // re-validated, not unlinked, when their tightness changes).
  std::vector<VertexId>& kept = kept_;
  kept.clear();
  c1_.Consume(v, [&](VertexId u) {
    if (v_valid && g_->IsVertexAlive(u) && !state_.InSolution(u) &&
        state_.Count(u) == 1 && state_.OwnerOf(u) == v) {
      kept.push_back(u);
    }
  });
  if (kept.empty()) return;
  stats_.candidates_processed += static_cast<int64_t>(kept.size());

  // bar1(v); at k = 2 the same scan of N(v) also collects bar2(v) for the
  // fallback below.
  std::vector<VertexId>& bar1 = bar1_scratch_;
  std::vector<VertexId>& bar2 = bar2_scratch_;
  bar1.clear();
  if (k_ == 1) {
    state_.CollectBar1(v, &bar1);
  } else {
    bar2.clear();
    state_.CollectBar1And2(v, kInvalidVertex, &bar1, &bar2);
  }
  const int bar1_size = static_cast<int>(bar1.size());
  NewEpoch();
  for (VertexId w : bar1) Mark(w);

  VertexId chosen = kInvalidVertex;
  for (VertexId u : kept) {
    // |N[u] cap bar1(v)| = 1 (u itself) + marked open neighbours.
    int inter = 1;
    g_->ForEachIncident(u, [&](VertexId w) {
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
    PerformOneSwap(v, chosen, &bar1);
    return;
  }
  if (options_.perturb && !bar1.empty()) {
    // Perturbation (paper optimization 2): G[bar1(v)] is a clique, so v
    // can rotate with any member without changing the solution size.
    // Rotating toward the smallest-degree member strictly decreases the
    // total solution degree (ensuring termination) and tends to free up
    // future swaps, since high-degree vertices rarely belong to a MaxIS.
    VertexId best = bar1.front();
    for (VertexId w : bar1) {
      if (g_->Degree(w) < g_->Degree(best)) best = w;
    }
    if (g_->Degree(best) < g_->Degree(v)) {
      state_.MoveOut(v);
      DYNMIS_DCHECK(state_.Count(best) == 0);
      state_.MoveIn(best);
      DrainTransitions();
      return;
    }
  }
  if (k_ == 1) return;
  // No 1-swap for v (Alg 3, lines 14-17): the new bar1(v) members may still
  // enable a 2-swap for a pair {v, z}. A 2-tight neighbour x of v is a
  // useful pair witness only if it misses at least one member of C(v).
  NewEpoch();
  for (VertexId u : kept) Mark(u);
  const int kept_size = static_cast<int>(kept.size());
  for (VertexId x : bar2) {
    int inter = 0;
    g_->ForEachIncident(x, [&](VertexId w) {
      if (Marked(w)) ++inter;
    });
    if (inter < kept_size) {
      VertexId a, b;
      state_.OwnersOf2(x, &a, &b);
      EnqueueC2(a, b, x);
    }
  }
}

void DySwap::FindTwoSwapStep() {
  const int32_t bucket = c2_.PopOwner();
  const VertexId x = c2_pool_[bucket].x;
  const VertexId y = c2_pool_[bucket].y;
  // Unlink from the smaller endpoint's chain and return the bucket to the
  // pool (queued buckets are always chained, and a pair has at most one
  // active bucket), then consume its member list.
  int32_t* link = FindBucketLink(x, y);
  DYNMIS_DCHECK(*link == bucket);
  *link = c2_pool_[bucket].next;
  c2_pool_[bucket] = PairBucket{};
  c2_free_.push_back(bucket);

  const bool pair_valid = g_->IsVertexAlive(x) && g_->IsVertexAlive(y) &&
                          state_.InSolution(x) && state_.InSolution(y);
  std::vector<VertexId>& kept = kept_;
  kept.clear();
  c2_.Consume(bucket, [&](VertexId w) {
    if (pair_valid && g_->IsVertexAlive(w) && !state_.InSolution(w) &&
        state_.Count(w) == 2) {
      VertexId a, b;
      state_.OwnersOf2(w, &a, &b);
      if (std::min(a, b) == x && std::max(a, b) == y) kept.push_back(w);
    }
  });
  if (kept.empty()) return;
  stats_.pair_candidates_processed += static_cast<int64_t>(kept.size());

  std::vector<VertexId>& bar1x = bar1x_;
  std::vector<VertexId>& bar1y = bar1y_;
  std::vector<VertexId>& bar2s = bar2s_;
  bar1x.clear();
  bar1y.clear();
  bar2s.clear();
  state_.CollectBar1And2(x, y, &bar1x, &bar2s);
  state_.CollectBar1(y, &bar1y);

  std::vector<VertexId>& cy = cy_;
  std::vector<VertexId>& cz = cz_;
  for (VertexId w : kept) {
    // Cy = bar1(x) u bar2(S) \ N[w];  Cz = bar1(y) u bar2(S) \ N[w].
    NewEpoch();
    Mark(w);
    g_->ForEachIncident(w, [&](VertexId z) { Mark(z); });
    cy.clear();
    cz.clear();
    for (VertexId z : bar1x) {
      if (!Marked(z)) cy.push_back(z);
    }
    for (VertexId z : bar2s) {
      if (!Marked(z)) cy.push_back(z);
    }
    for (VertexId z : bar1y) {
      if (!Marked(z)) cz.push_back(z);
    }
    for (VertexId z : bar2s) {
      if (!Marked(z)) cz.push_back(z);
    }
    if (cy.empty() || cz.empty()) continue;
    // Look for non-adjacent (a, b) with a in Cy, b in Cz, a != b.
    NewEpoch();
    for (VertexId z : cz) Mark(z);
    const int cz_size = static_cast<int>(cz.size());
    for (VertexId a : cy) {
      int inter = Marked(a) ? 1 : 0;  // a may itself lie in Cz.
      g_->ForEachIncident(a, [&](VertexId z) {
        if (Marked(z)) ++inter;
      });
      if (inter >= cz_size) continue;
      // A witness exists; find it explicitly.
      NewEpoch();
      Mark(a);
      g_->ForEachIncident(a, [&](VertexId z) { Mark(z); });
      VertexId b = kInvalidVertex;
      for (VertexId z : cz) {
        if (!Marked(z)) {
          b = z;
          break;
        }
      }
      DYNMIS_CHECK(b != kInvalidVertex);
      region_.clear();
      region_.reserve(bar1x.size() + bar1y.size() + bar2s.size());
      region_.insert(region_.end(), bar1x.begin(), bar1x.end());
      region_.insert(region_.end(), bar1y.begin(), bar1y.end());
      region_.insert(region_.end(), bar2s.begin(), bar2s.end());
      PerformTwoSwap(x, y, w, a, b, &region_);
      return;
    }
  }
}

void DySwap::PerformOneSwap(VertexId v, VertexId u,
                            std::vector<VertexId>* bar1_snapshot) {
  ++stats_.one_swaps;
  state_.MoveOut(v);
  state_.MoveIn(u);
  ExtendSolution(bar1_snapshot);
  DrainTransitions();
}

void DySwap::PerformTwoSwap(VertexId x, VertexId y, VertexId in_a,
                            VertexId in_b, VertexId in_c,
                            std::vector<VertexId>* region_snapshot) {
  ++stats_.two_swaps;
  state_.MoveOut(x);
  state_.MoveOut(y);
  DYNMIS_DCHECK(state_.Count(in_a) == 0);
  state_.MoveIn(in_a);
  DYNMIS_DCHECK(state_.Count(in_b) == 0);
  state_.MoveIn(in_b);
  if (state_.Count(in_c) == 0) state_.MoveIn(in_c);
  ExtendSolution(region_snapshot);
  DrainTransitions();
}

void DySwap::OnFreedEdge(VertexId u, VertexId v) {
  if (state_.Count(u) == 1 && state_.Count(v) == 1) {
    const VertexId wu = state_.OwnerOf(u);
    const VertexId wv = state_.OwnerOf(v);
    if (wu == wv) {
      // Deletion case ii.a: u and v are now non-adjacent and both covered
      // only by w, so the swap {w} -> {u, v} strictly grows the solution.
      ++stats_.one_swaps;
      bar1_scratch_.clear();
      state_.CollectBar1(wu, &bar1_scratch_);
      state_.MoveOut(wu);
      DYNMIS_DCHECK(state_.Count(u) == 0);
      state_.MoveIn(u);
      if (state_.Count(v) == 0) state_.MoveIn(v);
      ExtendSolution(&bar1_scratch_);
    } else if (k_ == 2) {
      // Deletion case ii.b: S = {wu, wv} with swap-in {u, v, w} for a
      // 2-tight w of the pair that misses both u and v. The pair's members
      // come from the lower-degree owner's scan, which also yields its bar1.
      NewEpoch();
      Mark(u);
      Mark(v);
      g_->ForEachIncident(u, [&](VertexId z) { Mark(z); });
      g_->ForEachIncident(v, [&](VertexId z) { Mark(z); });
      const VertexId low = g_->Degree(wu) <= g_->Degree(wv) ? wu : wv;
      const VertexId high = low == wu ? wv : wu;
      std::vector<VertexId>& pair_tight = bar2s_;
      pair_tight.clear();
      region_.clear();
      state_.CollectBar1And2(low, high, &region_, &pair_tight);
      VertexId w = kInvalidVertex;
      for (VertexId z : pair_tight) {
        if (!Marked(z)) {
          w = z;
          break;
        }
      }
      if (w != kInvalidVertex) {
        state_.CollectBar1(high, &region_);
        region_.insert(region_.end(), pair_tight.begin(), pair_tight.end());
        state_.MoveOut(wu);
        state_.MoveOut(wv);
        ++stats_.two_swaps;
        DYNMIS_DCHECK(state_.Count(u) == 0);
        state_.MoveIn(u);
        DYNMIS_DCHECK(state_.Count(v) == 0);
        state_.MoveIn(v);
        if (state_.Count(w) == 0) state_.MoveIn(w);
        ExtendSolution(&region_);
      }
    }
  } else if (k_ == 2) {
    // Deletion case ii.c: when one endpoint is 2-tight and the other's
    // owners are a subset of its pair, the pair gains a usable candidate.
    for (const auto& [p, q] : {std::pair{u, v}, std::pair{v, u}}) {
      if (state_.Count(q) != 2 || state_.Count(p) < 1 || state_.Count(p) > 2) {
        continue;
      }
      VertexId a, b;
      state_.OwnersOf2(q, &a, &b);
      bool subset = true;
      state_.ForEachSolutionNeighbor(p, [&](VertexId s) {
        if (s != a && s != b) subset = false;
      });
      if (subset) EnqueueC2(a, b, q);
    }
  }
}

size_t DySwap::MemoryUsageBytes() const {
  return SwapMaintainer::MemoryUsageBytes() + c1_.MemoryUsageBytes() +
         VectorBytes(c2_pool_) + VectorBytes(c2_free_) +
         VectorBytes(c2_head_) + c2_.MemoryUsageBytes() + VectorBytes(kept_) +
         VectorBytes(bar1_scratch_) + VectorBytes(bar2_scratch_) +
         VectorBytes(bar1x_) + VectorBytes(bar1y_) + VectorBytes(bar2s_) +
         VectorBytes(cy_) + VectorBytes(cz_) + VectorBytes(region_);
}

std::string DySwap::Name() const {
  std::string name = k_ == 1 ? "DyOneSwap" : "DyTwoSwap";
  if (options_.perturb) name += "*";
  return name;
}

}  // namespace dynmis
