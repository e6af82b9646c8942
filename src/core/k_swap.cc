#include "src/core/k_swap.h"

#include <algorithm>

#include "src/util/memory.h"
#include "src/util/random.h"

namespace dynmis {

KSwapMaintainer::KSwapMaintainer(DynamicGraph* g, int k,
                                 MaintainerConfig options)
    : SwapMaintainer(g, k, options) {
  DYNMIS_CHECK_GE(k, 1);
  DYNMIS_CHECK_LE(k, kMaxKSwapOrder);
  EnsureCapacity();
}

void KSwapMaintainer::PushWitness(VertexId u) {
  if (in_worklist_[u]) return;
  in_worklist_[u] = 1;
  worklist_.push_back(u);
}

void KSwapMaintainer::DrainTransitions() {
  state_.DrainTransitions([&](VertexId u) {
    if (IsTight(u)) OnTight(u);
  });
}

void KSwapMaintainer::Restore() {
  DrainTransitions();
  ProcessWorklist();
}

void KSwapMaintainer::ProcessWorklist() {
  visited_.Clear();
  while (!worklist_.empty()) {
    const VertexId u = worklist_.back();
    worklist_.pop_back();
    in_worklist_[u] = 0;
    if (!g_->IsVertexAlive(u) || state_.InSolution(u)) continue;
    const int c = state_.Count(u);
    if (c < 1 || c > k_) continue;
    std::vector<VertexId> s;
    s.reserve(c);
    state_.ForEachSolutionNeighbor(u, [&](VertexId w) { s.push_back(w); });
    std::sort(s.begin(), s.end());
    if (TrySwapOrExpand(std::move(s))) {
      // A swap invalidates earlier dedup decisions: sets that admitted no
      // swap before may admit one now.
      visited_.Clear();
    }
  }
}

uint64_t KSwapMaintainer::HashSet(const std::vector<VertexId>& s) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (VertexId v : s) h = SplitMix64(h ^ static_cast<uint64_t>(v));
  return h;
}

void KSwapMaintainer::CollectRegion(const std::vector<VertexId>& s,
                                    std::vector<VertexId>* t) {
  const int j = static_cast<int>(s.size());
  NewEpoch();
  for (VertexId x : s) {
    g_->ForEachIncident(x, [&](VertexId w) {
      if (Marked(w) || state_.InSolution(w)) return;
      Mark(w);  // Dedup across the owners in S.
      const int c = state_.Count(w);
      if (c < 1 || c > j) return;
      bool inside = true;
      state_.ForEachSolutionNeighbor(w, [&](VertexId owner) {
        if (std::find(s.begin(), s.end(), owner) == s.end()) inside = false;
      });
      if (inside) t->push_back(w);
    });
  }
}

bool KSwapMaintainer::FindIndependentSubset(const std::vector<VertexId>& t,
                                            int target,
                                            std::vector<VertexId>* result) {
  if (static_cast<int>(t.size()) < target) return false;
  // Depth-first search over t (ordered by ascending degree, which tends to
  // admit independent sets early), with a global node cap.
  std::vector<VertexId> order = t;
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g_->Degree(a) != g_->Degree(b) ? g_->Degree(a) < g_->Degree(b)
                                          : a < b;
  });
  // blocked[i] counts how many chosen vertices are adjacent to order[i].
  std::vector<int> blocked(order.size(), 0);
  position_.resize(g_->VertexCapacity(), -1);
  for (size_t i = 0; i < order.size(); ++i) {
    position_[order[i]] = static_cast<VertexId>(i);
  }
  std::vector<VertexId>& position = position_;
  std::vector<VertexId> chosen;
  int64_t nodes = 0;

  // Recursive lambda: try to complete `chosen` using candidates from index
  // `from` onward.
  auto dfs = [&](auto&& self, size_t from) -> bool {
    if (static_cast<int>(chosen.size()) == target) return true;
    if (++nodes > kSearchNodeCap) return false;
    const int needed = target - static_cast<int>(chosen.size());
    for (size_t i = from; i + needed <= order.size(); ++i) {
      if (blocked[i] > 0) continue;
      const VertexId w = order[i];
      chosen.push_back(w);
      g_->ForEachIncident(w, [&](VertexId z) {
        if (position[z] >= 0) ++blocked[position[z]];
      });
      if (self(self, i + 1)) return true;
      g_->ForEachIncident(w, [&](VertexId z) {
        if (position[z] >= 0) --blocked[position[z]];
      });
      chosen.pop_back();
      if (nodes > kSearchNodeCap) return false;
    }
    return false;
  };
  const bool found = dfs(dfs, 0);
  stats_.search_nodes += nodes;
  for (VertexId w : order) position_[w] = -1;  // Restore the scratch array.
  if (found) *result = chosen;
  return found;
}

bool KSwapMaintainer::TrySwapOrExpand(std::vector<VertexId> s) {
  if (!visited_.Insert(HashSet(s))) return false;
  ++stats_.sets_examined;
  for (VertexId x : s) {
    if (!g_->IsVertexAlive(x) || !state_.InSolution(x)) return false;
  }
  std::vector<VertexId> region;
  CollectRegion(s, &region);
  std::vector<VertexId> swap_in;
  if (FindIndependentSubset(region, static_cast<int>(s.size()) + 1,
                            &swap_in)) {
    ++stats_.swaps;
    for (VertexId x : s) state_.MoveOut(x);
    for (VertexId w : swap_in) {
      DYNMIS_DCHECK(state_.Count(w) == 0);
      state_.MoveIn(w);
    }
    ExtendSolution(&region);
    DrainTransitions();
    return true;
  }
  if (static_cast<int>(s.size()) >= k_) return false;
  // Expansion (Algorithm 1 lines 11-12): supersets S' = I(y) for
  // (|S|+1)-tight vertices y adjacent to S whose owners contain S.
  const int next = static_cast<int>(s.size()) + 1;
  std::vector<std::vector<VertexId>> supersets;
  NewEpoch();
  for (VertexId x : s) {
    g_->ForEachIncident(x, [&](VertexId y) {
      if (Marked(y) || state_.InSolution(y)) return;
      Mark(y);
      if (state_.Count(y) != next) return;
      std::vector<VertexId> owners;
      owners.reserve(next);
      state_.ForEachSolutionNeighbor(y,
                                     [&](VertexId w) { owners.push_back(w); });
      std::sort(owners.begin(), owners.end());
      if (std::includes(owners.begin(), owners.end(), s.begin(), s.end())) {
        supersets.push_back(std::move(owners));
      }
    });
  }
  for (auto& sup : supersets) {
    if (TrySwapOrExpand(std::move(sup))) return true;
  }
  return false;
}

void KSwapMaintainer::OnFreedEdge(VertexId u, VertexId v) {
  // The deleted edge may enable a swap for the union of the endpoints'
  // owner sets (generalization of Algorithm 2/3's deletion case ii).
  PushWitness(u);
  PushWitness(v);
  if (state_.Count(u) >= 1 && state_.Count(v) >= 1) {
    std::vector<VertexId> joint;
    state_.ForEachSolutionNeighbor(u, [&](VertexId w) { joint.push_back(w); });
    state_.ForEachSolutionNeighbor(v, [&](VertexId w) { joint.push_back(w); });
    std::sort(joint.begin(), joint.end());
    joint.erase(std::unique(joint.begin(), joint.end()), joint.end());
    if (static_cast<int>(joint.size()) <= k_) {
      visited_.Clear();
      TrySwapOrExpand(std::move(joint));
    }
  }
}

size_t KSwapMaintainer::MemoryUsageBytes() const {
  return SwapMaintainer::MemoryUsageBytes() + VectorBytes(worklist_) +
         VectorBytes(in_worklist_) + VectorBytes(position_) +
         visited_.MemoryUsageBytes();
}

std::string KSwapMaintainer::Name() const {
  std::string name = "KSwap(k=" + std::to_string(k_) + ")";
  if (options_.perturb) name += "*";
  return name;
}

}  // namespace dynmis
