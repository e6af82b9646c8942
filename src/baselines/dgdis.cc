#include "src/baselines/dgdis.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/memory.h"

namespace dynmis {

DgDis::DgDis(DynamicGraph* g, int level) : g_(g), level_(level) {
  DYNMIS_CHECK(level == 1 || level == 2);
  EnsureCapacity();
}

void DgDis::EnsureCapacity() {
  const size_t vcap = g_->VertexCapacity();
  if (status_.size() < vcap) {
    status_.resize(vcap, 0);
    count_.resize(vcap, 0);
    alternatives_.resize(vcap);
    visit_mark_.resize(vcap, 0);
  }
}

void DgDis::ResetVertexSlots(VertexId v) {
  EnsureCapacity();
  status_[v] = 0;
  count_[v] = 0;
  alternatives_[v].clear();
  visit_mark_[v] = 0;
}

VertexId DgDis::OwnerOf(VertexId u) const {
  VertexId owner = kInvalidVertex;
  g_->ForEachIncident(u, [&](VertexId w) {
    if (owner == kInvalidVertex && status_[w]) owner = w;
  });
  return owner;
}

void DgDis::MoveIn(VertexId v) {
  DYNMIS_DCHECK(!status_[v] && count_[v] == 0);
  status_[v] = 1;
  ++size_;
  g_->ForEachIncident(v, [&](VertexId u) { ++count_[u]; });
}

void DgDis::MoveOut(VertexId v) {
  DYNMIS_DCHECK(status_[v] != 0);
  status_[v] = 0;
  --size_;
  int own = 0;
  g_->ForEachIncident(v, [&](VertexId u) {
    if (status_[u]) {
      ++own;
    } else {
      --count_[u];
    }
  });
  count_[v] = own;
}

void DgDis::MakeMaximalAround(const std::vector<VertexId>& candidates) {
  for (VertexId w : candidates) {
    if (g_->IsVertexAlive(w) && !status_[w] && count_[w] == 0) MoveIn(w);
  }
}

void DgDis::BuildIndex() {
  // Snapshot the degree-one / degree-two dependency structure around the
  // initial solution: for each solution vertex s its 1-tight (and, for
  // TwoDIS, 2-tight) neighbours are the recorded alternatives; for each
  // covered vertex its solution neighbours are its dependency targets.
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (!g_->IsVertexAlive(v)) continue;
    alternatives_[v].clear();
    if (status_[v]) {
      g_->ForEachIncident(v, [&](VertexId u) {
        if (count_[u] == 1 || (level_ == 2 && count_[u] == 2)) {
          alternatives_[v].push_back(u);
        }
      });
    } else {
      g_->ForEachIncident(v, [&](VertexId u) {
        if (status_[u]) alternatives_[v].push_back(u);
      });
    }
  }
}

bool DgDis::SearchComplementary(VertexId w, int depth) {
  ++stats_.searches;
  ++visit_epoch_;
  int64_t steps = 0;

  // Depth-limited alternating walk: try the snapshot alternatives of `w`;
  // a free alternative restores the size directly, a 1-tight alternative
  // can be freed by moving its (current) owner out, provided the owner can
  // in turn be replaced at smaller depth.
  auto walk = [&](auto&& self, VertexId lost, int d) -> bool {
    if (steps > kSearchCap) return false;
    if (lost >= static_cast<VertexId>(alternatives_.size())) return false;
    for (VertexId r : alternatives_[lost]) {
      ++steps;
      if (steps > kSearchCap) break;
      if (!g_->IsVertexAlive(r) || status_[r]) continue;
      if (visit_mark_[r] == visit_epoch_) continue;
      visit_mark_[r] = visit_epoch_;
      if (count_[r] == 0) {
        MoveIn(r);
        ++stats_.replacements;
        return true;
      }
      if (d > 0 && count_[r] == 1) {
        const VertexId s = OwnerOf(r);
        if (s == kInvalidVertex || visit_mark_[s] == visit_epoch_) continue;
        visit_mark_[s] = visit_epoch_;
        // Speculatively rotate: s out, r in, then try to re-place s.
        MoveOut(s);
        DYNMIS_DCHECK(count_[r] == 0);
        MoveIn(r);
        // Freed leftovers around s keep the solution maximal.
        std::vector<VertexId> freed;
        g_->ForEachIncident(s, [&](VertexId z) {
          if (!status_[z] && count_[z] == 0) freed.push_back(z);
        });
        MakeMaximalAround(freed);
        if (count_[s] == 0) {
          MoveIn(s);
          ++stats_.replacements;
          return true;
        }
        if (self(self, s, d - 1)) {
          ++stats_.replacements;
          return true;
        }
        // The rotation kept the size balanced (s out, r in); accept it and
        // report failure to recover the extra slot.
        return false;
      }
    }
    return false;
  };
  const bool ok = walk(walk, w, depth);
  stats_.search_steps += steps;
  return ok;
}

void DgDis::Initialize(const std::vector<VertexId>& initial) {
  for (VertexId v : initial) {
    DYNMIS_CHECK(g_->IsVertexAlive(v) && !status_[v]);
    DYNMIS_CHECK_EQ(count_[v], 0);
    MoveIn(v);
  }
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (g_->IsVertexAlive(v) && !status_[v] && count_[v] == 0) MoveIn(v);
  }
  BuildIndex();
}

void DgDis::InsertEdge(VertexId u, VertexId v) {
  const bool u_in = status_[u];
  const bool v_in = status_[v];
  g_->AddEdge(u, v);
  EnsureCapacity();
  if (u_in && v_in) {
    const VertexId loser = g_->Degree(u) >= g_->Degree(v) ? u : v;
    MoveOut(loser);
    std::vector<VertexId> freed;
    g_->ForEachIncident(loser, [&](VertexId w) {
      if (!status_[w] && count_[w] == 0) freed.push_back(w);
    });
    MakeMaximalAround(freed);
    if (count_[loser] == 0) {
      MoveIn(loser);
    } else {
      SearchComplementary(loser, level_ == 1 ? 2 : 3);
    }
    RecordDependenciesAround(loser);
  } else if (u_in || v_in) {
    const VertexId covered = u_in ? v : u;
    ++count_[covered];
    // Index upkeep: the new covering relation becomes part of the
    // dependency graph (and is never garbage-collected, so the index grows
    // as updates accumulate - the behaviour the paper reports).
    alternatives_[u_in ? u : v].push_back(covered);
    alternatives_[covered].push_back(u_in ? u : v);
  }
}

void DgDis::RecordDependenciesAround(VertexId w) {
  // Dependency-graph upkeep after a structural change around `w`: record
  // the current degree-one (and, for TwoDIS, degree-two) relations in the
  // index. Entries accumulate; stale ones are filtered at search time.
  if (!g_->IsVertexAlive(w)) return;
  g_->ForEachIncident(w, [&](VertexId x) {
    if (status_[x] || count_[x] > level_) return;
    const VertexId owner = OwnerOf(x);
    if (owner == kInvalidVertex) return;
    alternatives_[owner].push_back(x);
    alternatives_[x].push_back(owner);
  });
}

void DgDis::DeleteEdge(VertexId u, VertexId v) {
  const bool removed = g_->RemoveEdgeBetween(u, v);
  DYNMIS_CHECK(removed);
  const bool u_in = status_[u];
  const bool v_in = status_[v];
  if (u_in || v_in) {
    const VertexId other = u_in ? v : u;
    --count_[other];
    if (count_[other] == 0) {
      MoveIn(other);
      RecordDependenciesAround(other);
    } else if (count_[other] <= level_) {
      RecordDependenciesAround(other);
    }
  }
}

VertexId DgDis::InsertVertex(const std::vector<VertexId>& neighbors) {
  const VertexId v = g_->AddVertex();
  EnsureCapacity();
  ResetVertexSlots(v);
  for (VertexId u : neighbors) {
    g_->AddEdge(u, v);
    EnsureCapacity();
    if (status_[u]) ++count_[v];
    // Record the dependency for future searches.
    if (status_[u]) alternatives_[v].push_back(u);
  }
  if (count_[v] == 0) MoveIn(v);
  return v;
}

void DgDis::DeleteVertex(VertexId v) {
  DYNMIS_CHECK(g_->IsVertexAlive(v));
  std::vector<VertexId> neighbors = g_->Neighbors(v);
  const bool was_in = status_[v];
  if (was_in) MoveOut(v);
  // Detach: counts of covered neighbours drop when a solution vertex left;
  // for a covered v nothing changes for the neighbours.
  g_->RemoveVertex(v);
  ResetVertexSlots(v);
  if (was_in) {
    MakeMaximalAround(neighbors);
    SearchComplementary(v, level_ == 1 ? 2 : 3);
    for (VertexId w : neighbors) {
      if (g_->IsVertexAlive(w) && status_[w]) RecordDependenciesAround(w);
    }
  }
}

std::vector<VertexId> DgDis::Solution() const {
  std::vector<VertexId> out;
  CollectSolution(&out);
  return out;
}

void DgDis::CollectSolution(std::vector<VertexId>* out) const {
  out->reserve(out->size() + static_cast<size_t>(size_));
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (g_->IsVertexAlive(v) && status_[v]) out->push_back(v);
  }
}

size_t DgDis::MemoryUsageBytes() const {
  return VectorBytes(status_) + VectorBytes(count_) +
         NestedVectorBytes(alternatives_) + VectorBytes(visit_mark_);
}

void DgDis::CheckConsistency() const {
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (!g_->IsVertexAlive(v)) continue;
    int solution_neighbors = 0;
    g_->ForEachIncident(v, [&](VertexId u) {
      if (status_[u]) ++solution_neighbors;
    });
    if (status_[v]) {
      DYNMIS_CHECK_EQ(solution_neighbors, 0);
    } else {
      DYNMIS_CHECK_EQ(count_[v], solution_neighbors);
      DYNMIS_CHECK_GE(count_[v], 1);
    }
  }
}

}  // namespace dynmis
