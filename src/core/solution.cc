#include "src/core/solution.h"

#include <cmath>
#include <string>

#include "src/util/memory.h"

namespace dynmis {

namespace {

// floor(sqrt(x)) for x < 2^62: the double estimate is off by at most one.
uint64_t ISqrt(uint64_t x) {
  uint64_t r = static_cast<uint64_t>(std::sqrt(static_cast<double>(x)));
  while (r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

}  // namespace

MisState::MisState(DynamicGraph* g, int k) : g_(g), k_(k) {
  DYNMIS_CHECK_GE(k, 1);
  EnsureCapacity();
}

void MisState::EnsureCapacity() {
  const size_t vcap = g_->VertexCapacity();
  if (status_.size() < vcap) {
    status_.resize(vcap, 0);
    count_.resize(vcap, 0);
    owners_.resize(vcap);
  }
}

void MisState::OnVertexAdded(VertexId v) {
  EnsureCapacity();
  status_[v] = 0;
  count_[v] = 0;
  owners_[v] = OwnerSums{};
}

std::vector<VertexId> MisState::Solution() const {
  std::vector<VertexId> out;
  AppendSolution(&out);
  return out;
}

void MisState::AppendSolution(std::vector<VertexId>* out) const {
  out->reserve(out->size() + static_cast<size_t>(solution_size_));
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (g_->IsVertexAlive(v) && status_[v]) out->push_back(v);
  }
}

void MisState::OwnersOf2(VertexId u, VertexId* a, VertexId* b) const {
  DYNMIS_DCHECK(count_[u] == 2);
  // With ids below 2^31 both sum < 2^32 and (b - a)^2 < 2^62 hold exactly,
  // whatever the wrapped history of the mod-2^64 accumulators.
  const uint64_t sum = owners_[u].sum;
  const uint64_t diff = ISqrt(2 * owners_[u].sq - sum * sum);
  *a = static_cast<VertexId>((sum - diff) / 2);
  *b = static_cast<VertexId>((sum + diff) / 2);
  DYNMIS_DCHECK(*a < *b && status_[*a] && status_[*b]);
}

// Solution vertices have count 0, so count(u) alone identifies the
// tightness sets; the scans never touch status_.

bool MisState::HasBar1(VertexId v) const {
  DYNMIS_DCHECK(InSolution(v));
  return g_->AnyIncident(v, [&](VertexId u) { return count_[u] == 1; });
}

void MisState::CollectBar1(VertexId v, std::vector<VertexId>* bar1) const {
  DYNMIS_DCHECK(InSolution(v));
  g_->ForEachIncident(v, [&](VertexId u) {
    if (count_[u] == 1) bar1->push_back(u);
  });
}

void MisState::CollectBar1And2(VertexId v, VertexId pair,
                               std::vector<VertexId>* bar1,
                               std::vector<VertexId>* bar2) const {
  DYNMIS_DCHECK(InSolution(v));
  // For u in bar2(v), sum(u) - v is u's other solution neighbour.
  const uint64_t other_sum =
      static_cast<uint64_t>(v) + static_cast<uint64_t>(pair);
  g_->ForEachIncident(v, [&](VertexId u) {
    const int c = count_[u];
    if (c == 1) {
      bar1->push_back(u);
    } else if (c == 2 &&
               (pair == kInvalidVertex || owners_[u].sum == other_sum)) {
      bar2->push_back(u);
    }
  });
}

void MisState::LogTransition(VertexId u) {
  DYNMIS_DCHECK(!status_[u]);
  const int c = count_[u];
  if (c >= 1 && c <= k_) transitions_.push_back(u);
}

void MisState::MoveIn(VertexId v) {
  DYNMIS_CHECK(g_->IsVertexAlive(v));
  DYNMIS_CHECK(!status_[v]);
  DYNMIS_CHECK_EQ(count_[v], 0);
  status_[v] = 1;
  ++solution_size_;
  ++status_ops_;
  if (status_observer_ != nullptr) {
    status_observer_(status_observer_ctx_, v, true);
  }
  g_->ForEachIncident(v, [&](VertexId u) {
    DYNMIS_DCHECK(!status_[u]);
    AddOwner(u, v);
    LogTransition(u);
  });
}

void MisState::MoveOut(VertexId v) {
  DYNMIS_CHECK(status_[v] != 0);
  DYNMIS_DCHECK(count_[v] == 0 && owners_[v] == OwnerSums{});
  status_[v] = 0;
  --solution_size_;
  ++status_ops_;
  if (status_observer_ != nullptr) {
    status_observer_(status_observer_ctx_, v, false);
  }
  g_->ForEachIncident(v, [&](VertexId u) {
    if (status_[u]) {
      // Transient both-in-I situation (edge-insert handling): v gains u as
      // a solution neighbour.
      AddOwner(v, u);
    } else {
      RemoveOwner(u, v);
      LogTransition(u);
    }
  });
  LogTransition(v);
}

void MisState::OnEdgeAdded(VertexId a, VertexId b) {
  DYNMIS_DCHECK(g_->HasEdge(a, b));
  if (status_[a] == status_[b]) return;  // Both in I: caller must MoveOut.
  const VertexId in_i = status_[a] ? a : b;
  const VertexId other = status_[a] ? b : a;
  AddOwner(other, in_i);
  LogTransition(other);
}

void MisState::OnEdgeRemoving(VertexId a, VertexId b) {
  DYNMIS_DCHECK(!(status_[a] && status_[b]));
  if (status_[a] == status_[b]) return;
  const VertexId in_i = status_[a] ? a : b;
  const VertexId other = status_[a] ? b : a;
  RemoveOwner(other, in_i);
  LogTransition(other);
}

void MisState::OnVertexRemoving(VertexId v) {
  DYNMIS_CHECK(!status_[v]);
  count_[v] = 0;
  owners_[v] = OwnerSums{};
}

void MisState::SaveTo(SnapshotWriter* w) const {
  DYNMIS_CHECK(transitions_.empty());  // Quiescent-point contract.
  w->BeginSection("mis");
  w->PutI32(k_);
  w->PutI64(solution_size_);
  w->PutU8Array(status_);
  w->EndSection();
}

bool MisState::LoadFrom(SnapshotReader* r) {
  if (!r->OpenSection("mis")) return false;
  auto fail = [&](const char* message) {
    r->Fail(std::string("snapshot: mis: ") + message);
    return false;
  };

  const int32_t k = r->GetI32();
  const int64_t solution_size = r->GetI64();
  if (!r->ok()) return false;
  if (k != k_) {
    return fail("maintainer parameter k does not match the snapshot");
  }
  const size_t vcap = static_cast<size_t>(g_->VertexCapacity());
  std::vector<uint8_t> status;
  if (!r->GetU8Array(&status)) return false;
  if (!r->AtSectionEnd()) return fail("trailing bytes after the last field");
  if (status.size() != vcap) {
    return fail("status array size does not match the graph");
  }
  int64_t counted = 0;
  for (size_t v = 0; v < vcap; ++v) {
    if (status[v] > 1) return fail("status value out of range");
    if (status[v] != 0) {
      if (!g_->IsVertexAlive(static_cast<VertexId>(v))) {
        return fail("dead vertex marked in solution");
      }
      ++counted;
    }
  }
  if (counted != solution_size) return fail("solution size mismatch");

  // Independence and maximality against the restored topology: status is
  // trusted by every update handler (MoveIn aborts on a violated
  // precondition), so a CRC-valid but semantically corrupt section must be
  // rejected here, not discovered mid-update. The same O(n + m) pass
  // derives the counts and owner sums.
  std::vector<int32_t> count(vcap, 0);
  std::vector<OwnerSums> owners(vcap);
  for (size_t v = 0; v < vcap; ++v) {
    if (!g_->IsVertexAlive(static_cast<VertexId>(v))) continue;
    int solution_neighbors = 0;
    g_->ForEachIncident(static_cast<VertexId>(v), [&](VertexId u) {
      if (status[u]) {
        ++solution_neighbors;
        owners[v].Add(u);
      }
    });
    if (status[v] != 0) {
      if (solution_neighbors != 0) return fail("solution is not independent");
    } else if (solution_neighbors == 0) {
      // Every maintainer keeps its solution maximal at quiescent points; an
      // uncovered vertex would never be repaired after load (updates only
      // react to changes) and hard-aborts a later CheckConsistency.
      return fail("solution is not maximal");
    } else {
      count[v] = solution_neighbors;
    }
  }

  status_ = std::move(status);
  count_ = std::move(count);
  owners_ = std::move(owners);
  solution_size_ = solution_size;
  transitions_.clear();
  return true;
}

size_t MisState::MemoryUsageBytes() const {
  return VectorBytes(status_) + VectorBytes(count_) + VectorBytes(owners_) +
         VectorBytes(transitions_);
}

void MisState::CheckConsistency(bool expect_maximal) const {
  int64_t in_solution = 0;
  for (VertexId v = 0; v < g_->VertexCapacity(); ++v) {
    if (!g_->IsVertexAlive(v)) continue;
    int solution_neighbors = 0;
    OwnerSums sums;
    g_->ForEachIncident(v, [&](VertexId u) {
      if (status_[u]) {
        ++solution_neighbors;
        sums.Add(u);
      }
    });
    DYNMIS_CHECK(owners_[v] == sums);
    if (status_[v]) {
      ++in_solution;
      DYNMIS_CHECK_EQ(solution_neighbors, 0);  // Independence.
      DYNMIS_CHECK_EQ(count_[v], 0);
    } else {
      DYNMIS_CHECK_EQ(count_[v], solution_neighbors);
      if (expect_maximal) DYNMIS_CHECK_GE(count_[v], 1);  // Maximality.
    }
  }
  DYNMIS_CHECK_EQ(in_solution, solution_size_);
}

}  // namespace dynmis
