// CandidateList: per-owner candidate lists, intrusive doubly-linked through
// flat per-vertex link slots. A vertex is a candidate under at most one
// owner at a time, so enqueueing is an O(1) relink with no heap traffic —
// this is DySwap's C1 queue (its per-pair C2 buckets stay separate because
// their membership is keyed by pair, not by a single owner).
//
// Entries are not unlinked when they go stale; consumers re-validate on
// Consume(), mirroring the transition-log contract.

#ifndef DYNMIS_SRC_CORE_CANDIDATE_LIST_H_
#define DYNMIS_SRC_CORE_CANDIDATE_LIST_H_

#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/util/check.h"
#include "src/util/memory.h"

namespace dynmis {

class CandidateList {
 public:
  // Grows the per-vertex slots to `vcap`; never shrinks.
  void EnsureCapacity(size_t vcap) {
    if (owner_.size() < vcap) {
      owner_.resize(vcap, kInvalidVertex);
      head_.resize(vcap, kInvalidVertex);
      next_.resize(vcap, kInvalidVertex);
      prev_.resize(vcap, kInvalidVertex);
    }
  }

  // The owner `u` is currently enqueued under, or kInvalidVertex.
  VertexId OwnerOf(VertexId u) const { return owner_[u]; }

  // Links `u` under `owner`, relinking from any previous owner. Returns
  // false when `u` was already enqueued under `owner` (no-op).
  bool Enqueue(VertexId owner, VertexId u) {
    if (owner_[u] == owner) return false;
    if (owner_[u] != kInvalidVertex) Unlink(u);
    owner_[u] = owner;
    next_[u] = head_[owner];
    prev_[u] = kInvalidVertex;
    if (head_[owner] != kInvalidVertex) prev_[head_[owner]] = u;
    head_[owner] = u;
    return true;
  }

  // Removes `u` from its current owner's list (requires one).
  void Unlink(VertexId u) {
    const VertexId owner = owner_[u];
    DYNMIS_DCHECK(owner != kInvalidVertex);
    const VertexId prev = prev_[u];
    const VertexId next = next_[u];
    if (prev != kInvalidVertex) {
      next_[prev] = next;
    } else {
      head_[owner] = next;
    }
    if (next != kInvalidVertex) prev_[next] = prev;
    owner_[u] = kInvalidVertex;
  }

  // Consumes v's list: calls fn(u) for every member (which may be stale —
  // the callback must re-validate) and leaves the list empty.
  template <typename Fn>
  void Consume(VertexId v, Fn&& fn) {
    for (VertexId u = head_[v]; u != kInvalidVertex;) {
      const VertexId next = next_[u];
      owner_[u] = kInvalidVertex;
      fn(u);
      u = next;
    }
    head_[v] = kInvalidVertex;
  }

  // Clears every candidate slot of a deleted (possibly recycled) vertex id:
  // drops v's own list and removes v from any owner's list.
  void OnVertexReset(VertexId v) {
    Consume(v, [](VertexId) {});
    if (owner_[v] != kInvalidVertex) Unlink(v);
  }

  size_t MemoryUsageBytes() const {
    return VectorBytes(owner_) + VectorBytes(head_) + VectorBytes(next_) +
           VectorBytes(prev_);
  }

 private:
  // owner_[u]: owner u is enqueued under. head_[v]: first member of v's
  // list. next_/prev_: the intrusive links, indexed by candidate vertex.
  std::vector<VertexId> owner_;
  std::vector<VertexId> head_;
  std::vector<VertexId> next_, prev_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_CANDIDATE_LIST_H_
