// CandidateList: per-owner candidate lists plus a LIFO queue of owners with
// pending candidates. Members are vertices; owners are any dense index - a
// solution vertex for DySwap's C1 layer, a pair-bucket pool index for its
// C2 layer - so member and owner slots are sized separately. A member sits
// under at most one owner at a time, and the lists are intrusive
// (doubly-linked through flat per-member slots), so enqueueing is an O(1)
// relink with no heap traffic once the slots are sized.
//
// An owner enters the queue when its first member arrives and carries a
// queued mark until PopOwner takes it, so it is queued once however many
// members arrive. Entries are not unlinked when they go stale; consumers
// re-validate on Consume(), mirroring the transition-log contract.

#ifndef DYNMIS_SRC_CORE_CANDIDATE_LIST_H_
#define DYNMIS_SRC_CORE_CANDIDATE_LIST_H_

#include <cstdint>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/util/check.h"
#include "src/util/memory.h"

namespace dynmis {

class CandidateList {
 public:
  static constexpr int32_t kNoOwner = -1;

  // Grow the member / owner slots to `n`; never shrink.
  void GrowMembers(size_t n) {
    if (owner_.size() < n) {
      owner_.resize(n, kNoOwner);
      next_.resize(n, kInvalidVertex);
      prev_.resize(n, kInvalidVertex);
    }
  }
  void GrowOwners(size_t n) {
    if (head_.size() < n) {
      head_.resize(n, kInvalidVertex);
      queued_.resize(n, 0);
    }
  }

  // The owner `u` is currently enqueued under, or kNoOwner.
  int32_t OwnerOf(VertexId u) const { return owner_[u]; }
  // Whether no owner waits in the queue (stale entries included).
  bool Empty() const { return queue_.empty(); }

  // Links `u` under `owner`, relinking from any previous owner, and queues
  // `owner` unless it is already queued. Returns false when `u` was already
  // enqueued under `owner` (no-op).
  bool Enqueue(int32_t owner, VertexId u) {
    if (owner_[u] == owner) return false;
    DropMember(u);
    owner_[u] = owner;
    next_[u] = head_[owner];
    prev_[u] = kInvalidVertex;
    if (head_[owner] != kInvalidVertex) prev_[head_[owner]] = u;
    head_[owner] = u;
    if (!queued_[owner]) {
      queued_[owner] = 1;
      queue_.push_back(owner);
    }
    return true;
  }

  // Pops the most recently queued owner and clears its mark (requires
  // !Empty()). Its list is left for Consume.
  int32_t PopOwner() {
    DYNMIS_DCHECK(!queue_.empty());
    const int32_t owner = queue_.back();
    queue_.pop_back();
    queued_[owner] = 0;
    return owner;
  }

  // Consumes `owner`'s list: calls fn(u) for every member, most recent
  // first (members may be stale - the callback must re-validate), and
  // leaves the list empty.
  template <typename Fn>
  void Consume(int32_t owner, Fn&& fn) {
    for (VertexId u = head_[owner]; u != kInvalidVertex;) {
      const VertexId next = next_[u];
      owner_[u] = kNoOwner;
      fn(u);
      u = next;
    }
    head_[owner] = kInvalidVertex;
  }

  // Removes `u` from its owner's list, if it has one.
  void DropMember(VertexId u) {
    const int32_t owner = owner_[u];
    if (owner == kNoOwner) return;
    const VertexId prev = prev_[u];
    const VertexId next = next_[u];
    if (prev != kInvalidVertex) {
      next_[prev] = next;
    } else {
      head_[owner] = next;
    }
    if (next != kInvalidVertex) prev_[next] = prev;
    owner_[u] = kNoOwner;
  }

  // Empties `owner`'s list and clears its queued mark (a deleted, possibly
  // recycled owner id). A queue entry stays behind and pops later with an
  // empty list.
  void DropOwner(int32_t owner) {
    Consume(owner, [](VertexId) {});
    queued_[owner] = 0;
  }

  size_t MemoryUsageBytes() const {
    return VectorBytes(owner_) + VectorBytes(next_) + VectorBytes(prev_) +
           VectorBytes(head_) + VectorBytes(queued_) + VectorBytes(queue_);
  }

 private:
  // Per member: owner_[u], the owner u is enqueued under; next_/prev_, the
  // intrusive links. Per owner: head_, the first member of its list;
  // queued_, its queue mark.
  std::vector<int32_t> owner_;
  std::vector<VertexId> next_, prev_;
  std::vector<VertexId> head_;
  std::vector<uint8_t> queued_;
  std::vector<int32_t> queue_;  // Owners with pending members (LIFO).
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_CANDIDATE_LIST_H_
