// KSwapMaintainer: the paper's general maintenance framework (Algorithm 1)
// for a user-specified k, used by the Fig 9 "effect of k" experiment with
// k in {1, 2, 3, 4} and by cross-checking tests against DySwap.
//
// It shares the SwapMaintainer update skeleton with DySwap, the production
// instance for k = 1, 2, and trades DySwap's tight per-case search for
// generality:
//
//  * Candidates are vertex witnesses u with count(u) in [1..k]; a witness
//    seeds the set S = I(u) (its solution neighbours).
//  * TrySwap(S) collects T = bar_I<=|S|(S) and searches G[T] exhaustively
//    (with a node cap) for an independent set of size |S|+1; success swaps
//    S out and the found set in, then extends to maximal.
//  * If S admits no swap and |S| < k, candidate supersets S' = I(y) for
//    (|S|+1)-tight vertices y around S are explored (the framework's
//    bottom-up candidate expansion, lines 11-12 of Algorithm 1).
//
// For k <= 2 this coverage matches DySwap (and tests cross-check exact
// j-swap-freeness). For k >= 3 the exhaustive search is capped
// (kSearchNodeCap) so a pathological dense neighbourhood cannot stall an
// update; within the cap the maintained set is k-maximal. Updates are
// restored one at a time: ApplyBatch keeps the default per-op path.

#ifndef DYNMIS_SRC_CORE_K_SWAP_H_
#define DYNMIS_SRC_CORE_K_SWAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/swap_maintainer.h"
#include "src/util/stamped_hash_set.h"

namespace dynmis {

class KSwapMaintainer final : public SwapMaintainer {
 public:
  KSwapMaintainer(DynamicGraph* g, int k, MaintainerConfig options = {});

  size_t MemoryUsageBytes() const override;
  std::string Name() const override;

  struct Stats {
    int64_t swaps = 0;          // All j-swaps performed, any j.
    int64_t sets_examined = 0;  // TrySwap invocations.
    int64_t search_nodes = 0;   // Independent-set search tree nodes.
  };
  const Stats& stats() const { return stats_; }

 private:
  // Upper bound on search-tree nodes per TrySwap call.
  static constexpr int64_t kSearchNodeCap = 100000;

  void OnTight(VertexId u) override { PushWitness(u); }
  void OnFreedEdge(VertexId u, VertexId v) override;
  void Restore() override;
  void GrowSlots(size_t vcap) override { in_worklist_.resize(vcap, 0); }
  void ResetSlots(VertexId v) override { in_worklist_[v] = 0; }
  bool QueuesEmpty() const override { return worklist_.empty(); }

  void PushWitness(VertexId u);
  void DrainTransitions();
  void ProcessWorklist();
  // Attempts a |S|-swap for solution set S; returns true if performed.
  // On failure recursively expands to supersets while |S| < k. `visited_`
  // dedups examined sets within one cascade; callers outside ProcessWorklist
  // must Clear() it first.
  bool TrySwapOrExpand(std::vector<VertexId> s);
  // Collects bar_I<=|S|(S): non-solution vertices with all solution
  // neighbours inside S.
  void CollectRegion(const std::vector<VertexId>& s, std::vector<VertexId>* t);
  // Exhaustive (capped) search for an independent set of size `target` in
  // the subgraph induced by `t`. Fills `result` and returns true on success.
  bool FindIndependentSubset(const std::vector<VertexId>& t, int target,
                             std::vector<VertexId>* result);
  static uint64_t HashSet(const std::vector<VertexId>& s);

  std::vector<VertexId> worklist_;
  std::vector<uint8_t> in_worklist_;
  // Scratch for FindIndependentSubset: position of a vertex in the current
  // search order, -1 outside a search.
  std::vector<VertexId> position_;
  // Swap-set dedup within one restoration cascade, reused across updates.
  StampedHashSet visited_;

  Stats stats_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_K_SWAP_H_
