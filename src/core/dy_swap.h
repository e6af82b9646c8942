// DySwap: the paper's DyOneSwap (Algorithm 2, k = 1) and DyTwoSwap
// (Algorithm 3, k = 2) as one instance of the SwapMaintainer framework.
//
// DyOneSwap maintains a 1-maximal independent set in O(m_t) worst-case
// time per update cascade, which yields a (Delta/2 + 1)-approximate MaxIS
// at all times (Theorem 2/6), and a parameter-dependent constant
// approximation on power-law bounded graphs (Theorem 4). Its invariant:
// for every solution vertex v, G[bar1(v)] is a clique, where bar1(v) is
// the set of v's 1-tight neighbours. Updates enqueue candidate pairs
// (v, C(v)) into C1 - C(v) holds vertices newly added to bar1(v) - and
// the processing loop checks |N[u] cap bar1(v)| < |bar1(v)| for each
// candidate u; a failed clique test triggers the 1-swap: v leaves, u
// enters, and every freed vertex of bar1(v) enters (so the solution
// strictly grows).
//
// DyTwoSwap maintains a 2-maximal independent set. The worst-case ratio is
// the same (Theorem 3 shows larger k cannot improve it), but eliminating
// 2-swaps yields measurably larger solutions in practice at near-linear
// expected cost on power-law bounded graphs (Lemma 2). It is DyOneSwap
// plus a C2 layer of per-solution-pair buckets, drained only when C1 is
// empty: bottom-up processing, so when a pair S = {u, v} is examined the
// solution is already 1-maximal. This justifies the paper's refinement of
// the swap-in search: a valid 2-swap needs an independent triple
// {x, y, z} with x in bar_I2(S), y in bar_I1(u) u bar_I2(S) \ N[x] and
// z in bar_I1(v) u bar_I2(S) \ N[x].
//
// Both layers are CandidateLists (candidate_list.h): C1's owners are
// solution vertices, C2's are indices into a pool of pair buckets. At k = 1
// nothing of the C2 layer runs: no C2 enqueue, no bar2 fallback after a
// failed 1-swap, deletion case ii.a only, and the C2 arrays stay unsized.

#ifndef DYNMIS_SRC_CORE_DY_SWAP_H_
#define DYNMIS_SRC_CORE_DY_SWAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/candidate_list.h"
#include "src/core/swap_maintainer.h"

namespace dynmis {

class DySwap final : public SwapMaintainer {
 public:
  // `k` is 1 (DyOneSwap) or 2 (DyTwoSwap); `options.k` is not read.
  DySwap(DynamicGraph* g, int k, MaintainerConfig options = {});

  // Deferred-restoration batch processing (see DynamicMisMaintainer): the
  // handlers still drain the transition log into the queues after every
  // update, but the queues are processed once, at the end of the batch.
  std::vector<VertexId> ApplyBatch(
      const std::vector<GraphUpdate>& updates) override;

  size_t MemoryUsageBytes() const override;
  std::string Name() const override;

  struct Stats {
    int64_t one_swaps = 0;
    int64_t two_swaps = 0;
    int64_t candidates_processed = 0;
    int64_t pair_candidates_processed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void OnTight(VertexId u) override;
  void OnFreedEdge(VertexId u, VertexId v) override;
  void Restore() override;
  void GrowSlots(size_t vcap) override;
  void ResetSlots(VertexId v) override;
  bool QueuesEmpty() const override { return c1_.Empty() && c2_.Empty(); }

  void EnqueueC2(VertexId a, VertexId b, VertexId x);
  void DrainTransitions();
  void ProcessQueues();
  void FindOneSwapStep();
  void FindTwoSwapStep();
  // Snapshot arguments are borrowed scratch (consumed by ExtendSolution).
  void PerformOneSwap(VertexId v, VertexId u,
                      std::vector<VertexId>* bar1_snapshot);
  void PerformTwoSwap(VertexId x, VertexId y, VertexId in_a, VertexId in_b,
                      VertexId in_c, std::vector<VertexId>* region_snapshot);
  // Returns the chain link slot (&c2_head_[a] or an active bucket's `next`
  // field) whose target is the bucket for pair {a < b}; the terminating
  // slot (*slot == -1) when the pair has no active bucket. The returned
  // pointer is invalidated by any c2_pool_ growth.
  int32_t* FindBucketLink(VertexId a, VertexId b);

  // True while inside ApplyBatch: Restore defers ProcessQueues to batch end.
  bool deferred_ = false;

  // C1: candidate lists owned by solution vertices.
  CandidateList c1_;

  // C2 (k = 2 only): candidate lists owned by per-solution-pair buckets
  // drawn from a reusable pool, so a count-2 transition costs no hash probe
  // and no allocation. A bucket lives from its first candidate until
  // FindTwoSwapStep pops it; lookup is a walk of the (nearly always
  // single-entry) chain of active buckets sharing the pair's smaller
  // endpoint.
  struct PairBucket {
    VertexId x = kInvalidVertex;  // Smaller endpoint of the pair.
    VertexId y = kInvalidVertex;  // Larger endpoint.
    int32_t next = -1;  // Next active bucket with the same x, -1 at end.
  };
  std::vector<PairBucket> c2_pool_;
  std::vector<int32_t> c2_free_;  // Pool indices available for reuse.
  // c2_head_[v]: first active bucket whose smaller endpoint is v, -1 none.
  std::vector<int32_t> c2_head_;
  CandidateList c2_;  // Owners are c2_pool_ indices.

  // Reusable scratch buffers (grow to the workload's high-water mark, then
  // stay put).
  std::vector<VertexId> kept_;  // Validated candidates.
  std::vector<VertexId> bar1_scratch_;
  std::vector<VertexId> bar2_scratch_;
  std::vector<VertexId> bar1x_, bar1y_, bar2s_;  // FindTwoSwapStep sets.
  std::vector<VertexId> cy_, cz_;
  std::vector<VertexId> region_;

  Stats stats_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_DY_SWAP_H_
