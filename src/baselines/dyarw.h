// DyARW: the dynamic adaptation of the ARW local search used as a baseline
// in the paper's evaluation. Like DyOneSwap it maintains a 1-maximal
// independent set (so solution quality tracks DyOneSwap almost exactly),
// but it follows the original ARW implementation style: each vertex keeps a
// *sorted* adjacency array and the clique tests are double-pointer scans
// over sorted lists. Maintaining the ordered structure under updates
// (binary-search insert/erase) is what makes DyARW measurably slower than
// DyOneSwap, which keeps no ordered structure: its clique test marks
// bar1(v) and scans each candidate's unsorted adjacency once - the effect
// the paper reports.

#ifndef DYNMIS_SRC_BASELINES_DYARW_H_
#define DYNMIS_SRC_BASELINES_DYARW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dynmis/maintainer.h"

namespace dynmis {

class DyArw : public DynamicMisMaintainer {
 public:
  explicit DyArw(DynamicGraph* g);

  void Initialize(const std::vector<VertexId>& initial) override;

  void InsertEdge(VertexId u, VertexId v) override;
  void DeleteEdge(VertexId u, VertexId v) override;
  VertexId InsertVertex(const std::vector<VertexId>& neighbors) override;
  void DeleteVertex(VertexId v) override;

  bool InSolution(VertexId v) const override { return status_[v] != 0; }
  int64_t SolutionSize() const override { return size_; }
  std::vector<VertexId> Solution() const override;
  void CollectSolution(std::vector<VertexId>* out) const override;
  size_t MemoryUsageBytes() const override;
  std::string Name() const override { return "DyARW"; }

  // Test hook: asserts independence, maximality and count correctness.
  void CheckConsistency() const;

 private:
  void EnsureCapacity();
  void ResetVertexSlots(VertexId v);
  void SortedInsert(VertexId v, VertexId u);
  void SortedErase(VertexId v, VertexId u);
  VertexId OwnerOf(VertexId u) const;
  void MoveIn(VertexId v);
  void MoveOut(VertexId v);
  void ExtendAround(const std::vector<VertexId>& candidates);
  void EnqueueCandidate(VertexId owner, VertexId u);
  void CollectTightAround(VertexId v);
  void ProcessQueue();

  DynamicGraph* g_;
  // Sorted adjacency mirror (the "ordered structure").
  std::vector<std::vector<VertexId>> sorted_adj_;
  std::vector<uint8_t> status_;
  std::vector<int32_t> count_;
  int64_t size_ = 0;

  std::vector<VertexId> queue_;
  std::vector<uint8_t> in_queue_;
  std::vector<std::vector<VertexId>> cand_of_;
  std::vector<VertexId> cand_owner_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_BASELINES_DYARW_H_
