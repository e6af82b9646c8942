// serve::CheckSolution, the checker behind VERIFY, loadgen's client-side
// re-check and bench_driver's sharded block: a valid maximal solution
// passes, and each way a solution can fail independence or maximality is
// reported as such.

#include "src/serve/verify.h"

#include <vector>

#include "gtest/gtest.h"

namespace dynmis {
namespace serve {
namespace {

// Path 0-1-2-3-4 plus the isolated vertex 5; vertex 6 is deleted.
DynamicGraph PathGraph() {
  DynamicGraph g;
  for (int i = 0; i < 7; ++i) g.AddVertex();
  for (VertexId v = 0; v < 4; ++v) g.AddEdge(v, v + 1);
  g.RemoveVertex(6);
  return g;
}

struct Verdict {
  bool ok;
  bool independent;
  bool maximal;
};

Verdict Check(const DynamicGraph& g, const std::vector<VertexId>& solution) {
  Verdict verdict{};
  verdict.ok = CheckSolution(g, solution, &verdict.independent,
                             &verdict.maximal);
  return verdict;
}

TEST(CheckSolutionTest, AcceptsAMaximalIndependentSet) {
  const DynamicGraph g = PathGraph();
  const Verdict verdict = Check(g, {0, 2, 4, 5});
  EXPECT_TRUE(verdict.ok);
  EXPECT_TRUE(verdict.independent);
  EXPECT_TRUE(verdict.maximal);
  EXPECT_TRUE(Check(g, {5, 3, 1}).ok);  // Order does not matter.
}

TEST(CheckSolutionTest, RejectsADeadId) {
  const Verdict verdict = Check(PathGraph(), {0, 2, 4, 5, 6});
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.independent);
  EXPECT_FALSE(verdict.maximal);
}

TEST(CheckSolutionTest, RejectsOutOfRangeIds) {
  const DynamicGraph g = PathGraph();
  for (const VertexId bad : {VertexId{7}, VertexId{1000}, VertexId{-1}}) {
    const Verdict verdict = Check(g, {0, 2, 4, 5, bad});
    EXPECT_FALSE(verdict.ok) << bad;
    EXPECT_FALSE(verdict.independent) << bad;
  }
}

TEST(CheckSolutionTest, RejectsADuplicate) {
  const Verdict verdict = Check(PathGraph(), {0, 2, 4, 5, 2});
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.independent);
}

TEST(CheckSolutionTest, RejectsTwoAdjacentMembers) {
  const DynamicGraph g = PathGraph();
  const Verdict verdict = Check(g, {0, 2, 3, 5});
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.independent);
  EXPECT_FALSE(verdict.maximal);
  // The edge's lower endpoint listed last, after its upper one.
  EXPECT_FALSE(Check(g, {4, 5, 3, 1}).independent);
}

TEST(CheckSolutionTest, RejectsAnUncoveredVertex) {
  const DynamicGraph g = PathGraph();
  Verdict verdict = Check(g, {0, 2, 4});  // Isolated 5 is uncovered.
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.independent);
  EXPECT_FALSE(verdict.maximal);
  EXPECT_TRUE(Check(g, {0, 3, 5}).ok);  // 1, 2 and 4 are all covered.
  verdict = Check(g, {0, 4, 5});  // 2 has no member neighbour.
  EXPECT_TRUE(verdict.independent);
  EXPECT_FALSE(verdict.maximal);
  EXPECT_FALSE(Check(g, {}).maximal);
  EXPECT_TRUE(Check(g, {}).independent);
}

}  // namespace
}  // namespace serve
}  // namespace dynmis
