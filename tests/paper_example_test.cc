// The paper's running example (Fig 4, Examples 1-3), reconstructed from the
// constraints stated in the text (0-indexed: paper's v1..v10 are 0..9):
//
//   edges: (v1,v3) (v2,v3) (v2,v4) (v4,v5) (v5,v6) (v6,v8) (v3,v7) (v7,v9)
//          (v9,v10); update: insert (v3,v4).
//   I = {v3, v4, v6, v9}; Fig 4(b)'s structure: bar1(v3) = {v1},
//   bar1(v6) = {v8}, bar_I2(v3,v4) = {v2}, bar_I2(v4,v6) = {v5},
//   bar_I2(v3,v9) = {v7}, bar1(v9) = {v10}.
//
// The test validates our reconstruction against every structural fact the
// paper states, then exercises the algorithms on it.

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/dy_swap.h"
#include "src/core/solution.h"
#include "src/static_mis/brute_force.h"
#include "tests/verifiers.h"

namespace dynmis {
namespace {

// Paper vertex vK is index K-1.
constexpr VertexId V(int k) { return k - 1; }

DynamicGraph Fig4Graph() {
  DynamicGraph g(10);
  g.AddEdge(V(1), V(3));
  g.AddEdge(V(2), V(3));
  g.AddEdge(V(2), V(4));
  g.AddEdge(V(4), V(5));
  g.AddEdge(V(5), V(6));
  g.AddEdge(V(6), V(8));
  g.AddEdge(V(3), V(7));
  g.AddEdge(V(7), V(9));
  g.AddEdge(V(9), V(10));
  return g;
}

const std::vector<VertexId> kPaperSolution = {V(3), V(4), V(6), V(9)};

TEST(PaperExampleTest, Fig4bInformationMatches) {
  DynamicGraph g = Fig4Graph();
  MisState state(&g, /*k=*/2);
  for (VertexId v : kPaperSolution) state.MoveIn(v);

  // Counts as implied by Fig 4(b).
  EXPECT_EQ(state.Count(V(1)), 1);
  EXPECT_EQ(state.Count(V(2)), 2);
  EXPECT_EQ(state.Count(V(5)), 2);
  EXPECT_EQ(state.Count(V(7)), 2);
  EXPECT_EQ(state.Count(V(8)), 1);
  EXPECT_EQ(state.Count(V(10)), 1);

  // "v1 and v8 [are] only recorded in bar_I1(v3) and bar_I1(v6)".
  std::vector<VertexId> bar1_v3, bar1_v6;
  state.CollectBar1(V(3), &bar1_v3);
  state.CollectBar1(V(6), &bar1_v6);
  EXPECT_EQ(bar1_v3, std::vector<VertexId>{V(1)});
  EXPECT_EQ(bar1_v6, std::vector<VertexId>{V(8)});

  // "bar_I<=2(v3, v4) will be collected by merging bar_I2(v3, v4) and
  // bar_I1(v3)" = {v2} u {v1}.
  std::vector<VertexId> bar1, pair34;
  state.CollectBar1And2(V(3), V(4), &bar1, &pair34);
  EXPECT_EQ(bar1, std::vector<VertexId>{V(1)});
  EXPECT_EQ(pair34, std::vector<VertexId>{V(2)});
  // "bar_I<=2(v4, v6) is returned as bar_I2(v4, v6) u bar_I1(v6)" =
  // {v5} u {v8}.
  std::vector<VertexId> pair46;
  bar1.clear();
  state.CollectBar1And2(V(6), V(4), &bar1, &pair46);
  EXPECT_EQ(bar1, std::vector<VertexId>{V(8)});
  EXPECT_EQ(pair46, std::vector<VertexId>{V(5)});
  state.CheckConsistency(/*expect_maximal=*/true);
}

TEST(PaperExampleTest, PaperSolutionIsMaximalButAdmitsTwoSwap) {
  DynamicGraph g = Fig4Graph();
  EXPECT_TRUE(testing_util::IsMaximalIndependentSet(g, kPaperSolution));
  EXPECT_FALSE(testing_util::HasSwapUpTo(g, kPaperSolution, 1));
  // Example 3's 2-swap {v3, v9} -> {v1, v7, v10} already exists in the
  // initial state (the paper runs it after the edge insertion).
  EXPECT_TRUE(testing_util::HasSwapUpTo(g, kPaperSolution, 2));
}

TEST(PaperExampleTest, DyTwoSwapReachesTheOptimum) {
  DynamicGraph g = Fig4Graph();
  const int alpha = BruteForceAlpha(StaticGraph::FromDynamic(g));
  DySwap algo(&g, 2);
  algo.Initialize(kPaperSolution);
  // Initialization already applies Example 3's 2-swap: v1, v7 in, v10 in.
  EXPECT_EQ(algo.SolutionSize(), alpha);
  EXPECT_FALSE(testing_util::HasSwapUpTo(g, algo.Solution(), 2));
}

TEST(PaperExampleTest, EdgeInsertionCascade) {
  // The paper's update: insert (v3, v4) while both are in I.
  for (const bool use_two_swap : {false, true}) {
    DynamicGraph g = Fig4Graph();
    DySwap algo(&g, use_two_swap ? 2 : 1);
    algo.Initialize(kPaperSolution);
    const int64_t before = algo.SolutionSize();
    algo.InsertEdge(V(3), V(4));
    // The cascade must keep the solution k-maximal, and the size can drop
    // by at most... in fact the swaps recover everything here.
    EXPECT_FALSE(
        testing_util::HasSwapUpTo(g, algo.Solution(), use_two_swap ? 2 : 1));
    EXPECT_GE(algo.SolutionSize(), before - 1);
    // Fig 4(d): with k = 2 the final solution still has 5 vertices.
    const int alpha = BruteForceAlpha(StaticGraph::FromDynamic(g));
    if (use_two_swap) {
      EXPECT_EQ(algo.SolutionSize(), alpha);
    }
  }
}

}  // namespace
}  // namespace dynmis
