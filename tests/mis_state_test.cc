// Direct unit tests of MisState: count and owner-sum bookkeeping, tightness
// sets, transition logging, edge hooks, and memory that does not follow the
// edge capacity.

#include "src/core/solution.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/util/random.h"

namespace dynmis {
namespace {

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(MisStateTest, MoveInUpdatesCounts) {
  DynamicGraph g = StarGraph(3).ToDynamic();  // Hub 0, leaves 1..3.
  MisState state(&g, /*k=*/1);
  state.MoveIn(0);
  EXPECT_TRUE(state.InSolution(0));
  EXPECT_EQ(state.SolutionSize(), 1);
  for (VertexId leaf : {1, 2, 3}) {
    EXPECT_EQ(state.Count(leaf), 1);
    EXPECT_EQ(state.OwnerOf(leaf), 0);
  }
  EXPECT_TRUE(state.HasBar1(0));
  std::vector<VertexId> bar1;
  state.CollectBar1(0, &bar1);
  EXPECT_EQ(Sorted(bar1), (std::vector<VertexId>{1, 2, 3}));
}

TEST(MisStateTest, MoveOutRestoresState) {
  DynamicGraph g = StarGraph(3).ToDynamic();
  MisState state(&g, 1);
  state.MoveIn(0);
  state.MoveOut(0);
  EXPECT_FALSE(state.InSolution(0));
  EXPECT_EQ(state.SolutionSize(), 0);
  EXPECT_EQ(state.Count(0), 0);
  for (VertexId leaf : {1, 2, 3}) EXPECT_EQ(state.Count(leaf), 0);
  state.CheckConsistency(/*expect_maximal=*/false);
}

TEST(MisStateTest, TransitionLogRecordsTightness) {
  DynamicGraph g = PathGraph(3).ToDynamic();  // 0-1-2.
  MisState state(&g, 1);
  state.DiscardTransitions();
  state.MoveIn(1);
  std::vector<VertexId> transitions;
  state.DrainTransitions([&](VertexId u) { transitions.push_back(u); });
  EXPECT_EQ(Sorted(transitions), (std::vector<VertexId>{0, 2}));
  transitions.clear();
  state.DrainTransitions([&](VertexId u) { transitions.push_back(u); });
  EXPECT_TRUE(transitions.empty());  // Drained.
}

TEST(MisStateTest, Bar2TrackingWithKTwo) {
  // Square 0-1-2-3-0: solution {0, 2}; vertices 1 and 3 are 2-tight.
  DynamicGraph g = CycleGraph(4).ToDynamic();
  MisState state(&g, /*k=*/2);
  state.MoveIn(0);
  state.MoveIn(2);
  std::vector<VertexId> bar1, bar2;
  state.CollectBar1And2(0, kInvalidVertex, &bar1, &bar2);
  EXPECT_TRUE(bar1.empty());
  EXPECT_FALSE(state.HasBar1(0));
  EXPECT_EQ(Sorted(bar2), (std::vector<VertexId>{1, 3}));
  std::vector<VertexId> pair;
  state.CollectBar1And2(0, 2, &bar1, &pair);
  EXPECT_EQ(Sorted(pair), (std::vector<VertexId>{1, 3}));
  pair.clear();
  state.CollectBar1And2(0, 1, &bar1, &pair);  // 1 is not a solution vertex.
  EXPECT_TRUE(pair.empty());
  VertexId a, b;
  state.OwnersOf2(1, &a, &b);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 2);
  state.CheckConsistency(/*expect_maximal=*/true);
}

TEST(MisStateTest, EdgeHooksMaintainCounts) {
  DynamicGraph g(4);
  MisState state(&g, 2);
  state.MoveIn(0);
  state.MoveIn(1);
  // Connect 2 to both solution vertices.
  g.AddEdge(0, 2);
  state.OnEdgeAdded(0, 2);
  EXPECT_EQ(state.Count(2), 1);
  g.AddEdge(1, 2);
  state.OnEdgeAdded(1, 2);
  EXPECT_EQ(state.Count(2), 2);
  state.CheckConsistency(false);
  // Remove one: back to 1-tight, relinked into bar1.
  state.OnEdgeRemoving(1, 2);
  g.RemoveEdgeBetween(1, 2);
  EXPECT_EQ(state.Count(2), 1);
  EXPECT_EQ(state.OwnerOf(2), 0);
  state.CheckConsistency(false);
}

TEST(MisStateTest, VertexRemovalHookDetaches) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  MisState state(&g, 1);
  state.MoveIn(1);
  state.MoveIn(2);
  EXPECT_EQ(state.Count(0), 2);
  state.OnVertexRemoving(0);
  g.RemoveVertex(0);
  EXPECT_EQ(state.SolutionSize(), 2);
  state.CheckConsistency(false);
}

TEST(MisStateTest, BothEndpointsInSolutionTransient) {
  DynamicGraph g(2);
  MisState state(&g, 1);
  state.MoveIn(0);
  state.MoveIn(1);
  g.AddEdge(0, 1);
  state.OnEdgeAdded(0, 1);  // No-op: caller must resolve.
  state.MoveOut(1);      // Handles the neighbour-in-solution case.
  EXPECT_EQ(state.Count(1), 1);
  EXPECT_EQ(state.OwnerOf(1), 0);
  state.CheckConsistency(true);
}

TEST(MisStateTest, OwnerSumsMatchNeighbourhoodScansUnderChurn) {
  // Random MoveIn/MoveOut and edge insert/delete churn over every id up to
  // the top of the vertex capacity. After each step the O(1) owner queries
  // must name exactly the solution neighbours a plain scan finds, and
  // CheckConsistency recomputes and compares every vertex's sums.
  Rng rng(29);
  const int n = 300;
  DynamicGraph g = ErdosRenyiGnm(n, 900, &rng).ToDynamic();
  ASSERT_EQ(g.VertexCapacity(), n);
  MisState state(&g, /*k=*/2);
  auto random_vertex = [&] {
    return static_cast<VertexId>(rng.NextInRange(0, n - 1));
  };
  int high_id_owners = 0;  // Count-1/2 owners found in the top 10% of ids.
  auto check_owners = [&](int step) {
    for (VertexId v = 0; v < n; ++v) {
      if (state.InSolution(v)) continue;
      std::vector<VertexId> scanned;
      g.ForEachIncident(v, [&](VertexId w) {
        if (state.InSolution(w)) scanned.push_back(w);
      });
      std::sort(scanned.begin(), scanned.end());
      ASSERT_EQ(state.Count(v), static_cast<int>(scanned.size()))
          << "step " << step << " vertex " << v;
      std::vector<VertexId> listed;
      state.ForEachSolutionNeighbor(v,
                                    [&](VertexId w) { listed.push_back(w); });
      ASSERT_EQ(Sorted(listed), scanned) << "step " << step << " vertex " << v;
      if (scanned.size() == 1 || scanned.size() == 2) {
        if (scanned.back() >= n - n / 10) ++high_id_owners;
      }
      if (scanned.size() == 1) {
        ASSERT_EQ(state.OwnerOf(v), scanned[0]) << "step " << step;
      } else if (scanned.size() == 2) {
        VertexId a, b;
        state.OwnersOf2(v, &a, &b);
        ASSERT_EQ(a, scanned[0]) << "step " << step << " vertex " << v;
        ASSERT_EQ(b, scanned[1]) << "step " << step << " vertex " << v;
      }
    }
    state.CheckConsistency(/*expect_maximal=*/false);
  };
  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.NextBounded(4));
    const VertexId u = random_vertex();
    const VertexId v = random_vertex();
    if (op == 0) {
      if (!state.InSolution(u) && state.Count(u) == 0) state.MoveIn(u);
    } else if (op == 1) {
      if (state.InSolution(u)) state.MoveOut(u);
    } else if (op == 2) {
      if (u != v && !g.HasEdge(u, v)) {
        const bool both_in = state.InSolution(u) && state.InSolution(v);
        g.AddEdge(u, v);
        state.OnEdgeAdded(u, v);
        if (both_in) state.MoveOut(u);
      }
    } else {
      if (g.HasEdge(u, v)) {
        state.OnEdgeRemoving(u, v);
        g.RemoveEdgeBetween(u, v);
      }
    }
    state.DiscardTransitions();
    check_owners(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(high_id_owners, 0);
}

TEST(MisStateTest, MemoryIsFlatWhenEdgeCountDoubles) {
  // The state is per-vertex only: doubling the graph's edge storage must
  // not grow it (the former per-edge link arrays doubled with it).
  Rng rng(4);
  const int n = 200;
  DynamicGraph g = ErdosRenyiGnm(n, 800, &rng).ToDynamic();
  MisState state(&g, /*k=*/2);
  for (VertexId v = 0; v < n; ++v) {
    if (!state.InSolution(v) && state.Count(v) == 0) state.MoveIn(v);
  }
  state.DiscardTransitions();
  const size_t before = state.MemoryUsageBytes();
  const int64_t edges = g.NumEdges();
  while (g.NumEdges() < 2 * edges) {
    const VertexId u = static_cast<VertexId>(rng.NextInRange(0, n - 1));
    const VertexId v = static_cast<VertexId>(rng.NextInRange(0, n - 1));
    if (u == v || g.HasEdge(u, v)) continue;
    const bool both_in = state.InSolution(u) && state.InSolution(v);
    g.AddEdge(u, v);
    state.OnEdgeAdded(u, v);
    if (both_in) state.MoveOut(u);
    state.DiscardTransitions();
  }
  state.CheckConsistency(/*expect_maximal=*/false);
  EXPECT_EQ(state.MemoryUsageBytes(), before);
}

TEST(MisStateTest, SolutionListsMatchStatus) {
  DynamicGraph g = PathGraph(5).ToDynamic();
  MisState state(&g, 1);
  state.MoveIn(0);
  state.MoveIn(2);
  state.MoveIn(4);
  EXPECT_EQ(state.Solution(), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(state.SolutionSize(), 3);
}

}  // namespace
}  // namespace dynmis
