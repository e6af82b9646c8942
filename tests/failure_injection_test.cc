// Failure injection: the library's contract is that API misuse aborts with
// a DYNMIS_CHECK (no exceptions, no undefined behaviour). These death tests
// pin down the checked preconditions.

#include "gtest/gtest.h"
#include "src/core/dy_swap.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/generators.h"

namespace dynmis {
namespace {

using DeathTest = ::testing::Test;

TEST(FailureInjectionTest, RemoveMissingEdgeAborts) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  EXPECT_FALSE(g.RemoveEdgeBetween(1, 2));  // Graceful form returns false.
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  EXPECT_DEATH(algo.DeleteEdge(1, 2), "DYNMIS_CHECK");
}

TEST(FailureInjectionTest, RemoveDeadVertexAborts) {
  DynamicGraph g(3);
  g.RemoveVertex(1);
  EXPECT_DEATH(g.RemoveVertex(1), "DYNMIS_CHECK");
}

TEST(FailureInjectionTest, SelfLoopAborts) {
  DynamicGraph g(3);
  EXPECT_DEATH(g.AddEdge(1, 1), "DYNMIS_CHECK");
}

TEST(FailureInjectionTest, EdgeToDeadVertexAborts) {
  DynamicGraph g(3);
  g.RemoveVertex(2);
  EXPECT_DEATH(g.AddEdge(0, 2), "DYNMIS_CHECK");
}

// The one-pass bulk build keeps AddEdge's preconditions.
TEST(FailureInjectionTest, BulkBuildChecksEveryEdge) {
  EXPECT_DEATH(DynamicGraph::FromEdges(3, {{0, 3}}), "DYNMIS_CHECK");
  EXPECT_DEATH(DynamicGraph::FromEdges(3, {{-1, 2}}), "DYNMIS_CHECK");
  EXPECT_DEATH(DynamicGraph::FromEdges(3, {{0, 1}, {2, 2}}), "DYNMIS_CHECK");
#ifndef NDEBUG
  EXPECT_DEATH(DynamicGraph::FromEdges(3, {{0, 1}, {1, 0}}), "DYNMIS_CHECK");
#endif
}

TEST(FailureInjectionTest, NonIndependentInitialSolutionAborts) {
  DynamicGraph g(2);
  g.AddEdge(0, 1);
  DySwap algo(&g, 2);
  EXPECT_DEATH(algo.Initialize({0, 1}), "DYNMIS_CHECK");
}

TEST(FailureInjectionTest, InitialSolutionWithDeadVertexAborts) {
  DynamicGraph g(3);
  g.RemoveVertex(1);
  DySwap algo(&g, 1);
  EXPECT_DEATH(algo.Initialize({1}), "DYNMIS_CHECK");
}

TEST(FailureInjectionTest, DeleteVertexTwiceThroughMaintainerAborts) {
  DynamicGraph g = PathGraph(4).ToDynamic();
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  algo.DeleteVertex(2);
  EXPECT_DEATH(algo.DeleteVertex(2), "DYNMIS_CHECK");
}

TEST(FailureInjectionTest, InsertVertexSelfNeighborAborts) {
  DynamicGraph g(2);
  DySwap algo(&g, 1);
  algo.InitializeEmpty();
  // The new vertex's id will be 2; listing it as its own neighbour is a
  // caller bug caught by the edge checks.
  EXPECT_DEATH(algo.InsertVertex({2}), "DYNMIS_CHECK");
}

}  // namespace
}  // namespace dynmis
