// Exact maximum independent set by branch-and-reduce: the library's stand-in
// for VCSolver (Akiba & Iwata), which the paper uses to obtain the exact
// independence number alpha(G) and the initial solutions on easy graphs.
//
// Pipeline: kernelize (degree-0/1/2-fold/domination, see reductions.h),
// split into connected components, solve each component by branching on a
// maximum-degree vertex with re-kernelization at every node, a greedy
// clique-cover upper bound and a brute-force base case for components of at
// most 64 vertices. A node budget bounds the effort; when exhausted the
// result is flagged unsolved (ComputeInitialSolution and bench_driver's
// references then fall back to ARW, matching the paper's easy/hard split).

#ifndef DYNMIS_SRC_STATIC_MIS_EXACT_H_
#define DYNMIS_SRC_STATIC_MIS_EXACT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/graph/static_graph.h"

namespace dynmis {

struct ExactMisOptions {
  // Branch-and-reduce node budget across the whole solve.
  int64_t max_nodes = 2'000'000;
  // Wall-clock deadline in seconds; <= 0 means no deadline. Exceeding it
  // flags the result unsolved (the per-node cost varies too much for the
  // node budget alone to bound elapsed time).
  double max_seconds = 0;
};

struct ExactMisResult {
  bool solved = false;
  // A maximum independent set (compacted ids of the input graph); valid
  // only when `solved`.
  std::vector<VertexId> solution;
  int64_t nodes_used = 0;
};

// Solves MIS exactly within the node budget.
ExactMisResult SolveExactMis(const StaticGraph& g,
                             const ExactMisOptions& options = {});

// Convenience: the independence number, or nullopt if the budget ran out.
std::optional<int64_t> ExactAlpha(const StaticGraph& g,
                                  const ExactMisOptions& options = {});

}  // namespace dynmis

#endif  // DYNMIS_SRC_STATIC_MIS_EXACT_H_
