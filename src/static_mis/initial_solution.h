// Start solutions for the dynamic maintainers (paper Section V-A): the
// exact solver's solution on easy graphs, ARW local search on hard graphs,
// or min-degree greedy. bench_driver's paper presets and
// `dynmis_cli --initial` both start here.

#ifndef DYNMIS_SRC_STATIC_MIS_INITIAL_SOLUTION_H_
#define DYNMIS_SRC_STATIC_MIS_INITIAL_SOLUTION_H_

#include <cstdint>
#include <vector>

#include "src/graph/edge_list.h"

namespace dynmis {

enum class InitialSolution {
  kEmpty,   // No start: the maintainer extends the empty set itself.
  kGreedy,  // Min-degree greedy.
  kArw,     // ARW local search (hard graphs).
  kExact,   // VCSolver stand-in; falls back to ARW when the budget runs out.
};

// Computes the start solution for `g` per `mode` (ids of `g`). ARW runs
// `arw_iterations` rounds; the exact solve stops at `exact_node_budget`
// branch nodes or `exact_seconds_budget` seconds, whichever comes first.
std::vector<VertexId> ComputeInitialSolution(const EdgeListGraph& g,
                                             InitialSolution mode,
                                             int arw_iterations,
                                             int64_t exact_node_budget,
                                             double exact_seconds_budget);

}  // namespace dynmis

#endif  // DYNMIS_SRC_STATIC_MIS_INITIAL_SOLUTION_H_
