#include "src/static_mis/initial_solution.h"

#include "src/static_mis/arw.h"
#include "src/static_mis/exact.h"
#include "src/static_mis/greedy.h"

namespace dynmis {

std::vector<VertexId> ComputeInitialSolution(const EdgeListGraph& g,
                                             InitialSolution mode,
                                             int arw_iterations,
                                             int64_t exact_node_budget,
                                             double exact_seconds_budget) {
  if (mode == InitialSolution::kEmpty) return {};
  const StaticGraph snapshot = g.ToStatic();
  if (mode == InitialSolution::kGreedy) return GreedyMis(snapshot);
  if (mode == InitialSolution::kExact) {
    ExactMisOptions options;
    options.max_nodes = exact_node_budget;
    options.max_seconds = exact_seconds_budget;
    ExactMisResult result = SolveExactMis(snapshot, options);
    if (result.solved) return result.solution;
  }
  ArwOptions arw;
  arw.iterations = arw_iterations;
  return ArwMis(snapshot, arw);
}

}  // namespace dynmis
