// Brute-force verifiers shared by the test suites: independence,
// maximality, and existence of j-swaps (the definitional check behind the
// paper's k-maximality invariant, Theorem 5). These are deliberately naive
// (exponential in j) and meant for the small graphs used in property tests.

#ifndef DYNMIS_TESTS_VERIFIERS_H_
#define DYNMIS_TESTS_VERIFIERS_H_

#include <algorithm>
#include <vector>

#include "src/graph/dynamic_graph.h"

namespace dynmis {
namespace testing_util {

inline bool IsIndependentSet(const DynamicGraph& g,
                             const std::vector<VertexId>& solution) {
  for (size_t i = 0; i < solution.size(); ++i) {
    if (!g.IsVertexAlive(solution[i])) return false;
    for (size_t j = i + 1; j < solution.size(); ++j) {
      if (g.HasEdge(solution[i], solution[j])) return false;
    }
  }
  return true;
}

inline bool IsMaximalIndependentSet(const DynamicGraph& g,
                                    const std::vector<VertexId>& solution) {
  if (!IsIndependentSet(g, solution)) return false;
  std::vector<uint8_t> in_solution(g.VertexCapacity(), 0);
  for (VertexId v : solution) in_solution[v] = 1;
  for (VertexId v = 0; v < g.VertexCapacity(); ++v) {
    if (!g.IsVertexAlive(v) || in_solution[v]) continue;
    bool covered = false;
    g.ForEachIncident(v, [&](VertexId u) {
      if (in_solution[u]) covered = true;
    });
    if (!covered) return false;
  }
  return true;
}

// True if `candidates` contains an independent subset of size `target`
// (exponential search; fine for test-sized candidate pools).
inline bool HasIndependentSubset(const DynamicGraph& g,
                                 const std::vector<VertexId>& candidates,
                                 int target) {
  std::vector<VertexId> chosen;
  auto dfs = [&](auto&& self, size_t from) -> bool {
    if (static_cast<int>(chosen.size()) == target) return true;
    for (size_t i = from; i < candidates.size(); ++i) {
      const VertexId w = candidates[i];
      bool ok = true;
      for (VertexId c : chosen) {
        if (g.HasEdge(c, w)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      chosen.push_back(w);
      if (self(self, i + 1)) return true;
      chosen.pop_back();
    }
    return false;
  };
  return dfs(dfs, 0);
}

// True if the solution admits a j-swap for some j <= k: a set S of j
// solution vertices whose region bar_I<=j(S) = {u not in I : all solution
// neighbours of u lie in S, count(u) >= 1} contains an independent set of
// size j + 1.
inline bool HasSwapUpTo(const DynamicGraph& g,
                        const std::vector<VertexId>& solution, int k) {
  std::vector<int> count(g.VertexCapacity(), 0);
  std::vector<uint8_t> in_solution(g.VertexCapacity(), 0);
  for (VertexId v : solution) in_solution[v] = 1;
  for (VertexId v : solution) {
    g.ForEachIncident(v, [&](VertexId u) { ++count[u]; });
  }
  // Enumerate subsets S of the solution of size j = 1..k.
  std::vector<VertexId> sol = solution;
  std::sort(sol.begin(), sol.end());
  std::vector<VertexId> subset;
  auto region_has_swap = [&]() {
    std::vector<VertexId> region;
    for (VertexId s : subset) {
      g.ForEachIncident(s, [&](VertexId u) {
        if (in_solution[u]) return;
        if (std::find(region.begin(), region.end(), u) != region.end()) return;
        if (count[u] > static_cast<int>(subset.size())) return;
        // All solution neighbours of u must lie in S.
        bool inside = true;
        g.ForEachIncident(u, [&](VertexId w) {
          if (in_solution[w] &&
              std::find(subset.begin(), subset.end(), w) == subset.end()) {
            inside = false;
          }
        });
        if (inside) region.push_back(u);
      });
    }
    return HasIndependentSubset(g, region,
                                static_cast<int>(subset.size()) + 1);
  };
  auto enumerate = [&](auto&& self, size_t from, int remaining) -> bool {
    if (remaining == 0) return region_has_swap();
    for (size_t i = from; i < sol.size(); ++i) {
      subset.push_back(sol[i]);
      if (self(self, i + 1, remaining - 1)) return true;
      subset.pop_back();
    }
    return false;
  };
  for (int j = 1; j <= k; ++j) {
    if (enumerate(enumerate, 0, j)) return true;
  }
  return false;
}

}  // namespace testing_util
}  // namespace dynmis

#endif  // DYNMIS_TESTS_VERIFIERS_H_
