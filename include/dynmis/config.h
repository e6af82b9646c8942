// MaintainerConfig: the unified configuration for every dynamic MIS
// maintainer in the library. One struct subsumes the old per-algorithm
// knobs (the former MaintainerOptions plus the enum-encoded variants):
// an algorithm is named by a registry string and parameterized here, so
// "DyOneSwap with perturbation" is {"DyOneSwap", perturb=true} and the
// paper's k-swap ablation points are {"KSwap", k=1..4} instead of four
// enum values. The paper's optimization #1 is not a knob: the swap
// maintainers always collect tightness sets by neighbourhood scans and name
// a vertex's one or two solution neighbours from per-vertex sums
// (src/core/solution.h).
//
// The registry (dynmis/registry.h) resolves aliases such as "DyTwoSwap*"
// or "KSwap3" by patching the corresponding fields before construction,
// so string-only callers (CLI flags, config files) need no knowledge of
// this struct.

#ifndef DYNMIS_INCLUDE_DYNMIS_CONFIG_H_
#define DYNMIS_INCLUDE_DYNMIS_CONFIG_H_

#include <string>

namespace dynmis {

// Largest swap order the generic KSwap maintainer accepts (its exhaustive
// region search is capped, not the theory; see k_swap.h).
inline constexpr int kMaxKSwapOrder = 8;

struct MaintainerConfig {
  // Registry name of the algorithm (canonical or alias; see
  // MaintainerRegistry::ListAlgorithms).
  std::string algorithm = "DyTwoSwap";

  // Swap order for the generic "KSwap" maintainer, in
  // [1, kMaxKSwapOrder] (ignored by the specialized algorithms, which fix
  // k = 1 or 2).
  int k = 2;

  // Perturbation (paper, optimization #2): prefer swapping a solution
  // vertex with its smallest-degree eligible neighbour, since high-degree
  // vertices are unlikely to appear in a MaxIS. Reported as gap* columns.
  bool perturb = false;

  // Amortization interval for the "Recompute" baseline: rebuild the
  // solution from scratch after every `recompute_every`-th update.
  int recompute_every = 1;

  MaintainerConfig() = default;
  // Implicit by design: lets call sites pass a bare registry name wherever
  // a config is expected ({"DyOneSwap", "DyTwoSwap"} builds a config list).
  MaintainerConfig(std::string name) : algorithm(std::move(name)) {}
  MaintainerConfig(const char* name) : algorithm(name) {}
};

}  // namespace dynmis

#endif  // DYNMIS_INCLUDE_DYNMIS_CONFIG_H_
