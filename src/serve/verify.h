// Shared solution verification: one O(n + m) independence + maximality
// check over a DynamicGraph, used by the server's VERIFY command, by
// dynmis_loadgen's client-side re-check and by bench_driver's sharded run,
// so every side verifies the same property with the same code.
// (tests/verifiers.h keeps its deliberately naive O(k^2) brute-force
// variants: the test oracle should not share code with the thing it
// checks.)

#ifndef DYNMIS_SRC_SERVE_VERIFY_H_
#define DYNMIS_SRC_SERVE_VERIFY_H_

#include <cstdint>
#include <vector>

#include "src/graph/dynamic_graph.h"

namespace dynmis {
namespace serve {

// Sets *independent (every member alive and distinct, no edge inside the
// set) and *maximal (additionally, every alive non-member has a member
// neighbor; only meaningful when independent). Returns both. Scans the
// members' and then the non-members' neighbours, so beside the graph it
// holds one byte per vertex id.
inline bool CheckSolution(const DynamicGraph& g,
                          const std::vector<VertexId>& solution,
                          bool* independent, bool* maximal) {
  std::vector<uint8_t> member(g.VertexCapacity(), 0);
  *independent = true;
  for (const VertexId v : solution) {
    if (!g.IsVertexAlive(v) || member[v]) *independent = false;
    if (v >= 0 && v < g.VertexCapacity()) member[v] = 1;
  }
  const auto is_member = [&](VertexId u) { return member[u] != 0; };
  if (*independent) {
    for (const VertexId v : solution) {
      if (g.AnyIncident(v, is_member)) {
        *independent = false;
        break;
      }
    }
  }
  *maximal = *independent;
  if (*maximal) {
    for (VertexId v = 0; v < g.VertexCapacity(); ++v) {
      if (!g.IsVertexAlive(v) || member[v]) continue;
      if (!g.AnyIncident(v, is_member)) {
        *maximal = false;
        break;
      }
    }
  }
  return *independent && *maximal;
}

}  // namespace serve
}  // namespace dynmis

#endif  // DYNMIS_SRC_SERVE_VERIFY_H_
