// EdgeListGraph: the plain interchange representation produced by the
// generators and the SNAP-format loader, convertible to the dynamic and
// static representations.

#ifndef DYNMIS_SRC_GRAPH_EDGE_LIST_H_
#define DYNMIS_SRC_GRAPH_EDGE_LIST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/graph/static_graph.h"

namespace dynmis {

// A simple undirected graph as `n` vertices (ids 0..n-1) plus a list of
// edges. Edges are unique and self-loop free; generators and loaders are
// responsible for deduplication.
struct EdgeListGraph {
  int n = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;

  int64_t NumEdges() const { return static_cast<int64_t>(edges.size()); }

  double AverageDegree() const {
    return n == 0 ? 0.0 : 2.0 * static_cast<double>(edges.size()) / n;
  }

  // Materializes a DynamicGraph with vertices 0..n-1 and edge i as edge id
  // i. Degrees are counted first, so every adjacency array is sized once
  // and the bulk insertion never relocates one.
  DynamicGraph ToDynamic() const {
    std::vector<int32_t> degree(static_cast<size_t>(n), 0);
    for (const auto& [u, v] : edges) {
      ++degree[u];
      ++degree[v];
    }
    DynamicGraph g(n);
    for (VertexId v = 0; v < n; ++v) g.ReserveDegree(v, degree[v]);
    for (const auto& [u, v] : edges) g.AddEdge(u, v);
    return g;
  }

  // Materializes a CSR snapshot.
  StaticGraph ToStatic() const { return StaticGraph(n, edges); }
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_GRAPH_EDGE_LIST_H_
