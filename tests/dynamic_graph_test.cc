// Unit tests for the DynamicGraph substrate: id stability, adjacency
// integrity across insert/delete cascades (CheckConsistency follows every
// mirror), recycling behaviour, and the observable order contract
// (incidence order, vertex-id reuse, EdgeList order, snapshot encoding)
// that the maintainers' tie-breaks and the stream samplers rely on.

#include "src/graph/dynamic_graph.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/edge_list.h"
#include "src/graph/generators.h"
#include "src/io/snapshot.h"
#include "src/util/random.h"

namespace dynmis {
namespace {

TEST(DynamicGraphTest, StartsEmpty) {
  DynamicGraph g;
  EXPECT_EQ(g.NumVertices(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_EQ(g.VertexCapacity(), 0);
}

TEST(DynamicGraphTest, ConstructorCreatesIsolatedVertices) {
  DynamicGraph g(5);
  EXPECT_EQ(g.NumVertices(), 5);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_TRUE(g.IsVertexAlive(v));
    EXPECT_EQ(g.Degree(v), 0);
  }
}

TEST(DynamicGraphTest, AddEdgeUpdatesDegreesAndAdjacency) {
  DynamicGraph g(4);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Neighbors(0), std::vector<VertexId>{1});
  EXPECT_EQ(g.Neighbors(1), std::vector<VertexId>{0});
  g.CheckConsistency();
}

TEST(DynamicGraphTest, RemoveEdgeRestoresState) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.RemoveEdgeBetween(2, 1));
  g.CheckConsistency();
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 0);
}

TEST(DynamicGraphTest, RemoveEdgeBetween) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  EXPECT_TRUE(g.RemoveEdgeBetween(1, 0));
  EXPECT_FALSE(g.RemoveEdgeBetween(1, 0));
  EXPECT_EQ(g.NumEdges(), 0);
}

TEST(DynamicGraphTest, RemoveVertexDropsIncidentEdges) {
  DynamicGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  g.RemoveVertex(0);
  EXPECT_FALSE(g.IsVertexAlive(0));
  EXPECT_EQ(g.NumVertices(), 4);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 1);
  EXPECT_EQ(g.Degree(3), 0);
}

TEST(DynamicGraphTest, VertexIdsAreRecycled) {
  DynamicGraph g(3);
  g.RemoveVertex(1);
  const VertexId v = g.AddVertex();
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(g.IsVertexAlive(1));
  EXPECT_EQ(g.Degree(1), 0);
  EXPECT_EQ(g.VertexCapacity(), 3);
}

TEST(DynamicGraphTest, QueuedVertexIdsForceAllocation) {
  DynamicGraph g(2);
  // Growth: forcing id 5 materializes ids 2..4 as dead, free-listed gaps.
  g.QueueVertexId(5);
  EXPECT_EQ(g.AddVertex(), 5);
  EXPECT_TRUE(g.IsVertexAlive(5));
  EXPECT_EQ(g.VertexCapacity(), 6);
  EXPECT_EQ(g.NumVertices(), 3);
  for (VertexId gap = 2; gap <= 4; ++gap) EXPECT_FALSE(g.IsVertexAlive(gap));

  // Recycling: a freed id can be re-forced, pulling it from the free list.
  g.RemoveVertex(1);
  g.QueueVertexId(1);
  EXPECT_EQ(g.AddVertex(), 1);
  EXPECT_TRUE(g.IsVertexAlive(1));

  // A queued id serves one AddVertex; the next one reverts to the free
  // list, which still holds exactly the gap ids.
  const VertexId recycled = g.AddVertex();
  EXPECT_TRUE(recycled == 2 || recycled == 3 || recycled == 4);
  g.AddEdge(5, 1);
  EXPECT_TRUE(g.HasEdge(5, 1));
  g.CheckConsistency();
}

TEST(DynamicGraphTest, NeighborsAndIncidenceIteration) {
  DynamicGraph g(5);
  g.AddEdge(2, 0);
  g.AddEdge(2, 1);
  g.AddEdge(2, 4);
  std::vector<VertexId> nbrs = g.Neighbors(2);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<VertexId>{0, 1, 4}));
  std::vector<VertexId> newest_first;
  g.ForEachIncident(2, [&](VertexId u) { newest_first.push_back(u); });
  EXPECT_EQ(newest_first, (std::vector<VertexId>{4, 1, 0}));
  // A two-argument callback still compiles and gets no edge id.
  int visited = 0;
  g.ForEachIncident(2, [&](VertexId, EdgeId e) {
    EXPECT_EQ(e, kInvalidEdge);
    ++visited;
  });
  EXPECT_EQ(visited, 3);
  EXPECT_TRUE(g.AnyIncident(2, [](VertexId u, EdgeId) { return u == 1; }));
}

TEST(DynamicGraphTest, MaxDegreeTracksChanges) {
  DynamicGraph g(5);
  EXPECT_EQ(g.MaxDegree(), 0);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.MaxDegree(), 3);
  g.RemoveVertex(0);
  EXPECT_EQ(g.MaxDegree(), 0);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.MaxDegree(), 1);
}

TEST(DynamicGraphTest, MaxDegreeMatchesBruteForceUnderChurn) {
  // MaxDegree() must stay exact through arbitrary interleavings of edge
  // and vertex churn.
  Rng rng(31);
  DynamicGraph g(40);
  for (int step = 0; step < 3000; ++step) {
    const int action = static_cast<int>(rng.NextBounded(4));
    const VertexId u =
        static_cast<VertexId>(rng.NextBounded(g.VertexCapacity()));
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(g.VertexCapacity()));
    if (action == 0 && g.IsVertexAlive(u) && g.IsVertexAlive(v) && u != v &&
        !g.HasEdge(u, v)) {
      g.AddEdge(u, v);
    } else if (action == 1 && g.IsVertexAlive(u) && g.IsVertexAlive(v)) {
      g.RemoveEdgeBetween(u, v);
    } else if (action == 2 && g.NumVertices() < 60) {
      g.AddVertex();
    } else if (action == 3 && g.IsVertexAlive(u) && g.NumVertices() > 5) {
      g.RemoveVertex(u);
    }
    int expected = 0;
    for (VertexId w = 0; w < g.VertexCapacity(); ++w) {
      if (g.IsVertexAlive(w)) expected = std::max(expected, g.Degree(w));
    }
    ASSERT_EQ(g.MaxDegree(), expected) << "step " << step;
  }
}

TEST(DynamicGraphTest, ReservePreventsReallocationAndPreservesState) {
  DynamicGraph g(4);
  g.AddEdge(0, 1);
  g.Reserve(100, 200);
  EXPECT_EQ(g.NumVertices(), 4);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  for (int i = 0; i < 50; ++i) g.AddVertex();
  g.AddEdge(2, 3);
  EXPECT_EQ(g.NumVertices(), 54);
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_EQ(g.MaxDegree(), 1);
}

TEST(DynamicGraphTest, EdgeListOrdersByLowerEndpointThenIncidence) {
  DynamicGraph g(4);
  g.AddEdge(3, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.EdgeList(), (std::vector<std::pair<VertexId, VertexId>>{
                              {0, 2}, {0, 1}, {1, 3}, {1, 2}}));
}

TEST(DynamicGraphTest, CopyIsIndependent) {
  DynamicGraph g(3);
  g.AddEdge(0, 1);
  DynamicGraph copy = g;
  copy.AddEdge(1, 2);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(copy.NumEdges(), 2);
}

// Randomized cross-check against a simple set-of-pairs reference model.
TEST(DynamicGraphTest, RandomizedMatchesReferenceModel) {
  Rng rng(42);
  DynamicGraph g(30);
  std::set<std::pair<VertexId, VertexId>> reference;
  std::set<VertexId> alive;
  for (VertexId v = 0; v < 30; ++v) alive.insert(v);

  auto ordered = [](VertexId a, VertexId b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  for (int step = 0; step < 4000; ++step) {
    const int action = static_cast<int>(rng.NextBounded(4));
    if (action == 0 && alive.size() >= 2) {  // Insert random edge.
      auto it = alive.begin();
      std::advance(it, rng.NextBounded(alive.size()));
      VertexId u = *it;
      it = alive.begin();
      std::advance(it, rng.NextBounded(alive.size()));
      VertexId v = *it;
      if (u != v && !reference.count(ordered(u, v))) {
        g.AddEdge(u, v);
        reference.insert(ordered(u, v));
      }
    } else if (action == 1 && !reference.empty()) {  // Delete random edge.
      auto it = reference.begin();
      std::advance(it, rng.NextBounded(reference.size()));
      ASSERT_TRUE(g.RemoveEdgeBetween(it->first, it->second));
      reference.erase(it);
    } else if (action == 2) {  // Insert vertex.
      const VertexId v = g.AddVertex();
      alive.insert(v);
    } else if (!alive.empty()) {  // Delete random vertex.
      auto it = alive.begin();
      std::advance(it, rng.NextBounded(alive.size()));
      const VertexId v = *it;
      g.RemoveVertex(v);
      alive.erase(it);
      for (auto edge_it = reference.begin(); edge_it != reference.end();) {
        if (edge_it->first == v || edge_it->second == v) {
          edge_it = reference.erase(edge_it);
        } else {
          ++edge_it;
        }
      }
    }
    ASSERT_EQ(g.NumEdges(), static_cast<int64_t>(reference.size()));
    ASSERT_EQ(g.NumVertices(), static_cast<int>(alive.size()));
    g.CheckConsistency();
  }
  // Final deep comparison.
  auto edges = g.EdgeList();
  std::sort(edges.begin(), edges.end());
  std::vector<std::pair<VertexId, VertexId>> expected(reference.begin(),
                                                      reference.end());
  EXPECT_EQ(edges, expected);
  for (VertexId v : alive) {
    int expected_degree = 0;
    for (const auto& [a, b] : reference) {
      if (a == v || b == v) ++expected_degree;
    }
    EXPECT_EQ(g.Degree(v), expected_degree);
  }
}

// Neighbours, most recent first.
using Incidence = std::vector<VertexId>;

Incidence IncidenceOf(const DynamicGraph& g, VertexId v) {
  Incidence out;
  g.ForEachIncident(v, [&](VertexId u) { out.push_back(u); });
  return out;
}

// Reference model of the graph's observable order contract: incidence lists
// most recent first, a delete removing in place, and vertex ids recycled
// LIFO.
class OrderedModel {
 public:
  explicit OrderedModel(int n) : adj_(n), alive_(n, 1) {}

  bool Alive(VertexId v) const {
    return v >= 0 && v < static_cast<VertexId>(alive_.size()) && alive_[v];
  }
  const Incidence& Adj(VertexId v) const { return adj_[v]; }
  int Capacity() const { return static_cast<int>(alive_.size()); }
  const std::vector<VertexId>& FreeVertices() const { return free_vertices_; }

  bool HasEdge(VertexId u, VertexId v) const {
    return std::find(adj_[u].begin(), adj_[u].end(), v) != adj_[u].end();
  }
  VertexId NextVertexId() const {
    return free_vertices_.empty() ? Capacity() : free_vertices_.back();
  }

  void AddEdge(VertexId u, VertexId v) {
    adj_[u].insert(adj_[u].begin(), v);
    adj_[v].insert(adj_[v].begin(), u);
  }
  void RemoveEdge(VertexId u, VertexId v) {
    Erase(u, v);
    Erase(v, u);
  }
  void AddVertex() {
    const VertexId v = NextVertexId();
    if (free_vertices_.empty()) {
      adj_.emplace_back();
      alive_.push_back(1);
    } else {
      free_vertices_.pop_back();
      alive_[v] = 1;
    }
  }
  void RemoveVertex(VertexId v) {
    for (const VertexId w : adj_[v]) Erase(w, v);
    adj_[v].clear();
    alive_[v] = 0;
    free_vertices_.push_back(v);
  }

 private:
  void Erase(VertexId v, VertexId w) {
    adj_[v].erase(std::find(adj_[v].begin(), adj_[v].end(), w));
  }

  std::vector<Incidence> adj_;
  std::vector<uint8_t> alive_;
  std::vector<VertexId> free_vertices_;
};

// The decoded "graph" snapshot section (see DynamicGraph::SaveTo).
struct GraphSection {
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  std::vector<int32_t> degrees, neighbours, free_v;
};

std::string SaveGraph(const DynamicGraph& g) {
  SnapshotWriter w;
  g.SaveTo(&w);
  std::ostringstream out;
  EXPECT_TRUE(w.WriteTo(out).ok);
  return std::move(out).str();
}

bool OpenGraph(const std::string& blob, SnapshotReader* r) {
  std::istringstream in(blob);
  return r->ReadFrom(in).ok && r->OpenSection("graph");
}

GraphSection DecodeGraph(const std::string& blob) {
  GraphSection s;
  SnapshotReader r;
  EXPECT_TRUE(OpenGraph(blob, &r));
  s.num_vertices = r.GetI64();
  s.num_edges = r.GetI64();
  EXPECT_TRUE(r.GetI32Array(&s.degrees) && r.GetI32Array(&s.neighbours) &&
              r.GetI32Array(&s.free_v));
  EXPECT_TRUE(r.AtSectionEnd());
  return s;
}

// Random churn with vertex ops, in phases that first densify the graph
// (degrees in the tens, so long arrays see many deletes between
// compactions) and then thin it out. After every step the returned vertex
// ids and every touched vertex's incidence order must match the model, and
// every mirror must point back to its entry. At the end the snapshot's
// free-vertex list must equal the model's.
TEST(DynamicGraphTest, ChurnMatchesOrderedReferenceModel) {
  Rng rng(2024);
  const int n = 48;
  DynamicGraph g(n);
  OrderedModel model(n);
  auto pick_alive = [&]() {
    VertexId v;
    do {
      v = static_cast<VertexId>(rng.NextBounded(model.Capacity()));
    } while (!model.Alive(v));
    return v;
  };
  auto check_vertex = [&](VertexId v) {
    ASSERT_EQ(IncidenceOf(g, v), model.Adj(v)) << "vertex " << v;
    ASSERT_EQ(g.Degree(v), static_cast<int>(model.Adj(v).size()));
  };
  for (int step = 0; step < 12000; ++step) {
    // Phases of 3000 steps: insert-heavy, delete-heavy, and so on.
    const bool densify = (step / 3000) % 2 == 0;
    const int roll = static_cast<int>(rng.NextBounded(100));
    if (roll < 2 && g.NumVertices() < 64) {
      const VertexId expected = model.NextVertexId();
      ASSERT_EQ(g.AddVertex(), expected) << "step " << step;
      model.AddVertex();
    } else if (roll < 4 && g.NumVertices() > 8) {
      const VertexId v = pick_alive();
      const Incidence before = model.Adj(v);
      g.RemoveVertex(v);
      model.RemoveVertex(v);
      for (const VertexId w : before) check_vertex(w);
    } else if (roll < (densify ? 70 : 30)) {
      const VertexId u = pick_alive();
      const VertexId v = pick_alive();
      if (u == v || model.HasEdge(u, v)) continue;
      ASSERT_FALSE(g.HasEdge(v, u)) << "step " << step;
      g.AddEdge(u, v);
      model.AddEdge(u, v);
      check_vertex(u);
      check_vertex(v);
    } else {
      const VertexId u = pick_alive();
      if (model.Adj(u).empty()) continue;
      const VertexId v = model.Adj(u)[rng.NextBounded(model.Adj(u).size())];
      ASSERT_TRUE(g.HasEdge(u, v));
      ASSERT_TRUE(g.RemoveEdgeBetween(v, u));
      model.RemoveEdge(u, v);
      ASSERT_FALSE(g.HasEdge(u, v));
      check_vertex(u);
      check_vertex(v);
    }
    g.CheckConsistency();
  }
  for (VertexId v = 0; v < model.Capacity(); ++v) {
    ASSERT_EQ(g.IsVertexAlive(v), model.Alive(v));
    if (model.Alive(v)) check_vertex(v);
  }
  EXPECT_EQ(DecodeGraph(SaveGraph(g)).free_v, model.FreeVertices());
}

// Every mirror of `g` points back to its entry and the counts add up (see
// CheckConsistency), and EdgeList lists each edge once.
void ExpectConsistent(const DynamicGraph& g) {
  g.CheckConsistency();
  EXPECT_EQ(static_cast<int64_t>(g.EdgeList().size()), g.NumEdges());
}

// A churned graph survives a snapshot round trip with its incidence order
// and vertex id recycling intact: both copies then answer an identical op
// sequence with identical vertex ids and neighbour orders, and every mirror
// of both stays consistent.
TEST(DynamicGraphTest, ChurnedSnapshotRoundTripKeepsOrderAndIds) {
  Rng rng(77);
  Rng build_rng(5);
  DynamicGraph g = ChungLuPowerLaw(300, 2.3, 12.0, &build_rng).ToDynamic();
  auto churn = [&](DynamicGraph* a, DynamicGraph* b, int steps) {
    for (int step = 0; step < steps; ++step) {
      const int cap = a->VertexCapacity();
      const auto u = static_cast<VertexId>(rng.NextBounded(cap));
      const auto v = static_cast<VertexId>(rng.NextBounded(cap));
      if (!a->IsVertexAlive(u) || !a->IsVertexAlive(v) || u == v) continue;
      if (step % 97 == 0) {
        a->RemoveVertex(u);
        if (b != nullptr) b->RemoveVertex(u);
      } else if (a->HasEdge(u, v)) {
        a->RemoveEdgeBetween(u, v);
        if (b != nullptr) ASSERT_TRUE(b->RemoveEdgeBetween(u, v));
      } else {
        a->AddEdge(u, v);
        if (b != nullptr) b->AddEdge(u, v);
      }
    }
  };
  churn(&g, nullptr, 20000);
  ExpectConsistent(g);
  DynamicGraph loaded;
  {
    SnapshotReader r;
    ASSERT_TRUE(OpenGraph(SaveGraph(g), &r));
    ASSERT_TRUE(loaded.LoadFrom(&r)) << r.error();
  }
  auto expect_same = [](const DynamicGraph& a, const DynamicGraph& b) {
    ASSERT_EQ(a.VertexCapacity(), b.VertexCapacity());
    ASSERT_EQ(a.NumEdges(), b.NumEdges());
    ASSERT_EQ(a.MaxDegree(), b.MaxDegree());
    for (VertexId v = 0; v < a.VertexCapacity(); ++v) {
      ASSERT_EQ(a.IsVertexAlive(v), b.IsVertexAlive(v));
      if (a.IsVertexAlive(v)) {
        ASSERT_EQ(a.Neighbors(v), b.Neighbors(v));
      }
    }
  };
  expect_same(g, loaded);
  ExpectConsistent(loaded);
  EXPECT_EQ(SaveGraph(g), SaveGraph(loaded));
  // EdgeList lists lower endpoints ascending, each with its higher
  // neighbours in incidence order (oldest first), on both copies.
  std::vector<std::pair<VertexId, VertexId>> numbered;
  for (VertexId v = 0; v < loaded.VertexCapacity(); ++v) {
    if (!loaded.IsVertexAlive(v)) continue;
    const std::vector<VertexId> newest_first = loaded.Neighbors(v);
    for (auto it = newest_first.rbegin(); it != newest_first.rend(); ++it) {
      if (*it > v) numbered.emplace_back(v, *it);
    }
  }
  ASSERT_EQ(loaded.EdgeList(), numbered);
  ASSERT_EQ(g.EdgeList(), numbered);
  churn(&g, &loaded, 20000);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(g.AddVertex(), loaded.AddVertex());
  expect_same(g, loaded);
  ExpectConsistent(g);
  ExpectConsistent(loaded);
}

// The payload of `section` as int32 words, and a container holding a
// "graph" section made of `words`.
std::vector<int32_t> PayloadWords(const GraphSection& section) {
  std::vector<int32_t> words;
  auto put64 = [&](uint64_t value) {
    words.push_back(static_cast<int32_t>(value));
    words.push_back(static_cast<int32_t>(value >> 32));
  };
  put64(section.num_vertices);
  put64(section.num_edges);
  for (const auto* array :
       {&section.degrees, &section.neighbours, &section.free_v}) {
    put64(array->size());
    words.insert(words.end(), array->begin(), array->end());
  }
  return words;
}

std::string GraphBlob(const std::vector<int32_t>& words) {
  SnapshotWriter w;
  w.BeginSection("graph");
  for (const int32_t word : words) w.PutI32(word);
  w.EndSection();
  std::ostringstream out;
  EXPECT_TRUE(w.WriteTo(out).ok);
  return std::move(out).str();
}

// Hostile bytes: sections of a churned graph with one int32 changed (and a
// valid CRC) either fail to load, or load a consistent graph that saves
// exactly the changed section. Under ASan/UBSan this also shows that no
// such payload reads out of bounds.
TEST(DynamicGraphTest, MutatedGraphSectionsFailOrRoundTrip) {
  Rng rng(2309);
  DynamicGraph g = ChungLuPowerLaw(300, 2.3, 12.0, &rng).ToDynamic();
  for (int step = 0; step < 20000; ++step) {
    const auto u = static_cast<VertexId>(rng.NextBounded(g.VertexCapacity()));
    const auto v = static_cast<VertexId>(rng.NextBounded(g.VertexCapacity()));
    if (!g.IsVertexAlive(u) || !g.IsVertexAlive(v) || u == v) continue;
    if (step % 97 == 0) {
      g.RemoveVertex(u);
    } else if (step % 89 == 0) {
      g.AddVertex();
    } else if (!g.RemoveEdgeBetween(u, v)) {
      g.AddEdge(u, v);
    }
  }
  const std::vector<int32_t> words = PayloadWords(DecodeGraph(SaveGraph(g)));
  const int32_t vcap = g.VertexCapacity();
  ASSERT_GT(g.NumVertices(), 0);
  ASSERT_LT(g.NumVertices(), vcap);
  // Word ranges: the counts and lengths, the degrees, the neighbour ids
  // and the free list.
  const size_t degrees = 6;
  const size_t neighbours = degrees + static_cast<size_t>(vcap) + 2;
  const size_t free_list = neighbours + 2 * g.NumEdges() + 2;
  ASSERT_LT(free_list, words.size());
  const std::pair<size_t, size_t> ranges[] = {
      {0, words.size()},
      {degrees, neighbours - 2},
      {neighbours, free_list - 2},
      {free_list, words.size()},
  };
  std::set<std::string> messages;
  for (int built = 0; built < 1000;) {
    const auto [begin, end] = ranges[built % 4];
    const size_t at = begin + rng.NextBounded(end - begin);
    std::vector<int32_t> mutated = words;
    const auto old = static_cast<uint32_t>(mutated[at]);
    uint32_t word;
    switch (rng.NextBounded(4)) {
      case 0:
        word = rng.NextBounded(2) == 0 ? old + 1 : old - 1;
        break;
      case 1:
        word = static_cast<uint32_t>(rng.NextBounded(vcap + 4)) - 2;
        break;
      case 2:
        word = static_cast<uint32_t>(rng.NextU64());
        break;
      default:
        word = rng.NextBounded(2) == 0 ? ~0u : 0u;
        break;
    }
    if (word == old) continue;
    mutated[at] = static_cast<int32_t>(word);
    ++built;
    const std::string blob = GraphBlob(mutated);
    SnapshotReader r;
    ASSERT_TRUE(OpenGraph(blob, &r));
    DynamicGraph loaded;
    if (loaded.LoadFrom(&r)) {
      EXPECT_EQ(SaveGraph(loaded), blob) << "word " << at;
      ExpectConsistent(loaded);
    } else {
      messages.insert(r.error());
    }
  }
  // The failures exercise the graph rules, not only the reader's checks.
  EXPECT_GE(messages.size(), 8u);
}

// A TTL sliding window, as in the temporal workloads: each inserted edge is
// deleted, oldest first, a fixed number of inserts later, so every delete
// hits the oldest window entry of both endpoints' arrays. Arrays keep their
// blocks under this churn: after one window fills them, compactions and
// moves stay under one per op. The arrays take a few windows to settle
// into their classes; from then on the graph's bytes stay flat.
TEST(DynamicGraphTest, SlidingWindowChurnRarelyRelocatesArrays) {
  Rng rng(19);
  DynamicGraph g = ChungLuPowerLaw(400, 2.3, 8.0, &rng).ToDynamic();
  const int n = g.VertexCapacity();
  constexpr size_t kWindow = 1600;
  std::vector<std::pair<VertexId, VertexId>> window(kWindow);
  size_t inserted = 0;
  int64_t ops = 0;
  auto run_windows = [&](size_t windows) {
    const size_t end = inserted + windows * kWindow;
    while (inserted < end) {
      const auto u = static_cast<VertexId>(rng.NextBounded(n));
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v || g.HasEdge(u, v)) continue;
      if (inserted >= kWindow) {
        const auto [a, b] = window[inserted % kWindow];
        ASSERT_TRUE(g.RemoveEdgeBetween(a, b));
        ++ops;
      }
      g.AddEdge(u, v);
      window[inserted++ % kWindow] = {u, v};
      ++ops;
    }
  };
  run_windows(1);
  g.CheckConsistency();
  const int64_t warm_ops = ops;
  const int64_t warm_relocations = g.Relocations();
  run_windows(3);
  const size_t settled_bytes = g.MemoryUsageBytes();
  for (int i = 0; i < 17; ++i) {
    run_windows(1);
    g.CheckConsistency();
    EXPECT_LE(static_cast<double>(g.MemoryUsageBytes()),
              1.05 * static_cast<double>(settled_bytes))
        << "window " << i;
  }
  EXPECT_LT(static_cast<double>(g.Relocations() - warm_relocations),
            1.0 * static_cast<double>(ops - warm_ops));
}

// FNV-1a, for pinning serialized bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return h;
}

// The "graph" section is a stable on-disk encoding: this graph (dead
// vertices included) serializes to exactly these bytes. Pinned when
// snapshot format 2 replaced the edge-id chains with neighbour lists.
TEST(DynamicGraphTest, GraphSectionBytesArePinned) {
  Rng rng(11);
  DynamicGraph g = ChungLuPowerLaw(400, 2.2, 9.0, &rng).ToDynamic();
  for (int i = 0; i < 10; ++i) g.AddVertex();
  g.RemoveVertex(403);
  g.RemoveVertex(401);
  for (int i = 0; i < 3000; ++i) {
    const auto u = static_cast<VertexId>(rng.NextBounded(g.VertexCapacity()));
    const auto v = static_cast<VertexId>(rng.NextBounded(g.VertexCapacity()));
    if (g.IsVertexAlive(u) && g.IsVertexAlive(v) && u != v &&
        !g.HasEdge(u, v)) {
      g.AddEdge(u, v);
    }
  }
  const std::string blob = SaveGraph(g);
  EXPECT_EQ(blob.size(), size_t{36627});
  EXPECT_EQ(Fnv1a(blob), uint64_t{10312103567661107374u});
}

// Loading a graph sizes every adjacency exactly once, so the first inserts
// after a load do not reallocate anything edge-indexed: bytes stay within
// 5% of the loaded size (a doubling vector of edge records would add ~60%).
TEST(DynamicGraphTest, FirstInsertsAfterLoadDoNotGrowMemory) {
  Rng rng(3);
  const EdgeListGraph base = ChungLuPowerLaw(20000, 2.3, 10.0, &rng);
  DynamicGraph g = base.ToDynamic();
  const size_t loaded = g.MemoryUsageBytes();
  int inserted = 0;
  while (inserted < 16) {
    const auto u = static_cast<VertexId>(rng.NextBounded(base.n));
    const auto v = static_cast<VertexId>(rng.NextBounded(base.n));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v);
    ++inserted;
  }
  EXPECT_LE(static_cast<double>(g.MemoryUsageBytes()),
            1.05 * static_cast<double>(loaded));
}

// The graph an edge list builds one edge at a time: every array sized to
// its degree first, in vertex order, then one AddEdge per edge in list
// order.
DynamicGraph BuildByAddEdge(const EdgeListGraph& base) {
  std::vector<int> degree(static_cast<size_t>(base.n), 0);
  for (const auto& [u, v] : base.edges) {
    ++degree[u];
    ++degree[v];
  }
  DynamicGraph g(base.n);
  for (VertexId v = 0; v < base.n; ++v) g.ReserveDegree(v, degree[v]);
  for (const auto& [u, v] : base.edges) g.AddEdge(u, v);
  return g;
}

// Two graphs are the same graph in every observable byte: the snapshot
// section, the memory accounting and the edge list, each also consistent.
void ExpectSameGraph(const DynamicGraph& a, const DynamicGraph& b) {
  a.CheckConsistency();
  b.CheckConsistency();
  EXPECT_EQ(SaveGraph(a), SaveGraph(b));
  EXPECT_EQ(a.MemoryUsageBytes(), b.MemoryUsageBytes());
  EXPECT_EQ(a.EdgeList(), b.EdgeList());
}

// ToDynamic builds, from sorted and unsorted lists, exactly the graph the
// AddEdge loop builds, and the two stay identical under the same random
// inserts and deletes (so every slab, free list and bump pointer matches).
TEST(DynamicGraphTest, ToDynamicMatchesAddEdgeLoop) {
  Rng rng(2026);
  std::vector<std::pair<std::string, EdgeListGraph>> lists;
  lists.emplace_back("erdos-renyi", ErdosRenyiGnm(600, 2400, &rng));
  lists.emplace_back("chung-lu", ChungLuPowerLaw(2000, 2.2, 9.0, &rng));
  lists.emplace_back("star", StarGraph(300));  // The hub needs a chunk.
  EdgeListGraph isolated = ErdosRenyiGnm(50, 60, &rng);
  isolated.n = 80;  // Ids 50..79 have no edge.
  lists.emplace_back("isolated", isolated);
  lists.emplace_back("empty", EdgeListGraph{});
  lists.emplace_back("no-edges", EdgeListGraph{7, {}});
  for (size_t i = 0, count = lists.size(); i < count; ++i) {
    EdgeListGraph sorted = lists[i].second;
    std::sort(sorted.edges.begin(), sorted.edges.end());
    EdgeListGraph shuffled = lists[i].second;
    for (size_t j = shuffled.edges.size(); j > 1; --j) {
      std::swap(shuffled.edges[j - 1], shuffled.edges[rng.NextBounded(j)]);
      if (rng.NextBounded(2) != 0) {
        std::swap(shuffled.edges[j - 1].first, shuffled.edges[j - 1].second);
      }
    }
    lists.emplace_back(lists[i].first + " sorted", std::move(sorted));
    lists.emplace_back(lists[i].first + " shuffled", std::move(shuffled));
  }
  for (const auto& [name, base] : lists) {
    SCOPED_TRACE(name);
    DynamicGraph bulk = base.ToDynamic();
    DynamicGraph loop = BuildByAddEdge(base);
    ExpectSameGraph(bulk, loop);
    if (base.n < 2) continue;
    for (int op = 0; op < 20000; ++op) {
      const auto u = static_cast<VertexId>(rng.NextBounded(base.n));
      const auto v = static_cast<VertexId>(rng.NextBounded(base.n));
      if (u == v) continue;
      if (loop.HasEdge(u, v)) {
        ASSERT_TRUE(bulk.RemoveEdgeBetween(u, v));
        loop.RemoveEdgeBetween(u, v);
      } else {
        bulk.AddEdge(u, v);
        loop.AddEdge(u, v);
      }
    }
    ExpectSameGraph(bulk, loop);
  }
}

}  // namespace
}  // namespace dynmis
