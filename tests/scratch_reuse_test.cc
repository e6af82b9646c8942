// Tests for the allocation-free steady-state update path: scratch-buffer
// reuse under churn with vertex-id recycling (every registered maintainer
// must stay consistent when ids are deleted and recycled mid-stream), a
// steady-state memory bound, and a literal zero-heap-allocation check of
// the DyOneSwap/DyTwoSwap update loops after warm-up, enforced by counting
// global operator new calls.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "dynmis/registry.h"
#include "gtest/gtest.h"
#include "src/core/dy_swap.h"
#include "src/core/k_swap.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/util/random.h"
#include "tests/verifiers.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// Counting replacements for the global allocation functions (both the
// default-aligned and the align_val_t overloads, so over-aligned allocations
// cannot slip past the zero-allocation check). Counting is off except inside
// the measured window of the zero-allocation tests, so the rest of the
// binary is unaffected.
void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t alignment = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(
          alignment, (size + alignment - 1) / alignment * alignment)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dynmis {
namespace {

using testing_util::IsMaximalIndependentSet;

// Churn stream heavy on vertex deletions/insertions, so vertex (and edge)
// ids are continuously recycled while candidate scratch state from previous
// owners is still around.
UpdateStreamOptions RecyclingChurnOptions(uint64_t seed) {
  UpdateStreamOptions options;
  options.edge_op_fraction = 0.5;
  options.insert_fraction = 0.5;
  options.seed = seed;
  return options;
}

TEST(ScratchReuseTest, ChurnWithIdRecyclingKeepsEveryMaintainerConsistent) {
  const std::vector<std::string> names =
      MaintainerRegistry::Global().ListNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    Rng rng(2024);
    const EdgeListGraph base = ErdosRenyiGnm(60, 150, &rng);
    DynamicGraph g = base.ToDynamic();
    auto algo = MaintainerRegistry::Global().Create(name, &g);
    ASSERT_NE(algo, nullptr) << name;
    algo->Initialize({});
    UpdateStreamGenerator gen(RecyclingChurnOptions(/*seed=*/7), base);
    for (int batch = 0; batch < 25; ++batch) {
      for (int i = 0; i < 40; ++i) {
        algo->Apply(gen.Next(g));
      }
      ASSERT_TRUE(IsMaximalIndependentSet(g, algo->Solution()))
          << name << " batch " << batch;
    }
  }
}

TEST(ScratchReuseTest, ChurnWithIdRecyclingPassesCheckConsistency) {
  // The core maintainers expose full invariant validation; run it after
  // every batch of the same recycling-heavy stream.
  Rng rng(77);
  const EdgeListGraph base = ErdosRenyiGnm(80, 220, &rng);
  auto run = [&](auto& algo, DynamicGraph& g, uint64_t seed) {
    algo.Initialize({});
    UpdateStreamGenerator gen(RecyclingChurnOptions(seed), base);
    for (int batch = 0; batch < 20; ++batch) {
      for (int i = 0; i < 30; ++i) {
        algo.Apply(gen.Next(g));
      }
      algo.CheckConsistency();
    }
  };
  for (uint64_t variant = 0; variant < 3; ++variant) {
    DynamicGraph g1 = base.ToDynamic();
    DySwap algo1(&g1, 1);
    run(algo1, g1, 100 + variant);
    DynamicGraph g2 = base.ToDynamic();
    DySwap algo2(&g2, 2);
    run(algo2, g2, 200 + variant);
    DynamicGraph g3 = base.ToDynamic();
    KSwapMaintainer algo3(&g3, /*k=*/3);
    run(algo3, g3, 300 + variant);
  }
}

TEST(ScratchReuseTest, CollectSolutionMatchesSolution) {
  for (const std::string& name : MaintainerRegistry::Global().ListNames()) {
    Rng rng(5);
    const EdgeListGraph base = ErdosRenyiGnm(50, 120, &rng);
    DynamicGraph g = base.ToDynamic();
    auto algo = MaintainerRegistry::Global().Create(name, &g);
    ASSERT_NE(algo, nullptr) << name;
    algo->Initialize({});
    UpdateStreamGenerator gen(RecyclingChurnOptions(/*seed=*/11), base);
    for (int i = 0; i < 200; ++i) algo->Apply(gen.Next(g));
    std::vector<VertexId> collected = {kInvalidVertex};  // Not cleared.
    algo->CollectSolution(&collected);
    ASSERT_FALSE(collected.empty());
    EXPECT_EQ(collected.front(), kInvalidVertex) << name;
    collected.erase(collected.begin());
    std::vector<VertexId> copied = algo->Solution();
    std::sort(collected.begin(), collected.end());
    std::sort(copied.begin(), copied.end());
    EXPECT_EQ(collected, copied) << name;
    EXPECT_EQ(static_cast<int64_t>(copied.size()), algo->SolutionSize())
        << name;
  }
}

// Shared setup for the steady-state tests: a power-law graph with headroom
// reserved, a deterministic edge-churn sequence (slightly delete-biased so
// the live-edge high-water mark is established during warm-up), and a
// maintainer warmed up over the first part of the sequence.
struct SteadyStateRig {
  int n = 0;
  int64_t m = 0;
  DynamicGraph graph;
  std::vector<GraphUpdate> updates;

  explicit SteadyStateRig(int vertices, int total_updates) : n(vertices) {
    Rng rng(4242);
    const EdgeListGraph base = ChungLuPowerLaw(n, 2.3, 10.0, &rng);
    m = base.NumEdges();
    graph = base.ToDynamic();
    UpdateStreamOptions options;
    options.edge_op_fraction = 1.0;   // Fixed vertex set: pure edge churn.
    options.insert_fraction = 0.49;   // Slight delete bias (see above).
    options.seed = 97;
    updates = MakeUpdateSequence(base, total_updates, options);
  }

  // A fresh copy with growth headroom pre-reserved (copying a graph copies
  // sizes, not capacities, so Reserve must be re-applied per copy).
  DynamicGraph MakeGraph() const {
    DynamicGraph g = graph;
    g.Reserve(n, 2 * m);
    return g;
  }
};

TEST(ScratchReuseTest, SteadyStateUpdatesDoNotGrowMemory) {
  SteadyStateRig rig(2000, 12000);
  {
    DynamicGraph g = rig.MakeGraph();
    DySwap algo(&g, 2);
    algo.Initialize({});
    for (int i = 0; i < 6000; ++i) algo.Apply(rig.updates[i]);
    const size_t structures_before = algo.MemoryUsageBytes();
    const size_t graph_before = g.MemoryUsageBytes();
    for (int i = 6000; i < 12000; ++i) algo.Apply(rig.updates[i]);
    EXPECT_LE(algo.MemoryUsageBytes(), structures_before);
    EXPECT_LE(g.MemoryUsageBytes(), graph_before);
  }
  {
    DynamicGraph g = rig.MakeGraph();
    DySwap algo(&g, 1);
    algo.Initialize({});
    for (int i = 0; i < 6000; ++i) algo.Apply(rig.updates[i]);
    const size_t structures_before = algo.MemoryUsageBytes();
    const size_t graph_before = g.MemoryUsageBytes();
    for (int i = 6000; i < 12000; ++i) algo.Apply(rig.updates[i]);
    EXPECT_LE(algo.MemoryUsageBytes(), structures_before);
    EXPECT_LE(g.MemoryUsageBytes(), graph_before);
  }
}

template <typename Algo>
int64_t CountSteadyStateAllocations(const SteadyStateRig& rig, Algo* algo,
                                    int warmup, int window) {
  algo->Initialize({});
  for (int i = 0; i < warmup; ++i) algo->Apply(rig.updates[i]);
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  for (int i = warmup; i < warmup + window; ++i) algo->Apply(rig.updates[i]);
  g_count_allocations.store(false);
  return g_allocation_count.load();
}

TEST(ScratchReuseTest, DyTwoSwapSteadyStateUpdatesAreAllocationFree) {
  SteadyStateRig rig(2000, 15000);
  DynamicGraph g = rig.MakeGraph();
  DySwap algo(&g, 2);
  EXPECT_EQ(CountSteadyStateAllocations(rig, &algo, /*warmup=*/10000,
                                        /*window=*/5000),
            0);
}

TEST(ScratchReuseTest, DyOneSwapSteadyStateUpdatesAreAllocationFree) {
  SteadyStateRig rig(2000, 15000);
  DynamicGraph g = rig.MakeGraph();
  DySwap algo(&g, 1);
  EXPECT_EQ(CountSteadyStateAllocations(rig, &algo, /*warmup=*/10000,
                                        /*window=*/5000),
            0);
}

}  // namespace
}  // namespace dynmis
