// Server soak with a literal zero-heap-allocation check: once warm-up has
// grown the reused scratch vectors to their high-water marks, a steady
// stream of binary edge updates and queries through a live Server — I/O
// threads, mailboxes, admission batching, response encoding, and the
// client's own read path — must not allocate. A stream that reaches a
// larger neighbourhood than warm-up did allocates once as a vector grows:
// with this test's generator built without its base list, that was 32 B
// in MisState::CollectBar1And2's outputs. This extends the counting
// global-operator-new technique of tests/scratch_reuse_test.cc from the
// maintainer update loops to the whole serving stack. Everything the client
// sends during the measured window is pre-encoded before counting starts,
// so the counter sees only the serving stack (plus this thread's reads).

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "dynmis/serve.h"
#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/update_stream.h"
#include "src/serve/binary.h"
#include "src/serve/line_client.h"
#include "src/util/random.h"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// Counting replacements for the global allocation functions (see
// tests/scratch_reuse_test.cc for the rationale; counting is off outside
// the measured window).
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
namespace serve {
namespace {

EdgeListGraph SoakGraph() {
  Rng rng(31);
  return ErdosRenyiGnm(300, 900, &rng);
}

TEST(ServeSoakTest, SteadyStateServingIsAllocationFree) {
  ServeOptions options;
  options.port = 0;
  options.io_threads = 2;
  options.batch_max_ops = 64;
  options.flush_deadline_us = 1000;
  std::string error;
  auto backend = MakeServingBackend(SoakGraph(), options, &error);
  ASSERT_NE(backend, nullptr) << error;
  Server server(std::move(backend), options);
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread loop([&server] { server.Run(); });

  // Pure edge churn over a fixed vertex set (vertex inserts allocate by
  // design — a new adjacency list has to come from somewhere).
  DynamicGraph mirror = SoakGraph().ToDynamic();
  UpdateStreamOptions stream;
  stream.edge_op_fraction = 1.0;
  stream.insert_fraction = 0.5;
  stream.seed = 404;
  UpdateStreamGenerator generator(stream, SoakGraph());

  // Pre-encode everything: chunks of 64 update frames (one admission batch)
  // with a query frame folded in, and the expected response count per
  // chunk. Nothing is encoded once counting starts.
  constexpr int kChunks = 80;
  constexpr int kOpsPerChunk = 64;
  constexpr int kWarmupChunks = 50;
  std::vector<std::string> chunks(kChunks);
  std::vector<int> responses_expected(kChunks, 0);
  for (int c = 0; c < kChunks; ++c) {
    for (int i = 0; i < kOpsPerChunk; ++i) {
      const GraphUpdate update = generator.Next(mirror);
      ApplyUpdate(&mirror, update);
      AppendUpdateFrame(&chunks[c], update);
      ++responses_expected[c];
    }
    AppendQueryFrame(&chunks[c], 0);
    ++responses_expected[c];
  }

  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.SendAll("HELLO 2 BIN\n"));
  std::string frame;
  ASSERT_TRUE(client.ReadLine(&frame));
  ASSERT_TRUE(frame.rfind("OK DYNMIS 2 BIN ", 0) == 0) << frame;

  const auto run_chunks = [&](int first, int last) {
    for (int c = first; c < last; ++c) {
      ASSERT_TRUE(client.SendAll(chunks[c]));
      for (int r = 0; r < responses_expected[c]; ++r) {
        ASSERT_TRUE(client.ReadFrame(&frame)) << "chunk " << c;
      }
    }
  };

  // Warm-up: buffers, ring queues, mailbox slots and admission vectors all
  // reach their steady-state capacities.
  run_chunks(0, kWarmupChunks);

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  run_chunks(kWarmupChunks, kChunks);
  g_count_allocations.store(false);
  const int64_t allocations = g_allocation_count.load();

  server.Stop();
  loop.join();
  const ServingMetricsSnapshot metrics = server.MetricsSnapshot();
  EXPECT_GT(metrics.ops_applied, 0);
  EXPECT_EQ(metrics.io_threads, 2);

  EXPECT_EQ(allocations, 0)
      << "serving steady state allocated " << allocations << " times over "
      << (kChunks - kWarmupChunks) * kOpsPerChunk << " ops";
}

}  // namespace
}  // namespace serve
}  // namespace dynmis
