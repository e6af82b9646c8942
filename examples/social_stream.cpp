// Social-network stream: the motivating scenario of the paper's
// introduction. A power-law "social network" receives a hot-topic burst of
// updates comparable in size to the whole network (friendships added and
// removed, users joining and leaving). We maintain an approximate MaxIS -
// e.g. a maximum set of mutually non-interacting users for unbiased
// sampling / influence seeding - with DyOneSwap and DyTwoSwap, and compare
// against recomputing from scratch at intervals. Each contender is a
// MisEngine built from its registry name.
//
//   $ ./social_stream [n] [updates]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "dynmis/dynmis.h"

int main(int argc, char** argv) {
  using namespace dynmis;
  const int n = argc > 1 ? std::atoi(argv[1]) : 20000;
  const int updates = argc > 2 ? std::atoi(argv[2]) : n;  // Burst ~ network.

  Rng rng(2022);
  const EdgeListGraph base = ChungLuPowerLaw(n, 2.3, 10.0, &rng);
  std::printf("social network: n=%d m=%lld (power-law, beta=2.3)\n", base.n,
              static_cast<long long>(base.NumEdges()));
  std::printf("hot-topic burst: %d updates (~ the size of the network)\n\n",
              updates);

  UpdateStreamOptions stream;
  stream.seed = 5;
  stream.edge_op_fraction = 0.85;  // Mostly friendship churn, some users.
  const std::vector<GraphUpdate> burst =
      MakeUpdateSequence(base, updates, stream);

  TablePrinter table(
      {"maintainer", "final |I|", "total time", "per update", "memory"});

  auto run = [&](const MaintainerConfig& config) {
    auto engine = MisEngine::Create(base, config);
    engine->Initialize();
    Timer timer;
    for (const GraphUpdate& update : burst) engine->Apply(update);
    const double seconds = timer.ElapsedSeconds();
    const EngineStats stats = engine->Stats();
    table.AddRow({stats.algorithm, FormatCount(stats.solution_size),
                  FormatDouble(seconds, 3) + "s",
                  FormatDouble(seconds / updates * 1e6, 2) + "us",
                  FormatBytes(stats.structure_memory_bytes)});
  };

  run({"DyOneSwap"});
  run({"DyTwoSwap"});
  // Recompute-from-scratch once per 100 updates: still far slower in total
  // and its solution is stale between recomputes.
  MaintainerConfig recompute("Recompute");
  recompute.recompute_every = 100;
  run(recompute);

  table.Print(stdout);
  std::printf(
      "\nDy* keep a guaranteed (Delta/2+1)-approximation continuously at "
      "microseconds per update;\nrecomputation is orders of magnitude more "
      "expensive even when amortized 100x, and is\nunboundedly stale "
      "in-between.\n");
  return 0;
}
