// The one measurement runner: runs named scenarios (update workloads x
// maintainer x batch regime) and emits one machine-readable
// BENCH_<scenario>.json per scenario. The regression scenarios (smoke ...
// storm) produce the committed baselines every PR compares against; the
// paper presets (table1 ... table4, fig7 ... fig10, batch-ablation)
// reproduce the paper's tables and figures.
//
// Per (algorithm, batch regime) the driver reports:
//   * ops/sec over the whole update sequence,
//   * p50/p99 per-op latency (single-op regime, via MisEngine's per-update
//     observer hook) or per-batch latency (batch regime),
//   * peak memory (maintainer structures + graph, sampled periodically),
//   * solution quality (final size, and relative to a min-degree greedy
//     reference on the final graph).
//
// Usage:
//   bench_driver --list
//   bench_driver --scenario smoke [--out PATH]
//   bench_driver --scenario hard --snapshot-every 10000
//   bench_driver --scenario hard --shards 4
//   DYNMIS_BENCH_SCALE=0.1 bench_driver --scenario hard
//   DYNMIS_BENCH_SCALE=0.05 bench_driver --scenario table2
//
// Update counts scale with DYNMIS_BENCH_SCALE (see bench_common.h); the
// committed BENCH_*.json files are measured at scale 1. The scenario-to-
// paper mapping lives in bench/EXPERIMENTS.md.
//
// A paper preset is a list of cases (a graph, an update count and a stream
// seed each), all run against the preset's algorithms and batch sizes under
// the paper's protocol (Section V-A): every run starts from the preset's
// start solution (exact on easy graphs, ARW on hard ones), and each case
// records the quality reference of its final graph (alpha, or the ARW
// best). A one-case scenario writes its case's fields at the top level of
// the JSON; a preset with several cases nests them under "cases". After the
// last case the driver prints the paper's tables from the records it wrote:
// gap and accuracy against the reference, response time and peak memory.
//
// --shards N appends a "sharded" block to the JSON: the same update
// sequence replayed through a ShardedMisEngine (DyTwoSwap per shard, batch
// routing) at 1 shard and at N shards — ops/sec for both, the scaling
// ratio, solution quality vs the greedy reference, the cut-edge fraction,
// and an independence verification of the final solution against an
// independently maintained replica graph. The block is informational for
// the regression gate (tools/check_bench_regression.py ignores it); the
// committed headline numbers live in bench/EXPERIMENTS.md. cpu_count
// records how many hardware threads the measuring machine exposed, since
// shard scaling numbers are meaningless without it.
//
// The "massive" scenario pulls its graph through the streaming ingester
// (src/ingest) — a generated ~2.2M-edge power-law edge file, or
// $DYNMIS_MASSIVE_EDGES when set — and adds an "ingest" block to the JSON
// (load time, bytes/edge, peak RSS). The "temporal" and "storm" scenarios
// replace the random update stream with a sliding-window stream where every
// insert expires after a TTL, and add a "temporal" block (deletion share,
// window peak, expiry backlog).
//
// --snapshot-every N (single-op regime only) measures the durability tax:
// every N applied updates the engine is serialized to an in-memory sink
// inside the timed loop, and after the run the last snapshot is restored
// and the remaining update suffix replayed on the restored engine. The
// per-run JSON grows a "snapshot" object (save cost, size, restore cost,
// and whether the resumed engine converged to the identical solution).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "dynmis/dynmis.h"
#include "dynmis/workload.h"
#include "src/graph/degree_stats.h"
#include "src/serve/workload.h"
#include "src/util/json_writer.h"
#include "src/util/timer.h"

namespace dynmis {
namespace bench {
namespace {

// Where gap and accuracy are measured from (paper Tables II-IV): the exact
// independence number of the final graph, which falls back to the ARW best
// when the exact solver runs out of budget, or the ARW best outright.
enum class Reference { kNone, kAlpha, kBest };

// The exact solver's budgets, for start solutions and alpha references.
constexpr int64_t kExactNodeBudget = 2'000'000;
constexpr double kExactSecondsBudget = 20.0;

// One graph of a scenario, run against the scenario's algorithms and batch
// sizes.
struct Case {
  std::string graph_name;
  std::function<EdgeListGraph()> make_graph;
  // Update count for a graph with m edges, DYNMIS_BENCH_SCALE applied.
  std::function<int(int64_t m)> updates;
  UpdateStreamOptions stream;
};

struct Scenario {
  std::string name;
  std::string description;
  std::vector<Case> cases;
  // Empty for a statistics-only preset (Table I): no update runs.
  std::vector<MaintainerConfig> algos;
  // Batch regimes to run; 1 = single-op (per-op latency percentiles).
  std::vector<int> batch_sizes = {1, 1024};
  // Ingested scenario: the graph comes through the streaming ingester
  // (src/ingest) instead of an in-memory generator, and the JSON gains an
  // "ingest" block with the memory-budget numbers.
  bool ingested = false;
  // Temporal scenario: the update sequence is a sliding-window stream
  // (every insert expires after a TTL) and the JSON gains a "temporal"
  // block with the window shape.
  bool temporal = false;
  ingest::TemporalStreamOptions window;
  // The paper's protocol (Section V-A): how every run starts, the ARW
  // effort for that start and for the best-known reference, and the
  // reference itself.
  InitialSolution start = InitialSolution::kEmpty;
  int arw_iterations = 800;
  Reference reference = Reference::kNone;
};

// A fixed update count, whatever the graph's size.
std::function<int(int64_t)> Fixed(int base_updates) {
  return [base_updates](int64_t) { return ScaledUpdates(base_updates); };
}

// Graphs and stream seeds come from the shared scenario definitions in
// src/serve/workload.{h,cc}, so the serving layer's load generator and
// this driver measure the identical base graphs by construction; the
// bench-specific shape (algorithm list, batch regimes, update sizing)
// lives here.
Scenario FromWorkload(const std::string& name, const std::string& graph_name,
                      std::function<int(int64_t)> updates) {
  Case c;
  c.graph_name = graph_name;
  c.make_graph = [name] { return serve::BuildServeWorkloadGraph(name); };
  c.updates = std::move(updates);
  c.stream = serve::ServeWorkloadStream(name);
  Scenario s;
  s.name = name;
  s.cases.push_back(std::move(c));
  return s;
}

// The TTL tracks DYNMIS_BENCH_SCALE like the update counts do: a scaled-
// down run still pushes a comparable fraction of its stream past the TTL,
// so quick CI runs exercise real expiries instead of an all-insert prefix.
ingest::TemporalStreamOptions ServeWindowScaled(const std::string& name) {
  ingest::TemporalStreamOptions window = serve::ServeWorkloadWindow(name);
  window.ttl_ticks = std::max<uint32_t>(
      64, static_cast<uint32_t>(window.ttl_ticks * BenchScale()));
  // Scale the storm burst with the update budget too, so a reduced-scale
  // run still fits several insert-expire cycles (and thus real deletion
  // batches) into its shortened stream.
  if (window.storm) {
    window.storm_burst = std::max<int>(
        8, static_cast<int>(window.storm_burst * BenchScale()));
  }
  return window;
}

// A paper preset: single-op runs, as the paper times one update at a time.
Scenario Preset(const std::string& name, const std::string& description,
                std::vector<MaintainerConfig> algos, InitialSolution start,
                int arw_iterations, Reference reference) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.algos = std::move(algos);
  s.batch_sizes = {1};
  s.start = start;
  s.arw_iterations = arw_iterations;
  s.reference = reference;
  return s;
}

// A preset case on a dataset stand-in, under the degree-biased churn every
// paper experiment uses.
Case DatasetCase(const std::string& name, std::function<int(int64_t)> updates,
                 uint64_t seed) {
  const DatasetSpec spec = *FindDataset(name);
  Case c;
  c.graph_name = name;
  c.make_graph = [spec] { return GenerateDataset(spec); };
  c.updates = std::move(updates);
  c.stream.seed = seed;
  c.stream.bias = EndpointBias::kDegreeProportional;
  return c;
}

std::vector<Scenario> BuildScenarios() {
  std::vector<Scenario> scenarios;
  {
    // Tiny and fast: the CI regression hook. Exercises both regimes and the
    // full JSON schema in a couple of seconds even at scale 1.
    Scenario s = FromWorkload("smoke", "chung-lu-1500", Fixed(2000));
    s.description = "tiny power-law graph, uniform churn (CI hook)";
    s.algos = {"DyOneSwap", "DyTwoSwap"};
    s.batch_sizes = {1, 256};
    scenarios.push_back(std::move(s));
  }
  {
    // Easy-instance regime (paper Tables II/III): light churn relative to m.
    Scenario s = FromWorkload("easy", "web-Google", SmallBatch);
    s.description = "easy dataset stand-in, light batch (~m/10 updates)";
    s.algos = {"DyOneSwap", "DyTwoSwap", "DyARW"};
    scenarios.push_back(std::move(s));
  }
  {
    // Hard-instance regime (paper Table IV / Fig 6): heavy degree-biased
    // churn. The per-PR DyTwoSwap throughput acceptance numbers come from
    // this scenario's single-op regime.
    Scenario s = FromWorkload("hard", "soc-pokec", LargeBatch);
    s.description =
        "hard dataset stand-in, heavy batch (~m/2 updates), degree-biased";
    s.algos = {"DyOneSwap", "DyTwoSwap", "DyTwoSwap*"};
    scenarios.push_back(std::move(s));
  }
  {
    // Power-law random graph (paper Fig 10), including the generic k-swap
    // maintainer at k=3.
    Scenario s = FromWorkload("powerlaw", "plrg-12000", Fixed(20000));
    s.description = "configuration-model power-law graph, uniform churn";
    s.algos = {"DyOneSwap", "DyTwoSwap", "KSwap3"};
    scenarios.push_back(std::move(s));
  }
  {
    // SNAP-scale ingested graph (>= 2M edges through the streaming
    // ingester): the scenario the paper's real-dataset tables run at, with
    // the ingest memory budget reported alongside the update numbers.
    Scenario s =
        FromWorkload("massive", "ingested-powerlaw-200k", [](int64_t m) {
          return ScaledUpdates(static_cast<int>(m / 20));
        });
    s.ingested = true;
    s.description =
        "ingested ~2.2M-edge power-law edge file (streaming ingester)";
    s.algos = {"DyTwoSwap"};
    s.batch_sizes = {1, 4096};
    scenarios.push_back(std::move(s));
  }
  {
    // Sliding-window stream: inserts expire after a TTL, so the workload
    // turns deletion-heavy in the steady state.
    Scenario s = FromWorkload("temporal", "chung-lu-20000", Fixed(40000));
    s.temporal = true;
    s.window = ServeWindowScaled("temporal");
    s.description = "sliding-window stream: every insert expires after a TTL";
    s.algos = {"DyOneSwap", "DyTwoSwap"};
    scenarios.push_back(std::move(s));
  }
  {
    // Adversarial variant: aligned insert bursts make whole batches expire
    // on a single tick, the worst case for the expiry backlog.
    Scenario s = FromWorkload("storm", "chung-lu-20000", Fixed(40000));
    s.temporal = true;
    s.window = ServeWindowScaled("storm");
    s.description =
        "deletion storm: aligned insert bursts expire as one batch";
    s.algos = {"DyTwoSwap"};
    scenarios.push_back(std::move(s));
  }

  // The paper presets (bench/EXPERIMENTS.md, "What reproduces what"). Each
  // keeps the graphs, stream seeds, update counts, algorithms, start and
  // ARW effort of the experiment it reproduces.
  const std::vector<MaintainerConfig> five = {"DGOneDIS", "DGTwoDIS", "DyARW",
                                              "DyOneSwap", "DyTwoSwap"};
  std::vector<MaintainerConfig> seven = five;
  seven.insert(seven.end(), {"DyOneSwap*", "DyTwoSwap*"});
  const std::vector<DatasetSpec>& easy = EasyDatasets();
  {
    Scenario s;
    s.name = "table1";
    s.description = "Table I: statistics of the 22 dataset stand-ins";
    for (const auto* specs : {&easy, &HardDatasets()}) {
      for (const DatasetSpec& spec : *specs) {
        s.cases.push_back(DatasetCase(spec.name, Fixed(0), 0));
      }
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = Preset("table2",
                        "Table II, Fig 5(a, b): easy graphs, ~m/10 updates, "
                        "exact start, gap to alpha",
                        seven, InitialSolution::kExact, 800, Reference::kAlpha);
    for (const DatasetSpec& spec : easy) {
      s.cases.push_back(
          DatasetCase(spec.name, SmallBatch, spec.seed * 1009 + 1));
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = Preset("table3",
                        "Table III, Fig 5(c): last seven easy graphs, ~m/2 "
                        "updates, exact start, gap to alpha",
                        seven, InitialSolution::kExact, 1500,
                        Reference::kAlpha);
    for (size_t i = 6; i < easy.size(); ++i) {
      s.cases.push_back(
          DatasetCase(easy[i].name, LargeBatch, easy[i].seed * 2027 + 3));
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = Preset("table4",
                        "Table IV, Fig 6: hard graphs, ~m/2 updates, ARW "
                        "start, gap to the ARW best",
                        seven, InitialSolution::kArw, 600, Reference::kBest);
    for (const DatasetSpec& spec : HardDatasets()) {
      s.cases.push_back(
          DatasetCase(spec.name, LargeBatch, spec.seed * 31 + 17));
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = Preset(
        "fig7", "Fig 7(c): perturbation's response-time overhead",
        {"DyOneSwap", "DyOneSwap*", "DyTwoSwap", "DyTwoSwap*"},
        InitialSolution::kArw, 200, Reference::kNone);
    for (const char* name :
         {"web-BerkStan", "hollywood", "com-lj", "soc-LiveJournal"}) {
      s.cases.push_back(
          DatasetCase(name, Fixed(20000), FindDataset(name)->seed * 5 + 9));
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = Preset("fig8",
                        "Fig 8: scalability in the number of updates, gap to "
                        "alpha",
                        five, InitialSolution::kArw, 1000, Reference::kAlpha);
    for (const char* name : {"hollywood", "soc-LiveJournal"}) {
      for (const int updates : {5000, 10000, 20000, 35000, 50000}) {
        s.cases.push_back(DatasetCase(name, Fixed(updates),
                                      FindDataset(name)->seed * 11 + updates));
      }
    }
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = Preset("fig9", "Fig 9: effect of the swap order k",
                        {"KSwap1", "KSwap2", "KSwap3", "KSwap4"},
                        InitialSolution::kArw, 200, Reference::kAlpha);
    s.cases.push_back(DatasetCase("com-lj", Fixed(10000), 987654));
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s = Preset("fig10",
                        "Fig 10: power-law random graphs, beta 1.9..2.7, "
                        "exact start, gap to alpha",
                        five, InitialSolution::kExact, 800, Reference::kAlpha);
    for (const double beta : {1.9, 2.1, 2.3, 2.5, 2.7}) {
      Case c;
      c.graph_name = "plrg-beta-" + FormatDouble(beta, 1);
      c.make_graph = [beta] {
        Rng rng(SplitMix64(static_cast<uint64_t>(beta * 1000)));
        return PowerLawRandomGraph(20000, beta, 1, 20000 / 50, &rng);
      };
      c.updates = Fixed(20000);
      c.stream.seed = static_cast<uint64_t>(beta * 7919);
      c.stream.bias = EndpointBias::kDegreeProportional;
      s.cases.push_back(std::move(c));
    }
    scenarios.push_back(std::move(s));
  }
  {
    // This library's batch extension: the heavy batch applied per op and
    // in blocks, from the maintainers' own start.
    Scenario s = Preset("batch-ablation",
                        "deferred-restoration batch processing, ~m/2 updates",
                        {"DyOneSwap", "DyTwoSwap"}, InitialSolution::kEmpty,
                        0, Reference::kNone);
    s.batch_sizes = {1, 16, 256, 4096};
    s.cases.push_back(DatasetCase("soc-LiveJournal", LargeBatch, 31415));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

// Snapshot-cost measurements for one run (populated when --snapshot-every
// is active and the regime is single-op).
struct SnapshotResult {
  int every = 0;          // 0 = disabled for this run.
  int64_t count = 0;      // Snapshots taken during the timed loop.
  double save_total_seconds = 0;
  size_t last_bytes = 0;  // Serialized size of the last snapshot.
  double restore_seconds = 0;
  // Suffix replay on the restored engine reproduced the original run's
  // final solution exactly.
  bool resume_matches = false;
};

struct RunResult {
  std::string algorithm;
  int batch_size = 1;
  int64_t updates = 0;
  double total_seconds = 0;
  double ops_per_sec = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  // "op" for batch_size 1, else "batch": what the percentiles measure.
  std::string latency_unit;
  size_t peak_memory_bytes = 0;
  int64_t final_solution_size = 0;
  double quality_vs_greedy = 0;
  SnapshotResult snapshot;
};

// Sorted copy of the engine's current solution (for exact-set comparison).
std::vector<VertexId> SortedSolution(const MisEngine& engine) {
  std::vector<VertexId> solution;
  engine.CollectSolution(&solution);
  std::sort(solution.begin(), solution.end());
  return solution;
}

// One sharded measurement (see the "sharded" block description up top).
struct ShardedRunResult {
  int shards = 0;
  std::string partition;
  int64_t updates = 0;
  double total_seconds = 0;
  double ops_per_sec = 0;
  // Number of CollectSolution barriers in the timed region (one per
  // kBarrierEveryOps chunk, like a served workload's periodic queries).
  int64_t barriers = 0;
  // Cumulative wall time across those barriers (drain every shard, then
  // run the resolution pass).
  double barrier_seconds = 0;
  // Engine-reported time inside resolution passes only (both barriers:
  // the post-Initialize one and the final one).
  double resolve_seconds = 0;
  int64_t final_solution_size = 0;
  double quality_vs_greedy = 0;
  double cut_edge_fraction = 0;
  int64_t conflicts = 0;
  int64_t evictions = 0;
  int64_t readded = 0;
  bool verified_independent = false;
};

// True when `solution` is an independent set of `g` with every member
// alive (bitmap + one edge scan; the brute-force test verifiers are too
// slow at bench scale).
bool VerifyIndependent(const DynamicGraph& g,
                       const std::vector<VertexId>& solution) {
  std::vector<uint8_t> member(g.VertexCapacity(), 0);
  for (const VertexId v : solution) {
    if (!g.IsVertexAlive(v) || member[v]) return false;
    member[v] = 1;
  }
  for (const auto& [u, v] : g.EdgeList()) {
    if (member[u] && member[v]) return false;
  }
  return true;
}

ShardedRunResult RunSharded(const EdgeListGraph& base,
                            const std::vector<GraphUpdate>& updates,
                            const DynamicGraph& final_graph, int shards,
                            int batch_size, int64_t greedy_reference,
                            PartitionStrategy partition) {
  ShardedRunResult result;
  result.shards = shards;
  result.partition = PartitionStrategyName(partition);
  result.updates = static_cast<int64_t>(updates.size());

  ShardedEngineOptions options;
  options.num_shards = shards;
  options.partition = partition;
  auto engine = ShardedMisEngine::Create(base, {"DyTwoSwap"}, options);
  DYNMIS_CHECK(engine != nullptr);
  engine->Initialize();

  // Timed region: routing + shard work + every barrier and resolution
  // pass, so the repair cost is charged to the throughput number. The
  // sequence is applied in chunks of `batch_size` ops with a
  // CollectSolution barrier after each one — the cadence a served workload
  // imposes through periodic queries. barrier_seconds accumulates the wall
  // time of all barriers.
  Timer timer;
  std::vector<VertexId> solution;
  for (size_t begin = 0; begin < updates.size();) {
    const size_t end =
        std::min(updates.size(), begin + static_cast<size_t>(batch_size));
    engine->ApplyBatch({updates.begin() + static_cast<ptrdiff_t>(begin),
                        updates.begin() + static_cast<ptrdiff_t>(end)});
    Timer barrier_timer;
    engine->Flush();
    solution = engine->Solution();
    result.barrier_seconds += barrier_timer.ElapsedSeconds();
    ++result.barriers;
    begin = end;
  }
  result.total_seconds = timer.ElapsedSeconds();

  result.ops_per_sec =
      result.total_seconds > 0
          ? static_cast<double>(result.updates) / result.total_seconds
          : 0;
  result.final_solution_size = static_cast<int64_t>(solution.size());
  result.quality_vs_greedy =
      greedy_reference > 0
          ? static_cast<double>(result.final_solution_size) /
                static_cast<double>(greedy_reference)
          : 0;
  const ShardedStats stats = engine->ShardStats();
  result.cut_edge_fraction = stats.cut_edge_fraction;
  result.resolve_seconds = stats.resolve_seconds;
  result.conflicts = stats.conflicts;
  result.evictions = stats.evictions;
  result.readded = stats.readded;
  result.verified_independent = VerifyIndependent(final_graph, solution);
  return result;
}

RunResult RunOne(const EdgeListGraph& base,
                 const std::vector<GraphUpdate>& updates,
                 const std::vector<VertexId>& initial,
                 const MaintainerConfig& config, int batch_size,
                 int64_t greedy_reference, int snapshot_every) {
  RunResult result;
  result.batch_size = batch_size;
  result.updates = static_cast<int64_t>(updates.size());
  result.latency_unit = batch_size == 1 ? "op" : "batch";

  auto engine = MisEngine::Create(base, config);
  DYNMIS_CHECK(engine != nullptr);
  engine->Initialize(initial);

  std::vector<double> latencies;
  latencies.reserve(updates.size() / std::max(batch_size, 1) + 1);
  if (batch_size == 1) {
    engine->SetUpdateObserver(
        [&](const GraphUpdate&, int64_t, double seconds) {
          latencies.push_back(seconds);
        });
  }

  size_t peak_memory = 0;
  auto sample_memory = [&] {
    const EngineStats stats = engine->Stats();
    peak_memory = std::max(
        peak_memory, stats.structure_memory_bytes + stats.graph_memory_bytes);
  };
  sample_memory();

  // Periodic serialization inside the timed loop (single-op regime only).
  // The durability cost lands in total_seconds / ops_per_sec; the per-op
  // latency percentiles exclude it (the observer times only the Apply
  // calls), so compare ops_per_sec against a plain run to size the tax.
  const bool snapshotting = snapshot_every > 0 && batch_size == 1;
  std::string last_snapshot;
  size_t last_snapshot_index = 0;
  SnapshotResult snap;
  snap.every = snapshotting ? snapshot_every : 0;

  constexpr size_t kMemorySampleEvery = 1024;
  Timer timer;
  if (batch_size == 1) {
    size_t since_sample = 0;
    size_t since_snapshot = 0;
    size_t applied = 0;
    for (const GraphUpdate& update : updates) {
      engine->Apply(update);
      ++applied;
      if (++since_sample >= kMemorySampleEvery) {
        since_sample = 0;
        sample_memory();
      }
      if (snapshotting && ++since_snapshot >= static_cast<size_t>(
                                                  snapshot_every)) {
        since_snapshot = 0;
        Timer save_timer;
        std::ostringstream sink;
        const SnapshotStatus status = engine->SaveSnapshot(sink);
        snap.save_total_seconds += save_timer.ElapsedSeconds();
        DYNMIS_CHECK(status.ok);
        ++snap.count;
        last_snapshot = std::move(sink).str();
        last_snapshot_index = applied;
      }
    }
  } else {
    std::vector<GraphUpdate> block;
    for (size_t i = 0; i < updates.size(); i += batch_size) {
      const size_t end = std::min(updates.size(), i + batch_size);
      block.assign(updates.begin() + i, updates.begin() + end);
      Timer batch_timer;
      engine->ApplyBatch(block);
      latencies.push_back(batch_timer.ElapsedSeconds());
      sample_memory();
    }
  }
  result.total_seconds = timer.ElapsedSeconds();
  sample_memory();

  result.algorithm = engine->Stats().algorithm;
  result.ops_per_sec = result.total_seconds > 0
                           ? static_cast<double>(result.updates) /
                                 result.total_seconds
                           : 0;
  std::sort(latencies.begin(), latencies.end());
  result.latency_p50_us = Percentile(latencies, 0.50) * 1e6;
  result.latency_p99_us = Percentile(latencies, 0.99) * 1e6;
  result.peak_memory_bytes = peak_memory;
  result.final_solution_size = engine->SolutionSize();
  result.quality_vs_greedy =
      greedy_reference > 0 ? static_cast<double>(result.final_solution_size) /
                                 static_cast<double>(greedy_reference)
                           : 0;

  // Restore-then-resume: load the last snapshot, replay the remaining
  // suffix, and require the identical final solution set — the round-trip
  // invariant measured at benchmark scale.
  if (snapshotting && snap.count > 0) {
    snap.last_bytes = last_snapshot.size();
    std::istringstream source(last_snapshot);
    Timer restore_timer;
    SnapshotStatus status;
    std::unique_ptr<MisEngine> restored =
        MisEngine::LoadSnapshot(source, &status);
    snap.restore_seconds = restore_timer.ElapsedSeconds();
    DYNMIS_CHECK(restored != nullptr);
    for (size_t i = last_snapshot_index; i < updates.size(); ++i) {
      restored->Apply(updates[i]);
    }
    snap.resume_matches = SortedSolution(*restored) == SortedSolution(*engine);
  }
  result.snapshot = snap;
  return result;
}

// What a case wrote to the JSON, kept for the tables printed after the
// last case.
struct CaseRecord {
  std::string graph_name;
  int n = 0;
  int64_t m = 0;
  double beta_fit = 0;  // Statistics-only presets.
  int updates = 0;
  int64_t reference = 0;
  std::string reference_kind;  // "alpha" or "best"; empty without one.
  std::vector<RunResult> runs;
};

// Runs one case of `scenario` and writes its fields into the open JSON
// object.
CaseRecord RunCase(const Scenario& scenario, const Case& c,
                   int snapshot_every, int sharded_shards,
                   PartitionStrategy partition, JsonWriter* json) {
  JsonWriter& w = *json;
  CaseRecord record;
  record.graph_name = c.graph_name;
  ingest::IngestReport ingest_report;
  const EdgeListGraph base =
      scenario.ingested ? serve::BuildMassiveWorkloadGraph(&ingest_report)
                        : c.make_graph();
  record.n = base.n;
  record.m = base.NumEdges();
  w.BeginObject("graph");
  w.String("name", c.graph_name);
  w.Int("n", base.n);
  w.Int("m", base.NumEdges());
  if (scenario.algos.empty()) {
    record.beta_fit =
        EstimatePowerLawExponent(ComputeDegreeStats(base.ToStatic()));
    w.Double("beta_fit", record.beta_fit);
    w.EndObject();
    std::printf("  graph %s: n=%d m=%lld\n", c.graph_name.c_str(), base.n,
                static_cast<long long>(base.NumEdges()));
    return record;
  }
  w.EndObject();
  if (scenario.ingested) {
    std::printf(
        "  ingest: %lld edges in %.2fs, %.1f bytes/edge, peak RSS %zu MB%s\n",
        static_cast<long long>(ingest_report.edges),
        ingest_report.load_seconds, ingest_report.bytes_per_edge,
        ingest_report.peak_rss_bytes >> 20,
        ingest_report.header_reserved ? " (header reserved)" : "");
  }
  const int num_updates = c.updates(base.NumEdges());
  record.updates = num_updates;
  std::printf("  graph %s: n=%d m=%lld, %d updates\n", c.graph_name.c_str(),
              base.n, static_cast<long long>(base.NumEdges()), num_updates);

  // One shared update sequence: every (algorithm, regime) run replays the
  // identical ops, so numbers are comparable within and across scenarios.
  DynamicGraph scratch = base.ToDynamic();
  ingest::TemporalStats temporal_stats;
  const std::vector<GraphUpdate> updates =
      scenario.temporal
          ? ingest::MakeTemporalSequence(scratch, num_updates,
                                         scenario.window, &temporal_stats)
          : MakeUpdateSequence(scratch, num_updates, c.stream);
  if (scenario.temporal) {
    std::printf(
        "  temporal: ttl=%u, %lld inserts / %lld expiries (%.0f%% "
        "deletions), window peak %zu edges, expiry backlog peak %zu\n",
        temporal_stats.ttl_ticks,
        static_cast<long long>(temporal_stats.inserts),
        static_cast<long long>(temporal_stats.expiries),
        temporal_stats.deletion_share * 100, temporal_stats.window_peak_edges,
        temporal_stats.expiry_backlog_peak);
  }

  // Quality references on the final graph (the sequence is deterministic,
  // so every run ends on the same graph): min-degree greedy always, and
  // the preset's alpha or ARW best.
  for (const GraphUpdate& update : updates) ApplyUpdate(&scratch, update);
  const StaticGraph final_graph = StaticGraph::FromDynamic(scratch);
  const int64_t greedy_reference =
      static_cast<int64_t>(GreedyMis(final_graph).size());
  if (scenario.reference == Reference::kAlpha) {
    ExactMisOptions options;
    options.max_nodes = kExactNodeBudget;
    options.max_seconds = kExactSecondsBudget;
    if (const std::optional<int64_t> alpha = ExactAlpha(final_graph, options)) {
      record.reference = *alpha;
      record.reference_kind = "alpha";
    }
  }
  if (scenario.reference != Reference::kNone &&
      record.reference_kind.empty()) {
    ArwOptions arw;
    arw.iterations = scenario.arw_iterations;
    record.reference = static_cast<int64_t>(ArwMis(final_graph, arw).size());
    record.reference_kind = "best";
  }
  if (!record.reference_kind.empty()) {
    std::printf("  reference: %s %lld\n", record.reference_kind.c_str(),
                static_cast<long long>(record.reference));
  }

  const std::vector<VertexId> initial = ComputeInitialSolution(
      base, scenario.start, scenario.arw_iterations, kExactNodeBudget,
      kExactSecondsBudget);
  for (const MaintainerConfig& algo : scenario.algos) {
    for (int batch_size : scenario.batch_sizes) {
      RunResult run = RunOne(base, updates, initial, algo, batch_size,
                             greedy_reference, snapshot_every);
      std::printf(
          "  %-12s batch=%-5d %10.0f ops/s  p50=%8.2fus p99=%8.2fus  "
          "peak=%8zuKB  |I|=%lld (%.3f of greedy)\n",
          run.algorithm.c_str(), run.batch_size, run.ops_per_sec,
          run.latency_p50_us, run.latency_p99_us, run.peak_memory_bytes / 1024,
          static_cast<long long>(run.final_solution_size),
          run.quality_vs_greedy);
      if (run.snapshot.every > 0) {
        std::printf(
            "  %-12s   snapshots: %lld x %.2fms save, %zuKB, restore "
            "%.2fms, resume %s\n",
            "", static_cast<long long>(run.snapshot.count),
            run.snapshot.count > 0 ? run.snapshot.save_total_seconds /
                                         run.snapshot.count * 1e3
                                   : 0.0,
            run.snapshot.last_bytes / 1024, run.snapshot.restore_seconds * 1e3,
            run.snapshot.resume_matches ? "matches" : "DIVERGED");
      }
      record.runs.push_back(std::move(run));
    }
  }

  // Sharded measurement: the identical sequence through a vertex-
  // partitioned engine — at 1 shard (the degenerate baseline), at the
  // requested count under every partition plan (cut fraction and resolve
  // cost are per-plan numbers).
  ShardedRunResult sharded_base;
  ShardedRunResult sharded;
  std::vector<ShardedRunResult> plan_runs;
  // Ops per ApplyBatch chunk, and so per barrier, in the sharded runs.
  const int sharded_batch = 8192;
  if (sharded_shards > 1) {
    auto print_sharded = [&](const ShardedRunResult& r) {
      std::printf(
          "  sharded x%-3d %-8s %9.0f ops/s  cut=%4.1f%%  "
          "barrier=%6.1fms  |I|=%lld (%.3f of greedy)  %s\n",
          r.shards, r.partition.c_str(), r.ops_per_sec,
          r.cut_edge_fraction * 100, r.barrier_seconds * 1e3,
          static_cast<long long>(r.final_solution_size), r.quality_vs_greedy,
          r.verified_independent ? "verified" : "NOT INDEPENDENT");
    };
    sharded_base = RunSharded(base, updates, scratch, 1, sharded_batch,
                              greedy_reference, partition);
    print_sharded(sharded_base);
    for (const PartitionStrategy strategy :
         {PartitionStrategy::kHash, PartitionStrategy::kRange,
          PartitionStrategy::kLocality}) {
      ShardedRunResult run =
          RunSharded(base, updates, scratch, sharded_shards, sharded_batch,
                     greedy_reference, strategy);
      print_sharded(run);
      if (strategy == partition) sharded = run;
      plan_runs.push_back(std::move(run));
    }
    std::printf("  sharded scaling x%d vs x1: %.2fx (%u hardware threads)\n",
                sharded.shards,
                sharded_base.ops_per_sec > 0
                    ? sharded.ops_per_sec / sharded_base.ops_per_sec
                    : 0,
                std::thread::hardware_concurrency());
  }

  w.Int("updates", num_updates);
  w.Int("greedy_reference", greedy_reference);
  if (!record.reference_kind.empty()) {
    w.Int("reference", record.reference);
    w.String("reference_kind", record.reference_kind);
  }
  // Memory budget of the streaming ingest (environment-dependent, like the
  // "serving" block: the regression checker pops it).
  if (scenario.ingested) {
    w.BeginObject("ingest");
    w.Int("vertices", ingest_report.vertices);
    w.Int("edges", ingest_report.edges);
    w.Int("dropped_self_loops", ingest_report.dropped_self_loops);
    w.Int("dropped_duplicates", ingest_report.dropped_duplicates);
    w.Bool("header_reserved", ingest_report.header_reserved);
    w.Bool("gzip", ingest_report.gzip);
    w.Double("load_seconds", ingest_report.load_seconds);
    w.Uint("graph_bytes", ingest_report.graph_bytes);
    w.Double("bytes_per_edge", ingest_report.bytes_per_edge);
    w.Uint("peak_rss_bytes", ingest_report.peak_rss_bytes);
    w.EndObject();
  }
  // Shape of the sliding-window stream the runs replayed (deterministic,
  // but scale-dependent: the regression checker pops it too).
  if (scenario.temporal) {
    w.BeginObject("temporal");
    w.Int("ttl_ticks", temporal_stats.ttl_ticks);
    w.Int("inserts", temporal_stats.inserts);
    w.Int("expiries", temporal_stats.expiries);
    w.Double("deletion_share", temporal_stats.deletion_share);
    w.Uint("window_peak_edges", temporal_stats.window_peak_edges);
    w.Uint("expiry_backlog_peak", temporal_stats.expiry_backlog_peak);
    w.Bool("storm", scenario.window.storm);
    w.EndObject();
  }
  w.BeginArray("runs");
  for (const RunResult& run : record.runs) {
    w.BeginObject();
    w.String("algorithm", run.algorithm);
    w.Int("batch_size", run.batch_size);
    w.Int("updates", run.updates);
    w.Double("total_seconds", run.total_seconds);
    w.Double("ops_per_sec", run.ops_per_sec);
    w.String("latency_unit", run.latency_unit);
    w.Double("latency_p50_us", run.latency_p50_us);
    w.Double("latency_p99_us", run.latency_p99_us);
    w.Uint("peak_memory_bytes", run.peak_memory_bytes);
    w.Int("final_solution_size", run.final_solution_size);
    w.Double("quality_vs_greedy", run.quality_vs_greedy);
    if (run.snapshot.every > 0) {
      w.BeginObject("snapshot");
      w.Int("every", run.snapshot.every);
      w.Int("count", run.snapshot.count);
      w.Double("save_total_seconds", run.snapshot.save_total_seconds);
      w.Uint("last_bytes", run.snapshot.last_bytes);
      w.Double("restore_seconds", run.snapshot.restore_seconds);
      w.Bool("resume_matches", run.snapshot.resume_matches);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  if (sharded_shards > 1) {
    auto emit_sharded_run = [&](const ShardedRunResult& r) {
      w.Int("shards", r.shards);
      w.String("partition", r.partition);
      w.Int("updates", r.updates);
      w.Double("total_seconds", r.total_seconds);
      w.Double("ops_per_sec", r.ops_per_sec);
      w.Int("final_solution_size", r.final_solution_size);
      w.Double("quality_vs_greedy", r.quality_vs_greedy);
      w.Double("cut_edge_fraction", r.cut_edge_fraction);
      w.Int("conflicts", r.conflicts);
      w.Int("evictions", r.evictions);
      w.Int("readded", r.readded);
      w.Int("barriers", r.barriers);
      w.Double("barrier_seconds", r.barrier_seconds);
      w.Double("resolve_seconds", r.resolve_seconds);
      w.Bool("verified_independent", r.verified_independent);
    };
    w.BeginObject("sharded");
    w.String("algorithm", "DyTwoSwap");
    w.Int("batch_size", sharded_batch);
    emit_sharded_run(sharded);
    w.Double("scaling_vs_one_shard",
             sharded_base.ops_per_sec > 0
                 ? sharded.ops_per_sec / sharded_base.ops_per_sec
                 : 0);
    w.BeginObject("one_shard");
    emit_sharded_run(sharded_base);
    w.EndObject();
    // One run per partition plan at the requested shard count, so cut-edge
    // fraction and resolve cost are comparable across plans.
    w.BeginArray("plans");
    for (const ShardedRunResult& r : plan_runs) {
      w.BeginObject();
      emit_sharded_run(r);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  return record;
}

// The paper's tables from the case records: one row per case, one column
// per run. Gap and accuracy are measured against the case's reference
// ('^' marks a run that beat it); without a reference the table shows the
// final sizes.
void PrintTables(const Scenario& scenario,
                 const std::vector<CaseRecord>& cases) {
  if (scenario.algos.empty()) {
    TablePrinter table({"graph", "n", "m", "avg-deg", "beta-fit", "paper-n",
                        "paper-m", "paper-avg"});
    for (const CaseRecord& c : cases) {
      const DatasetSpec* spec = FindDataset(c.graph_name);
      table.AddRow({c.graph_name, FormatCount(c.n), FormatCount(c.m),
                    FormatDouble(2.0 * c.m / c.n, 2),
                    FormatDouble(c.beta_fit, 2), FormatCount(spec->paper_n),
                    FormatCount(spec->paper_m),
                    FormatDouble(spec->paper_avg_degree, 2)});
    }
    std::printf("\ngraph statistics:\n");
    table.Print(stdout);
    return;
  }
  const bool with_reference = scenario.reference != Reference::kNone;
  auto print = [&](const char* title, auto cell) {
    std::vector<std::string> headers = {"graph", "updates"};
    if (with_reference) headers.push_back("reference");
    for (const RunResult& run : cases.front().runs) {
      headers.push_back(scenario.batch_sizes.size() > 1
                            ? run.algorithm + " b" +
                                  std::to_string(run.batch_size)
                            : run.algorithm);
    }
    TablePrinter table(headers);
    for (const CaseRecord& c : cases) {
      std::vector<std::string> row = {c.graph_name, FormatCount(c.updates)};
      if (with_reference) {
        row.push_back(c.reference_kind + " " + FormatCount(c.reference));
      }
      for (const RunResult& run : c.runs) row.push_back(cell(c, run));
      table.AddRow(std::move(row));
    }
    std::printf("\n%s:\n", title);
    table.Print(stdout);
  };
  if (with_reference) {
    print("gap to the reference", [](const CaseRecord& c, const RunResult& r) {
      const int64_t gap = c.reference - r.final_solution_size;
      return gap < 0 ? FormatCount(-gap) + "^" : FormatCount(gap);
    });
    print("accuracy", [](const CaseRecord& c, const RunResult& r) {
      return FormatPercent(c.reference == 0
                               ? 1.0
                               : static_cast<double>(r.final_solution_size) /
                                     static_cast<double>(c.reference));
    });
  } else {
    print("final solution size", [](const CaseRecord&, const RunResult& r) {
      return FormatCount(r.final_solution_size);
    });
  }
  print("response time (s)", [](const CaseRecord&, const RunResult& r) {
    return FormatDouble(r.total_seconds, 3);
  });
  print("peak memory", [](const CaseRecord&, const RunResult& r) {
    return FormatBytes(r.peak_memory_bytes);
  });
}

// A one-case scenario writes its case's fields at the top level; a preset
// with several cases nests them under "cases".
int RunScenario(const Scenario& scenario, const std::string& out_path,
                int snapshot_every, int sharded_shards,
                PartitionStrategy partition) {
  std::printf("scenario %s: %s\n", scenario.name.c_str(),
              scenario.description.c_str());
  JsonWriter w;
  w.BeginObject();
  w.Int("schema_version", 1);
  w.String("scenario", scenario.name);
  w.String("description", scenario.description);
  w.Double("scale", BenchScale());
  // Hardware threads visible to this measurement — shard scaling numbers
  // (and to a degree every throughput number) are only interpretable
  // alongside it.
  w.Int("cpu_count", std::thread::hardware_concurrency());
  const bool nested = scenario.cases.size() > 1;
  if (nested) w.BeginArray("cases");
  std::vector<CaseRecord> records;
  for (const Case& c : scenario.cases) {
    if (nested) w.BeginObject();
    records.push_back(RunCase(scenario, c, snapshot_every, sharded_shards,
                              partition, &w));
    if (nested) w.EndObject();
  }
  if (nested) w.EndArray();
  w.EndObject();
  PrintTables(scenario, records);

  if (!WriteFile(out_path, w.Take())) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", out_path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  std::string scenario_name;
  std::string out_path;
  int snapshot_every = 0;
  int sharded_shards = 0;
  PartitionStrategy partition = PartitionStrategy::kHash;
  bool list = false;
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: bench_driver --scenario NAME [--out PATH] "
                 "[--snapshot-every N] [--shards N] "
                 "[--partition hash|range|locality] | --list\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool takes_value = arg == "--scenario" || arg == "--out" ||
                             arg == "--snapshot-every" || arg == "--shards" ||
                             arg == "--partition";
    if (takes_value && i + 1 == argc) return usage();
    auto next = [&] { return argv[++i]; };
    if (arg == "--scenario") {
      scenario_name = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--snapshot-every") {
      snapshot_every = std::atoi(next());
      if (snapshot_every <= 0) {
        std::fprintf(stderr, "--snapshot-every expects a positive count\n");
        return 2;
      }
    } else if (arg == "--shards") {
      sharded_shards = std::atoi(next());
      if (sharded_shards < 2) {
        std::fprintf(stderr,
                     "--shards expects a count >= 2 (1 is measured as the "
                     "scaling baseline automatically)\n");
        return 2;
      }
    } else if (arg == "--partition") {
      const std::string name = next();
      if (!ParsePartitionStrategy(name, &partition)) {
        std::fprintf(stderr,
                     "--partition expects hash, range, or locality (got "
                     "'%s')\n",
                     name.c_str());
        return 2;
      }
    } else if (arg == "--list") {
      list = true;
    } else {
      return usage();
    }
  }
  const std::vector<Scenario> scenarios = BuildScenarios();
  if (list || scenario_name.empty()) {
    std::printf("scenarios:\n");
    for (const Scenario& s : scenarios) {
      std::printf("  %-15s %s\n", s.name.c_str(), s.description.c_str());
    }
    return list ? 0 : 2;
  }
  for (const Scenario& s : scenarios) {
    if (s.name == scenario_name) {
      const std::string path =
          out_path.empty() ? "BENCH_" + s.name + ".json" : out_path;
      return RunScenario(s, path, snapshot_every, sharded_shards, partition);
    }
  }
  std::fprintf(stderr, "error: unknown scenario '%s' (try --list)\n",
               scenario_name.c_str());
  return 2;
}

}  // namespace
}  // namespace bench
}  // namespace dynmis

int main(int argc, char** argv) { return dynmis::bench::Main(argc, argv); }
