// window-sharded: a 2-shard ShardedMisEngine (hash partition, asynchronous
// resolver, DyTwoSwap per shard) on the `smoke` graph, fed a sliding-window
// stream in which every insert expires after a TTL. Writes go in ApplyBatch
// blocks of kBlockOps, with a Flush + CollectSolution barrier every
// kReadEvery ops (the serving cadence). Caller, two workers and the
// resolver make four threads. The only workload that runs the shard layer
// (routing, drain, resolution), and it drives core through its
// deletion-heavy batch path.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common.h"
#include "dynmis/workload.h"
#include "src/serve/workload.h"

namespace perfbench {
namespace {

// The serve layer's `smoke` graph (1500 vertices): with the window's live
// edges the engine stays within a 2 MB L2, so a run measures the engine's
// work rather than how hard other tenants press the shared L3 (README.md,
// "Noise").
constexpr char kGraph[] = "smoke";
constexpr int64_t kBlockOps = 512;
constexpr int64_t kReadEvery = 8192;
// The answer check covers the solutions of the last kCheckedReads barrier
// reads, and quality_vs_greedy is their mean: on a graph this small the
// ratio of a single solution moves with where the run happens to stop.
constexpr int kCheckedReads = 64;
constexpr size_t kTailRounds = 256;

enum SpanName : int32_t { kRoute, kRead, kDrain, kResolve };
const std::vector<std::string> kSpanNames = {
    "shard.ApplyBatch", "shard.read", "shard.Flush", "shard.CollectSolution"};

dynmis::ingest::TemporalStreamOptions WindowFor(const Options& options) {
  dynmis::ingest::TemporalStreamOptions window =
      dynmis::serve::ServeWorkloadWindow("temporal");
  window.seed = options.seed;
  if (options.tiny) window.ttl_ticks = 512;
  return window;
}

// One round: kReadEvery ops in blocks, then a barrier read. Returns the
// next op index.
struct Round {
  std::vector<GraphUpdate> block = std::vector<GraphUpdate>(kBlockOps);
  std::vector<VertexId> solution;
  std::vector<double>* write_us = nullptr;
  std::vector<double>* read_us = nullptr;
  SpanLog* spans = nullptr;

  int64_t Run(dynmis::ShardedMisEngine* engine, const CycledStream& stream,
              int64_t next) {
    for (int64_t done = 0; done < kReadEvery; done += kBlockOps) {
      for (GraphUpdate& update : block) FillUpdate(stream.At(next++), &update);
      const int64_t a = NowNs();
      engine->ApplyBatch(block);
      const int64_t b = NowNs();
      if (write_us != nullptr) {
        write_us->push_back(static_cast<double>(b - a) * 1e-3);
      }
      if (spans != nullptr) spans->Record(kRoute, a, b);
    }
    solution.clear();
    const int64_t a = NowNs();
    engine->Flush();
    const int64_t b = NowNs();
    engine->CollectSolution(&solution);
    const int64_t c = NowNs();
    if (read_us != nullptr) {
      read_us->push_back(static_cast<double>(c - a) * 1e-3);
    }
    if (spans != nullptr) {
      const int32_t read = spans->Record(kRead, a, c);
      spans->Record(kDrain, a, b, read);
      spans->Record(kResolve, b, c, read);
    }
    return next;
  }
};

struct System {
  std::unique_ptr<dynmis::ShardedMisEngine> engine;
  double setup_s = 0;
};

// Build + Create + Initialize + warm-up prefix (whole rounds).
System SetUp(const CycledStream& stream, int64_t warmup) {
  System system;
  const int64_t t0 = NowNs();
  const EdgeListGraph base = dynmis::serve::BuildServeWorkloadGraph(kGraph);
  dynmis::ShardedEngineOptions sharding;
  sharding.num_shards = 2;
  sharding.partition = dynmis::PartitionStrategy::kHash;
  sharding.async_resolver = true;
  system.engine =
      dynmis::ShardedMisEngine::Create(base, {"DyTwoSwap"}, sharding);
  DYNMIS_CHECK(system.engine != nullptr);
  system.engine->Initialize();
  Round round;
  for (int64_t next = 0; next < warmup;) {
    next = round.Run(system.engine.get(), stream, next);
  }
  system.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return system;
}

}  // namespace

Report RunWindowSharded(const Options& options) {
  Report report;
  const dynmis::ingest::TemporalStreamOptions window = WindowFor(options);
  // Three TTLs of ticks reach the steady window; rounded to whole rounds.
  const int64_t warmup =
      (3 * window.ttl_ticks * window.inserts_per_tick + kReadEvery - 1) /
      kReadEvery * kReadEvery;
  const int64_t stream_ops = options.tiny ? 40000 : 1000000;

  const EdgeListGraph base = dynmis::serve::BuildServeWorkloadGraph(kGraph);
  dynmis::ingest::TemporalStats temporal;
  const CycledStream stream(ToEdgeOps(dynmis::ingest::MakeTemporalSequence(
      base.ToDynamic(), static_cast<int>(stream_ops), window, &temporal)));
  ResetPeakRss();

  // Set-up takes ~25 ms, so it is sampled fifteen times for a steady median.
  std::vector<double> setups = SampleSetupInChildren(
      14, [&] { return SetUp(stream, warmup).setup_s; });
  System system = SetUp(stream, warmup);
  setups.push_back(system.setup_s);
  dynmis::ShardedMisEngine& engine = *system.engine;

  std::vector<double> write_us;
  std::vector<double> read_us;
  SpanLog spans;
  Round round;
  round.write_us = &write_us;
  round.read_us = &read_us;
  round.spans = options.trace ? &spans : nullptr;

  const dynmis::ShardedStats shard0 = engine.ShardStats();
  int64_t next = warmup;
  const HostSample host0 = SampleHost();
  const double process_cpu0 = ProcessCpuSeconds();
  const double caller_cpu0 = ThreadCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  // Throughput and CPU per update are medians over rounds, so a slow host
  // second moves only the rounds it hits.
  std::vector<double> round_s;
  std::vector<double> round_cpu_s;
  // The last kCheckedReads solutions (a ring, swapped in without copying)
  // and the op index each was read at.
  std::vector<std::vector<VertexId>> checked(kCheckedReads);
  std::vector<int64_t> checked_at(kCheckedReads, -1);
  for (int64_t a = start; a < deadline;) {
    const double cpu = ProcessCpuSeconds();
    next = round.Run(&engine, stream, next);
    const int64_t b = NowNs();
    round_cpu_s.push_back(ProcessCpuSeconds() - cpu);
    round_s.push_back(static_cast<double>(b - a) * 1e-9);
    a = b;
    const size_t slot = round_s.size() % kCheckedReads;
    std::swap(checked[slot], round.solution);
    checked_at[slot] = next;
  }
  const int64_t end = NowNs();
  const double caller_cpu1 = ThreadCpuSeconds();
  const double process_cpu1 = ProcessCpuSeconds();
  const HostSample host1 = SampleHost();
  const dynmis::ShardedStats shard1 = engine.ShardStats();

  const auto updates = static_cast<double>(next - warmup);
  const auto reads = static_cast<double>(read_us.size());
  report.AddMetric("updates_per_s", kReadEvery / Median(round_s), "ops/s");
  report.AddMetric("cpu_us_per_update",
                   Median(round_cpu_s) * 1e6 / kReadEvery, "us");
  // Block routing has a heavy tail past p99 set by host preemption of the
  // caller thread, so both tails are p90, taken per kTailRounds rounds
  // (~1 s; 25+ reads beyond each read p90) and reported as their median.
  report.AddMetric("write_p50_us", Median(write_us), "us");
  report.AddMetric("write_tail_us",
                   WindowedPercentile(write_us,
                                      kTailRounds * kReadEvery / kBlockOps,
                                      0.90),
                   "us");
  report.AddMetric("read_p50_us", Median(read_us), "us");
  report.AddMetric("read_tail_us",
                   WindowedPercentile(read_us, kTailRounds, 0.90), "us");
  report.AddMetric("peak_rss_mb", PeakRssMb(), "MB");
  const dynmis::EngineStats stats = engine.Stats();
  report.AddMetric("engine_bytes_per_edge",
                   static_cast<double>(stats.graph_memory_bytes +
                                       stats.structure_memory_bytes) /
                       static_cast<double>(stats.num_edges),
                   "B");
  report.AddMetric("setup_s", Median(setups), "s");
  report.attempted = (next - warmup) + static_cast<int64_t>(reads);
  AddHostDiagnostics(host0, host1, &report);
  report.AddDiag("writes", updates, "count");
  report.AddDiag("mean_updates_per_s",
                 updates / (static_cast<double>(end - start) * 1e-9), "ops/s");
  report.AddDiag("mean_cpu_us_per_update",
                 (process_cpu1 - process_cpu0) * 1e6 / updates, "us");
  report.AddDiag("reads", reads, "count");
  report.AddDiag("tail_percentile", 90, "pct");
  report.AddDiag("setup_samples", static_cast<double>(setups.size()), "count");
  report.AddDiag("deletion_share", temporal.deletion_share, "ratio");
  report.AddDiag("cpu_caller_s", caller_cpu1 - caller_cpu0, "s");
  report.AddDiag("cpu_engine_threads_s",
                 (process_cpu1 - process_cpu0) - (caller_cpu1 - caller_cpu0),
                 "s");

  {
    // Replays from the cycle start before the oldest checked read, checking
    // each solution on the graph as it was at its read.
    std::vector<std::pair<int64_t, size_t>> order;
    for (size_t i = 0; i < checked.size(); ++i) {
      if (checked_at[i] >= 0) order.push_back({checked_at[i], i});
    }
    std::sort(order.begin(), order.end());
    DynamicGraph replica = base.ToDynamic();
    int64_t i = stream.CycleStart(order.front().first);
    double quality = 0;
    for (const auto& [at, slot] : order) {
      for (; i < at; ++i) ApplyOp(&replica, stream.At(i));
      quality += CheckAnswer(replica, std::move(checked[slot]), options,
                             &report);
    }
    report.AddMetric("quality_vs_greedy",
                     quality / static_cast<double>(order.size()), "ratio");
    report.AddDiag("checked_reads", static_cast<double>(order.size()),
                   "count");
  }

  if (options.trace) {
    std::vector<double> route = SpanDurationsUs(spans, kRoute);
    std::vector<double> drain = SpanDurationsUs(spans, kDrain);
    std::vector<double> resolve = SpanDurationsUs(spans, kResolve);
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0;
      for (const double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    report.AddLayer("shard.route_us_per_block", mean(route), "us");
    report.AddLayer("shard.drain_ms", mean(drain) * 1e-3, "ms");
    report.AddLayer("shard.resolve_ms", mean(resolve) * 1e-3, "ms");
    report.AddLayer("shard.worker_cpu_us_per_update",
                    ((process_cpu1 - process_cpu0) -
                     (caller_cpu1 - caller_cpu0)) *
                        1e6 / updates,
                    "us");
    report.AddLayer("shard.cut_edge_fraction", shard1.cut_edge_fraction,
                    "ratio");
    const auto barriers = static_cast<double>(shard1.barriers - shard0.barriers);
    const auto evictions =
        static_cast<double>(shard1.evictions - shard0.evictions);
    report.AddLayer("shard.conflicts_per_read",
                    static_cast<double>(shard1.conflicts - shard0.conflicts) /
                        barriers,
                    "count");
    report.AddLayer("shard.evictions_per_read", evictions / barriers, "count");
    report.AddLayer("shard.readded_per_eviction",
                    static_cast<double>(shard1.readded - shard0.readded) /
                        std::max(evictions, 1.0),
                    "ratio");
    system.engine.reset();
    MeasureIngest(base, options.workdir + "/window-edges.txt", &report);
    RunLadder(base, stream, warmup, std::min<int64_t>(next - warmup,
                                                      stream.base_size()),
              &report);
    WriteSpans(options.workdir + "/spans-window-sharded.csv",
               {{"caller", &spans}}, kSpanNames);
    RunServedPhase(options, &report);
  }
  return report;
}

}  // namespace perfbench
