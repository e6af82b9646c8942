// massive-churn: one DyTwoSwap MisEngine over the ~2.02M-edge ingested
// power-law graph, driven by single-op Apply calls from a pre-drawn,
// degree-biased insert/delete stream, with a CollectSolution read every
// few thousand writes. The working set (~340 MB) is far above the
// last-level cache, so the graph, core and memory dominate; serve, repl and
// shard are not on the path.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "common.h"
#include "dynmis/workload.h"
#include "src/serve/workload.h"

namespace perfbench {
namespace {

enum SpanName : int32_t { kApply, kCollect, kIngest, kCreate, kInitialize };
// A traced run keeps the span of every kSpanEvery-th Apply, which bounds the
// span log to ~100 MB at half a million updates per second.
constexpr int64_t kSpanEvery = 8;
const std::vector<std::string> kSpanNames = {
    "api.Apply", "api.CollectSolution", "ingest.IngestEdgeList",
    "api.MisEngine::Create", "api.Initialize"};

struct Sizes {
  int nodes;
  double avg_degree;
  int64_t stream_ops;  // Pre-drawn base stream S.
  int64_t warmup_ops;  // Applied inside setup_s.
  int64_t read_every;  // Writes per CollectSolution read.
};

// The full size is the graph serve::BuildMassiveWorkloadGraph generates by
// default (n=200000, average degree 22, beta 2.3, seed 9); the file is made
// here so the run never writes outside its checkout.
Sizes SizesFor(const Options& options) {
  if (options.tiny) return {5000, 10.0, 20000, 2000, 64};
  // Reads every 2048 writes keep ~1000+ reads (a supported p99) in a 20 s
  // run even on a slow host, at ~15% of the timed phase.
  return {200000, 22.0, 500000, 50000, 2048};
}

std::string EnsureEdgeFile(const Options& options, const Sizes& sizes) {
  const std::string dir = options.workdir + "/inputs";
  MakeDirs(dir);
  const std::string path = dir + "/massive-n" + std::to_string(sizes.nodes) +
                           "-d" + std::to_string(static_cast<int>(sizes.avg_degree)) +
                           "-b2.3-s9.txt";
  if (std::ifstream(path).good()) return path;
  const std::string staging = path + ".tmp." + std::to_string(getpid());
  std::string error;
  DYNMIS_CHECK(dynmis::ingest::GeneratePowerLawEdgeFile(
                   staging, sizes.nodes, sizes.avg_degree, 2.3, 9, &error) >= 0);
  DYNMIS_CHECK(std::rename(staging.c_str(), path.c_str()) == 0);
  return path;
}

// Reads the file once so the timed ingest finds it in the page cache.
void PageCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buffer(1 << 20);
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
  }
}

struct System {
  std::unique_ptr<dynmis::MisEngine> engine;
  dynmis::ingest::IngestReport ingest;
  double setup_s = 0;
};

// Ingest + Create + Initialize + warm-up prefix: everything setup_s counts.
System SetUp(const CycledStream& stream, int64_t warmup, SpanLog* spans) {
  System system;
  const int64_t t0 = NowNs();
  const EdgeListGraph base =
      dynmis::serve::BuildMassiveWorkloadGraph(&system.ingest);
  const int64_t t1 = NowNs();
  system.engine = dynmis::MisEngine::Create(base, {"DyTwoSwap"});
  DYNMIS_CHECK(system.engine != nullptr);
  const int64_t t2 = NowNs();
  system.engine->Initialize();
  const int64_t t3 = NowNs();
  GraphUpdate update;
  for (int64_t i = 0; i < warmup; ++i) {
    FillUpdate(stream.At(i), &update);
    system.engine->Apply(update);
  }
  system.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  if (spans != nullptr) {
    spans->Record(kIngest, t0, t1);
    spans->Record(kCreate, t1, t2);
    spans->Record(kInitialize, t2, t3);
  }
  return system;
}

}  // namespace

Report RunMassiveChurn(const Options& options) {
  Report report;
  const Sizes sizes = SizesFor(options);
  const std::string edge_file = EnsureEdgeFile(options, sizes);
  setenv("DYNMIS_MASSIVE_EDGES", edge_file.c_str(), 1);
  PageCache(edge_file);

  // Inputs, drawn before any timer: S is valid against the base graph.
  CycledStream stream;
  {
    const EdgeListGraph base = dynmis::serve::BuildMassiveWorkloadGraph(nullptr);
    dynmis::UpdateStreamOptions stream_options;
    stream_options.edge_op_fraction = 1.0;
    stream_options.insert_fraction = 0.5;
    stream_options.bias = dynmis::EndpointBias::kDegreeProportional;
    stream_options.seed = options.seed;
    stream = CycledStream(ToEdgeOps(dynmis::MakeUpdateSequence(
        base.ToDynamic(), static_cast<int>(sizes.stream_ops), stream_options)));
  }
  ResetPeakRss();

  // Set-up is sampled in fresh child processes plus this one; only this
  // process's instance is timed, on memory nothing else has used.
  std::vector<double> setups = SampleSetupInChildren(
      4, [&] { return SetUp(stream, sizes.warmup_ops, nullptr).setup_s; });
  SpanLog spans;
  if (options.trace) {
    spans.Reserve(static_cast<size_t>(options.seconds * 1e6 / kSpanEvery));
  }
  System system =
      SetUp(stream, sizes.warmup_ops, options.trace ? &spans : nullptr);
  setups.push_back(system.setup_s);
  dynmis::MisEngine& engine = *system.engine;

  std::vector<double> write_us;
  write_us.reserve(static_cast<size_t>(options.seconds * 1e6));
  std::vector<double> read_us;
  std::vector<VertexId> buffer;
  GraphUpdate update;
  int64_t next = sizes.warmup_ops;
  int64_t writes = 0;

  // Throughput and CPU per update are medians over rounds (read_every
  // writes and their read), so a slow host second moves only the rounds it
  // hits.
  std::vector<double> round_s;
  std::vector<double> round_cpu_s;
  const HostSample host0 = SampleHost();
  const double cpu0 = ThreadCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t round_start = start;
  double round_cpu = cpu0;
  for (int64_t now = start; now < deadline;) {
    FillUpdate(stream.At(next++), &update);
    const int64_t a = NowNs();
    engine.Apply(update);
    now = NowNs();
    write_us.push_back(static_cast<double>(now - a) * 1e-3);
    if (options.trace && writes % kSpanEvery == 0) spans.Record(kApply, a, now);
    if (++writes % sizes.read_every == 0) {
      buffer.clear();
      const int64_t c = NowNs();
      engine.CollectSolution(&buffer);
      now = NowNs();
      read_us.push_back(static_cast<double>(now - c) * 1e-3);
      if (options.trace) spans.Record(kCollect, c, now);
      const double cpu = ThreadCpuSeconds();
      round_s.push_back(static_cast<double>(now - round_start) * 1e-9);
      round_cpu_s.push_back(cpu - round_cpu);
      round_start = now;
      round_cpu = cpu;
    }
  }
  const int64_t end = NowNs();
  const double cpu1 = ThreadCpuSeconds();
  const HostSample host1 = SampleHost();

  const double wall_s = static_cast<double>(end - start) * 1e-9;
  const auto n_writes = static_cast<double>(writes);
  const auto read_every = static_cast<double>(sizes.read_every);
  report.AddMetric("updates_per_s", read_every / Median(round_s), "ops/s");
  report.AddMetric("cpu_us_per_update",
                   Median(round_cpu_s) * 1e6 / read_every, "us");
  report.AddMetric("write_p50_us", Percentile(&write_us, 0.50), "us");
  report.AddMetric("write_tail_us", Percentile(&write_us, 0.99), "us");
  report.AddMetric("read_p50_us", Percentile(&read_us, 0.50), "us");
  report.AddMetric("read_tail_us", Percentile(&read_us, 0.99), "us");
  report.AddMetric("peak_rss_mb", PeakRssMb(), "MB");
  const dynmis::EngineStats stats = engine.Stats();
  report.AddMetric("engine_bytes_per_edge",
                   static_cast<double>(stats.graph_memory_bytes +
                                       stats.structure_memory_bytes) /
                       static_cast<double>(stats.num_edges),
                   "B");
  report.AddMetric("setup_s", Median(setups), "s");
  report.attempted = writes + static_cast<int64_t>(read_us.size());
  AddHostDiagnostics(host0, host1, &report);
  report.AddDiag("writes", n_writes, "count");
  report.AddDiag("mean_updates_per_s", n_writes / wall_s, "ops/s");
  report.AddDiag("mean_cpu_us_per_update", (cpu1 - cpu0) * 1e6 / n_writes,
                 "us");
  report.AddDiag("reads", static_cast<double>(read_us.size()), "count");
  report.AddDiag("tail_percentile", 99, "pct");
  report.AddDiag("setup_samples", static_cast<double>(setups.size()), "count");

  std::vector<VertexId> solution;
  engine.CollectSolution(&solution);
  const dynmis::ingest::IngestReport ingest = system.ingest;
  system.engine.reset();

  // Answer check against an independent replica of the final graph.
  const EdgeListGraph base = dynmis::serve::BuildMassiveWorkloadGraph(nullptr);
  {
    DynamicGraph replica = base.ToDynamic();
    for (int64_t i = stream.CycleStart(next); i < next; ++i) {
      ApplyOp(&replica, stream.At(i));
    }
    const double quality =
        CheckAnswer(replica, std::move(solution), options, &report);
    report.AddMetric("quality_vs_greedy", quality, "ratio");
  }

  if (options.trace) {
    report.AddLayer("ingest.load_s", ingest.load_seconds, "s");
    report.AddLayer("ingest.edge_list_bytes_per_edge", ingest.bytes_per_edge,
                    "B");
    RunLadder(base, stream, sizes.warmup_ops,
              std::min(writes, stream.base_size()), &report);
    WriteSpans(options.workdir + "/spans-massive-churn.csv",
               {{"main", &spans}}, kSpanNames);
  }
  return report;
}

}  // namespace perfbench
