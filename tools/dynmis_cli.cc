// dynmis_cli: run any registered dynamic MIS maintainer over a graph file
// and an update stream, reporting solution size, response time and memory.
// The workhorse for ad-hoc experiments on real SNAP files.
//
//   dynmis_cli --graph FILE [--algo NAME] [--initial MODE]
//              [--k K] [--perturb] [--recompute-every N]
//              [--updates FILE | --random N] [--seed S]
//              [--edge-fraction F] [--insert-fraction F] [--degree-bias]
//              [--report-every K] [--save-trace FILE] [--csv]
//
//   --graph FILE       SNAP-format edge list, plain or .gz (required).
//   --algo NAME        a MaintainerRegistry name (default DyTwoSwap);
//                      `--algo help` lists everything the registry accepts.
//   --k K              swap order for the generic KSwap maintainer.
//   --perturb          perturbation (paper optimization 2).
//   --recompute-every N  amortization interval for Recompute.
//   --initial MODE     greedy | arw | exact (default greedy).
//   --updates FILE     replay an update trace (see update_trace_io.h).
//   --random N         generate N random updates instead (default 10000).
//   --seed S           RNG seed for --random (default 1).
//   --edge-fraction F  fraction of edge ops in the random stream (0.9).
//   --insert-fraction F  fraction of insertions (0.5).
//   --degree-bias      degree-proportional endpoints (default uniform).
//   --report-every K   print a progress row every K updates.
//   --save-trace FILE  write the applied update sequence to FILE.
//   --csv              machine-readable progress rows.
//
// Snapshot subcommands (durable engine state; see README "Snapshots"):
//
//   dynmis_cli snapshot save --graph FILE --out SNAP [run flags as above]
//       build the engine, apply the update stream, write a snapshot.
//   dynmis_cli snapshot load --in SNAP [--random N] [--seed S] [--out SNAP2]
//       restore the engine, optionally resume with more updates, and
//       optionally write a fresh snapshot of the resumed state.
//   dynmis_cli snapshot info --in SNAP
//       print the header, the section table and the container's kind:
//       an engine with its metadata, or a sharded engine with its shard
//       count (`load` restores only the former; `serve --restore` both).
//
// Serve subcommand (TCP update/query server; see README "Serving"):
//
//   dynmis_cli serve [--port P] [--host ADDR]
//                    [--graph FILE | --scenario NAME | --restore SNAP]
//                    [--algo NAME] [--backend engine|sharded] [--shards N]
//                    [--batch-ops N] [--flush-us U] [--max-conns N]
//                    [--io-threads N] [--record-trace]
//       serve the engine over TCP — newline text by default, with a
//       length-prefixed binary protocol negotiated per connection (HELLO 2
//       BIN; README "Serving"). --io-threads N spreads connection I/O over
//       N epoll threads. --restore takes backend, shard count and
//       algorithm from the snapshot. With no graph source the server
//       starts on an empty graph (clients build it with INSV).
//       SIGTERM/SIGINT drain in-flight batches and exit 0.
//
// Replication (README "Replication"):
//
//   primary:   --change-log DIR [--log-segment-bytes N] [--snapshot-every N]
//              [--snapshot-interval-ms MS]
//       append every applied batch to a segmented change log under DIR and
//       publish periodic background base snapshots — every N batches,
//       and/or whenever MS milliseconds have passed at a batch boundary. A
//       primary restarted on a non-empty DIR recovers from the latest
//       checkpoint (base + tail) and continues the sequence.
//   follower:  --follow HOST:PORT [--bootstrap DIR]  |  --follow-dir DIR
//       serve reads only (`ERR readonly` for writes), replaying the
//       primary's batches — over TCP (REPL SUBSCRIBE) or by tailing its
//       change-log directory. --bootstrap/--follow-dir restore the latest
//       local checkpoint first. SIGUSR1 or the PROMOTE verb promotes.
//
// Workload subcommands (README "Workloads"):
//
//   dynmis_cli genedges --out FILE [--n N] [--avg-degree D] [--beta B]
//                       [--seed S]
//       write a deterministic power-law edge list in SNAP header format
//       (CI's no-network stand-in for a real SNAP download).
//   dynmis_cli ingest --graph FILE [--json]
//       stream FILE (plain or .gz) through the SNAP-scale ingester and
//       report the memory budget (load time, bytes/edge, peak RSS).
//   dynmis_cli serve --window-ttl MS ...
//       sliding-window serving: every admitted edge insert is expired
//       (deleted) MS milliseconds later by a server-side timing wheel.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dynmis/dynmis.h"
#include "dynmis/workload.h"
#include "src/repl/bootstrap.h"
#include "src/repl/change_log.h"
#include "src/serve/workload.h"
#include "src/util/faultfs.h"
#include "src/util/json_writer.h"

namespace dynmis {
namespace {

struct CliOptions {
  std::string graph_path;
  MaintainerConfig algo;  // algorithm defaults to DyTwoSwap.
  std::string initial = "greedy";
  std::string updates_path;
  std::string save_trace_path;
  int random_updates = 10000;
  uint64_t seed = 1;
  double edge_fraction = 0.9;
  double insert_fraction = 0.5;
  bool degree_bias = false;
  int report_every = 0;
  bool csv = false;
  // Snapshot-mode paths (`snapshot save --out` / `snapshot load --in/--out`).
  std::string snapshot_out;
  std::string snapshot_in;
  // Which flag families were given, for per-mode validation: a flag the
  // selected mode cannot honor is an error, not silently ignored (e.g.
  // `snapshot load --algo X` — the snapshot fixes the algorithm).
  bool saw_engine_flags = false;  // --algo/--k/--perturb/...
  bool saw_run_inputs = false;    // --graph/--updates/--save-trace
  bool saw_stream_flags = false;  // --random/--seed/--*-fraction/...
};

// Writes a snapshot of `engine` to `path`. Returns 0 on success.
int WriteSnapshotFile(const MisEngine& engine, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open snapshot for writing: %s\n",
                 path.c_str());
    return 1;
  }
  Timer timer;
  const SnapshotStatus status = engine.SaveSnapshot(out);
  if (!status) {
    std::fprintf(stderr, "snapshot save failed: %s\n", status.message.c_str());
    return 1;
  }
  std::fprintf(stderr, "snapshot: wrote %s (%.3fs)\n", path.c_str(),
               timer.ElapsedSeconds());
  return 0;
}

// Lists every name the registry accepts, straight from the registry — there
// is no hand-maintained algorithm table in this binary.
int PrintAlgorithms() {
  const MaintainerRegistry& registry = MaintainerRegistry::Global();
  const std::vector<std::string> algorithms = registry.ListAlgorithms();
  std::printf("algorithms:\n");
  for (const std::string& name : algorithms) {
    std::printf("  %-16s %s\n", name.c_str(), registry.Describe(name).c_str());
  }
  std::printf("aliases:\n");
  for (const std::string& name : registry.ListNames()) {
    if (std::find(algorithms.begin(), algorithms.end(), name) ==
        algorithms.end()) {
      std::printf("  %-16s %s\n", name.c_str(),
                  registry.Describe(name).c_str());
    }
  }
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --graph FILE [--algo NAME] [--initial MODE]\n"
               "          [--k K] [--perturb] [--recompute-every N]\n"
               "          [--updates FILE | --random N] [--seed S]\n"
               "          [--edge-fraction F] [--insert-fraction F]\n"
               "          [--degree-bias] [--report-every K]\n"
               "          [--save-trace FILE] [--csv]\n"
               "       %s --algo help   (list registered algorithms)\n"
               "       %s snapshot save|load|info ...   (durable state;\n"
               "          run `%s snapshot` for details)\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, int first, CliOptions* options,
               bool* list_algos) {
  *list_algos = false;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--graph" || arg == "--updates" || arg == "--save-trace") {
      options->saw_run_inputs = true;
    } else if (arg == "--algo" || arg == "--k" || arg == "--perturb" ||
               arg == "--recompute-every" || arg == "--initial") {
      options->saw_engine_flags = true;
    } else if (arg == "--random" || arg == "--seed" ||
               arg == "--edge-fraction" || arg == "--insert-fraction" ||
               arg == "--degree-bias" || arg == "--report-every" ||
               arg == "--csv") {
      options->saw_stream_flags = true;
    }
    if (arg == "--graph") {
      const char* v = next();
      if (!v) return false;
      options->graph_path = v;
    } else if (arg == "--algo") {
      const char* v = next();
      if (!v) return false;
      options->algo.algorithm = v;
      if (options->algo.algorithm == "help" ||
          options->algo.algorithm == "list") {
        *list_algos = true;
        return true;
      }
    } else if (arg == "--k") {
      const char* v = next();
      if (!v) return false;
      options->algo.k = std::atoi(v);
    } else if (arg == "--perturb") {
      options->algo.perturb = true;
    } else if (arg == "--recompute-every") {
      const char* v = next();
      if (!v) return false;
      options->algo.recompute_every = std::atoi(v);
    } else if (arg == "--initial") {
      const char* v = next();
      if (!v) return false;
      options->initial = v;
    } else if (arg == "--updates") {
      const char* v = next();
      if (!v) return false;
      options->updates_path = v;
    } else if (arg == "--save-trace") {
      const char* v = next();
      if (!v) return false;
      options->save_trace_path = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return false;
      options->snapshot_out = v;
    } else if (arg == "--in") {
      const char* v = next();
      if (!v) return false;
      options->snapshot_in = v;
    } else if (arg == "--random") {
      const char* v = next();
      if (!v) return false;
      options->random_updates = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--edge-fraction") {
      const char* v = next();
      if (!v) return false;
      options->edge_fraction = std::atof(v);
    } else if (arg == "--insert-fraction") {
      const char* v = next();
      if (!v) return false;
      options->insert_fraction = std::atof(v);
    } else if (arg == "--report-every") {
      const char* v = next();
      if (!v) return false;
      options->report_every = std::atoi(v);
    } else if (arg == "--degree-bias") {
      options->degree_bias = true;
    } else if (arg == "--csv") {
      options->csv = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Range checks for the update-stream flags shared by the run and
// `snapshot load` paths; prints the problem and returns false.
bool StreamFlagsValid(const CliOptions& options) {
  const auto in_unit = [](double f) { return f >= 0 && f <= 1; };
  const char* problem = nullptr;
  if (options.random_updates < 0) {
    problem = "--random must be >= 0";
  } else if (options.report_every < 0) {
    problem = "--report-every must be >= 0";
  } else if (!in_unit(options.edge_fraction)) {
    problem = "--edge-fraction must be in [0, 1]";
  } else if (!in_unit(options.insert_fraction)) {
    problem = "--insert-fraction must be in [0, 1]";
  }
  if (problem != nullptr) std::fprintf(stderr, "%s\n", problem);
  return problem == nullptr;
}

int Run(const CliOptions& options) {
  if (!MaintainerRegistry::Global().Has(options.algo.algorithm)) {
    std::fprintf(stderr,
                 "unknown algorithm: %s (try --algo help)\n",
                 options.algo.algorithm.c_str());
    return 2;
  }
  if (options.algo.k < 1 || options.algo.k > kMaxKSwapOrder) {
    std::fprintf(stderr, "--k must be in [1, %d]\n", kMaxKSwapOrder);
    return 2;
  }
  if (options.algo.recompute_every < 1) {
    std::fprintf(stderr, "--recompute-every must be a positive integer\n");
    return 2;
  }
  if (!StreamFlagsValid(options)) return 2;
  InitialSolution initial;
  if (options.initial == "greedy") {
    initial = InitialSolution::kGreedy;
  } else if (options.initial == "arw") {
    initial = InitialSolution::kArw;
  } else if (options.initial == "exact") {
    initial = InitialSolution::kExact;
  } else {
    std::fprintf(stderr, "unknown initial mode: %s\n",
                 options.initial.c_str());
    return 2;
  }

  EdgeListGraph graph;
  std::string error;
  if (!ingest::IngestEdgeList(options.graph_path, &graph, nullptr, &error)) {
    std::fprintf(stderr, "cannot load graph: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "graph: n=%d m=%lld avg-deg=%.2f\n", graph.n,
               static_cast<long long>(graph.NumEdges()),
               graph.AverageDegree());

  std::vector<GraphUpdate> updates;
  if (!options.updates_path.empty()) {
    const auto loaded = LoadUpdateTrace(options.updates_path);
    if (!loaded) {
      std::fprintf(stderr, "cannot load updates: %s\n",
                   options.updates_path.c_str());
      return 1;
    }
    updates = *loaded;
  } else {
    UpdateStreamOptions stream;
    stream.seed = options.seed;
    stream.edge_op_fraction = options.edge_fraction;
    stream.insert_fraction = options.insert_fraction;
    stream.bias = options.degree_bias ? EndpointBias::kDegreeProportional
                                      : EndpointBias::kUniform;
    updates =
        MakeUpdateSequence(graph, options.random_updates, stream);
  }
  if (!options.save_trace_path.empty() &&
      !SaveUpdateTrace(updates, options.save_trace_path)) {
    std::fprintf(stderr, "cannot write trace: %s\n",
                 options.save_trace_path.c_str());
    return 1;
  }

  std::unique_ptr<MisEngine> engine = MisEngine::Create(graph, options.algo);
  // Has() passed above, so construction cannot miss the registry.
  Timer init_timer;
  engine->Initialize(
      ComputeInitialSolution(graph, initial, /*arw_iterations=*/500,
                             /*exact_node_budget=*/2'000'000,
                             /*exact_seconds_budget=*/30.0));
  std::fprintf(stderr, "initial |I|=%lld (%.3fs, %s start)\n",
               static_cast<long long>(engine->SolutionSize()),
               init_timer.ElapsedSeconds(), options.initial.c_str());

  if (options.report_every > 0) {
    std::printf(options.csv ? "updates,size,n,m,seconds\n"
                            : "%10s %10s %10s %12s %10s\n",
                "updates", "|I|", "n", "m", "seconds");
  }
  Timer timer;
  int64_t applied = 0;
  for (const GraphUpdate& update : updates) {
    engine->Apply(update);
    ++applied;
    if (options.report_every > 0 && applied % options.report_every == 0) {
      const DynamicGraph& g = engine->graph();
      if (options.csv) {
        std::printf("%lld,%lld,%d,%lld,%.6f\n",
                    static_cast<long long>(applied),
                    static_cast<long long>(engine->SolutionSize()),
                    g.NumVertices(), static_cast<long long>(g.NumEdges()),
                    timer.ElapsedSeconds());
      } else {
        std::printf("%10lld %10lld %10d %12lld %9.3fs\n",
                    static_cast<long long>(applied),
                    static_cast<long long>(engine->SolutionSize()),
                    g.NumVertices(), static_cast<long long>(g.NumEdges()),
                    timer.ElapsedSeconds());
      }
    }
  }
  const double seconds = timer.ElapsedSeconds();
  const EngineStats stats = engine->Stats();
  std::fprintf(stderr,
               "%s: %lld updates in %.3fs (%.2f us/update), final |I|=%lld, "
               "graph=%lluB structure=%lluB\n",
               stats.algorithm.c_str(), static_cast<long long>(applied),
               seconds, applied > 0 ? seconds / applied * 1e6 : 0.0,
               static_cast<long long>(stats.solution_size),
               static_cast<unsigned long long>(stats.graph_memory_bytes),
               static_cast<unsigned long long>(stats.structure_memory_bytes));
  if (!options.snapshot_out.empty()) {
    return WriteSnapshotFile(*engine, options.snapshot_out);
  }
  return 0;
}

// --- Snapshot subcommands ----------------------------------------------------

int SnapshotUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s snapshot save --graph FILE --out SNAP [run flags]\n"
      "       %s snapshot load --in SNAP [--random N] [--seed S]\n"
      "                        [--edge-fraction F] [--insert-fraction F]\n"
      "                        [--degree-bias] [--report-every K] [--csv]\n"
      "                        [--out SNAP2]\n"
      "       %s snapshot info --in SNAP\n",
      argv0, argv0, argv0);
  return 2;
}

// Restores an engine from --in, optionally resumes a random update stream
// over it (so restart-then-continue is a one-liner), and optionally writes
// the resumed state back out with --out.
int RunSnapshotLoad(const CliOptions& options, bool resume_updates) {
  std::ifstream in(options.snapshot_in, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open snapshot: %s\n",
                 options.snapshot_in.c_str());
    return 1;
  }
  Timer load_timer;
  SnapshotReader reader;
  SnapshotStatus status = reader.ReadFrom(in);
  if (status && reader.HasSection("sharded")) {
    status = SnapshotStatus::Error(
        "a sharded engine's snapshot; restore it with `dynmis_cli serve "
        "--restore`");
  }
  std::unique_ptr<MisEngine> engine;
  if (status) engine = MisEngine::LoadFrom(&reader, &status);
  if (engine == nullptr) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 status.message.c_str());
    return 1;
  }
  const EngineStats stats = engine->Stats();
  std::fprintf(stderr,
               "restored %s from %s in %.3fs: n=%lld m=%lld |I|=%lld "
               "graph=%lluB structure=%lluB (%lld lifetime updates)\n",
               stats.algorithm.c_str(), options.snapshot_in.c_str(),
               load_timer.ElapsedSeconds(),
               static_cast<long long>(stats.num_vertices),
               static_cast<long long>(stats.num_edges),
               static_cast<long long>(stats.solution_size),
               static_cast<unsigned long long>(stats.graph_memory_bytes),
               static_cast<unsigned long long>(stats.structure_memory_bytes),
               static_cast<long long>(stats.updates_applied));

  if (resume_updates && options.random_updates > 0) {
    UpdateStreamOptions stream;
    stream.seed = options.seed;
    stream.edge_op_fraction = options.edge_fraction;
    stream.insert_fraction = options.insert_fraction;
    stream.bias = options.degree_bias ? EndpointBias::kDegreeProportional
                                      : EndpointBias::kUniform;
    UpdateStreamGenerator gen(stream);
    Timer timer;
    for (int i = 0; i < options.random_updates; ++i) {
      engine->Apply(gen.Next(engine->graph()));
      if (options.report_every > 0 && (i + 1) % options.report_every == 0) {
        std::printf(options.csv ? "%d,%lld,%.6f\n" : "%10d %10lld %9.3fs\n",
                    i + 1, static_cast<long long>(engine->SolutionSize()),
                    timer.ElapsedSeconds());
      }
    }
    std::fprintf(stderr, "resumed %d updates in %.3fs, final |I|=%lld\n",
                 options.random_updates, timer.ElapsedSeconds(),
                 static_cast<long long>(engine->SolutionSize()));
  }
  if (!options.snapshot_out.empty()) {
    return WriteSnapshotFile(*engine, options.snapshot_out);
  }
  return 0;
}

int RunSnapshotInfo(const CliOptions& options) {
  std::ifstream in(options.snapshot_in, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open snapshot: %s\n",
                 options.snapshot_in.c_str());
    return 1;
  }
  SnapshotReader reader;
  const SnapshotStatus status = reader.ReadFrom(in);
  if (!status) {
    std::fprintf(stderr, "invalid snapshot: %s\n", status.message.c_str());
    return 1;
  }
  std::printf("snapshot %s (format version %u)\n",
              options.snapshot_in.c_str(), reader.version());
  std::printf("sections:\n");
  for (const std::string& name : reader.SectionNames()) {
    std::printf("  %-24s %10zu bytes\n", name.c_str(),
                reader.SectionSize(name));
  }
  // The kind comes from the section table: a sharded engine writes a
  // "sharded" section and one "shard<i>/graph" per shard.
  if (reader.HasSection("sharded")) {
    int shards = 0;
    while (reader.HasSection("shard" + std::to_string(shards) + "/graph")) {
      ++shards;
    }
    std::printf("kind: sharded (%d shards)\n", shards);
    return 0;
  }
  SnapshotEngineMeta meta;
  if (!MisEngine::ReadEngineMeta(&reader, &meta)) {
    std::fprintf(stderr, "invalid snapshot: %s\n",
                 reader.error().c_str());
    return 1;
  }
  std::printf("kind: engine\n");
  std::printf(
      "engine: algorithm=%s (%s) k=%d perturb=%d recompute_every=%d\n",
      meta.config.algorithm.c_str(), meta.display_name.c_str(),
      meta.config.k, meta.config.perturb ? 1 : 0,
      meta.config.recompute_every);
  std::printf("history: %lld updates\n",
              static_cast<long long>(meta.updates_applied));
  return 0;
}

int RunSnapshotCommand(int argc, char** argv) {
  if (argc < 3) return SnapshotUsage(argv[0]);
  const std::string mode = argv[2];
  CliOptions options;
  // Restoring should not churn the graph unless asked: `load` resumes only
  // with an explicit --random N (the top-level default of 10000 is for the
  // run-an-experiment mode).
  if (mode == "load") options.random_updates = 0;
  bool list_algos = false;
  if (!ParseArgs(argc, argv, /*first=*/3, &options, &list_algos)) {
    return SnapshotUsage(argv[0]);
  }
  if (mode == "save") {
    if (options.graph_path.empty() || options.snapshot_out.empty()) {
      return SnapshotUsage(argv[0]);
    }
    if (!options.snapshot_in.empty()) {
      std::fprintf(stderr, "snapshot save does not take --in\n");
      return 2;
    }
    return Run(options);
  }
  if (mode == "load") {
    if (options.snapshot_in.empty()) return SnapshotUsage(argv[0]);
    if (options.saw_engine_flags || options.saw_run_inputs) {
      std::fprintf(stderr,
                   "snapshot load restores the graph and algorithm from the "
                   "snapshot; --graph/--algo-style flags are not accepted\n");
      return 2;
    }
    if (!StreamFlagsValid(options)) return 2;
    return RunSnapshotLoad(options, /*resume_updates=*/true);
  }
  if (mode == "info") {
    if (options.snapshot_in.empty()) return SnapshotUsage(argv[0]);
    if (options.saw_engine_flags || options.saw_run_inputs ||
        options.saw_stream_flags || !options.snapshot_out.empty()) {
      std::fprintf(stderr, "snapshot info takes only --in\n");
      return 2;
    }
    return RunSnapshotInfo(options);
  }
  return SnapshotUsage(argv[0]);
}

// --- Ingest subcommands ------------------------------------------------------

int IngestUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s genedges --out FILE [--n N] [--avg-degree D] [--beta B]\n"
      "                   [--seed S]\n"
      "           write a deterministic Chung-Lu power-law edge list in\n"
      "           SNAP header format (the no-network stand-in for a real\n"
      "           SNAP download; defaults give ~2M edges)\n"
      "       %s ingest --graph FILE [--json]\n"
      "           stream FILE (plain or .gz) through the ingester and print\n"
      "           the memory-budget report; --json emits one JSON object on\n"
      "           stdout for CI gates\n",
      argv0, argv0);
  return 2;
}

int RunGenEdgesCommand(int argc, char** argv) {
  std::string out_path;
  int n = 200000;
  double avg_degree = 22.0;
  double beta = 2.3;
  uint64_t seed = 9;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--out") {
      if (!(v = next())) return IngestUsage(argv[0]);
      out_path = v;
    } else if (arg == "--n") {
      if (!(v = next())) return IngestUsage(argv[0]);
      n = std::atoi(v);
    } else if (arg == "--avg-degree") {
      if (!(v = next())) return IngestUsage(argv[0]);
      avg_degree = std::atof(v);
    } else if (arg == "--beta") {
      if (!(v = next())) return IngestUsage(argv[0]);
      beta = std::atof(v);
    } else if (arg == "--seed") {
      if (!(v = next())) return IngestUsage(argv[0]);
      seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return IngestUsage(argv[0]);
    }
  }
  if (out_path.empty() || n < 2 || avg_degree <= 0 || beta <= 1) {
    return IngestUsage(argv[0]);
  }
  Timer timer;
  std::string error;
  const int64_t edges =
      ingest::GeneratePowerLawEdgeFile(out_path, n, avg_degree, beta, seed,
                                       &error);
  if (edges < 0) {
    std::fprintf(stderr, "genedges: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "genedges: wrote %lld edges to %s (%.2fs)\n",
               static_cast<long long>(edges), out_path.c_str(),
               timer.ElapsedSeconds());
  return 0;
}

int RunIngestCommand(int argc, char** argv) {
  std::string graph_path;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--graph") {
      const char* v = next();
      if (v == nullptr) return IngestUsage(argv[0]);
      graph_path = v;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return IngestUsage(argv[0]);
    }
  }
  if (graph_path.empty()) return IngestUsage(argv[0]);
  EdgeListGraph graph;
  ingest::IngestReport report;
  std::string error;
  if (!ingest::IngestEdgeList(graph_path, &graph, &report, &error)) {
    std::fprintf(stderr, "ingest: %s\n", error.c_str());
    return 1;
  }
  if (json) {
    JsonWriter w(/*single_line=*/true);
    w.BeginObject();
    w.Int("vertices", report.vertices);
    w.Int("edges", report.edges);
    w.Int("lines", report.lines);
    w.Int("dropped_self_loops", report.dropped_self_loops);
    w.Int("dropped_duplicates", report.dropped_duplicates);
    w.Bool("header_reserved", report.header_reserved);
    w.Bool("hashed_ids", report.hashed_ids);
    w.Bool("gzip", report.gzip);
    w.Double("load_seconds", report.load_seconds);
    w.Uint("graph_bytes", report.graph_bytes);
    w.Double("bytes_per_edge", report.bytes_per_edge);
    w.Uint("peak_rss_bytes", report.peak_rss_bytes);
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    std::fprintf(stderr,
                 "ingest: n=%lld m=%lld (%lld lines, %lld self-loops, %lld "
                 "duplicates dropped)%s%s%s\n"
                 "        %.2fs, %.1f bytes/edge, graph %s, peak RSS %s\n",
                 static_cast<long long>(report.vertices),
                 static_cast<long long>(report.edges),
                 static_cast<long long>(report.lines),
                 static_cast<long long>(report.dropped_self_loops),
                 static_cast<long long>(report.dropped_duplicates),
                 report.header_reserved ? ", header reserved" : "",
                 report.hashed_ids ? ", hashed ids" : "",
                 report.gzip ? ", gzip" : "", report.load_seconds,
                 report.bytes_per_edge,
                 FormatBytes(report.graph_bytes).c_str(),
                 FormatBytes(report.peak_rss_bytes).c_str());
  }
  return 0;
}

// --- Serve subcommand --------------------------------------------------------

int ServeUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s serve [--port P] [--host ADDR]\n"
      "                [--graph FILE | --scenario NAME | --restore SNAP]\n"
      "                [--algo NAME] [--backend engine|sharded] [--shards N]\n"
      "                [--batch-ops N] [--flush-us U] [--max-conns N]\n"
      "                [--io-threads N] [--window-ttl MS] [--record-trace]\n"
      "                [--allow-file-commands]\n"
      "                [--change-log DIR] [--log-segment-bytes N]\n"
      "                [--snapshot-every N] [--snapshot-interval-ms MS]\n"
      "                [--follow HOST:PORT [--bootstrap DIR] |"
      " --follow-dir DIR]\n"
      "                [--reconnect-max-ms MS] [--fault-plan PLAN]\n"
      "scenarios: smoke easy hard powerlaw massive temporal storm\n"
      "           (bench-driver graphs by name)\n"
      "--window-ttl MS expires every admitted edge insert MS milliseconds\n"
      "  after admission (sliding-window serving; 0 disables)\n"
      "fault plans (testing): op:mode[@nth][xcount][~substr];... with op in\n"
      "  write|fsync|rename|connect and mode in\n"
      "  enospc|eio|eintr|short|reset|torn (also via DYNMIS_FAULT_PLAN)\n",
      argv0);
  return 2;
}

int RunServeCommand(int argc, char** argv) {
  serve::ServeOptions options;
  std::string graph_path;
  std::string scenario;
  std::string bootstrap_dir;  // TCP follower: local checkpoint to restore.
  std::string restore_path;   // Warm start from a snapshot file.
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--port") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.port = std::atoi(v);
    } else if (arg == "--host") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.host = v;
    } else if (arg == "--graph") {
      if (!(v = next())) return ServeUsage(argv[0]);
      graph_path = v;
    } else if (arg == "--scenario") {
      if (!(v = next())) return ServeUsage(argv[0]);
      scenario = v;
    } else if (arg == "--restore") {
      if (!(v = next())) return ServeUsage(argv[0]);
      restore_path = v;
    } else if (arg == "--algo") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.algo.algorithm = v;
    } else if (arg == "--backend") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.backend = v;
    } else if (arg == "--shards") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.shards = std::atoi(v);
      options.backend = "sharded";
    } else if (arg == "--batch-ops") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.batch_max_ops = std::atoi(v);
    } else if (arg == "--flush-us") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.flush_deadline_us = std::atof(v);
    } else if (arg == "--max-conns") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.max_connections = std::atoi(v);
    } else if (arg == "--window-ttl") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.window_ttl_ms = std::atoll(v);
    } else if (arg == "--record-trace") {
      options.record_trace = true;
    } else if (arg == "--allow-file-commands") {
      options.allow_file_commands = true;
    } else if (arg == "--change-log") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.change_log_dir = v;
    } else if (arg == "--log-segment-bytes") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.log_segment_bytes = std::atoll(v);
    } else if (arg == "--snapshot-every") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.snapshot_every_batches = std::atoll(v);
    } else if (arg == "--snapshot-interval-ms") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.snapshot_interval_ms = std::atoll(v);
    } else if (arg == "--io-threads") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.io_threads = std::atoi(v);
    } else if (arg == "--follow") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.follow_addr = v;
    } else if (arg == "--follow-dir") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.follow_dir = v;
    } else if (arg == "--bootstrap") {
      if (!(v = next())) return ServeUsage(argv[0]);
      bootstrap_dir = v;
    } else if (arg == "--reconnect-max-ms") {
      if (!(v = next())) return ServeUsage(argv[0]);
      options.reconnect_max_ms = std::atoll(v);
    } else if (arg == "--fault-plan") {
      if (!(v = next())) return ServeUsage(argv[0]);
      std::string fault_error;
      if (!faultfs::ArmPlan(v, &fault_error)) {
        std::fprintf(stderr, "serve: --fault-plan: %s\n",
                     fault_error.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return ServeUsage(argv[0]);
    }
  }
  if (options.batch_max_ops < 1 || options.shards < 1 ||
      options.max_connections < 1 || options.flush_deadline_us < 0 ||
      options.log_segment_bytes < 1 || options.snapshot_every_batches < 0 ||
      options.snapshot_interval_ms < 0 || options.io_threads < 1 ||
      options.reconnect_max_ms < 1 || options.window_ttl_ms < 0) {
    std::fprintf(stderr, "serve: non-positive sizing flag\n");
    return 2;
  }
  if ((!graph_path.empty()) + (!scenario.empty()) + (!restore_path.empty()) >
      1) {
    std::fprintf(stderr,
                 "serve: --graph, --scenario and --restore are exclusive\n");
    return 2;
  }
  const bool follower =
      !options.follow_addr.empty() || !options.follow_dir.empty();
  if (!options.follow_addr.empty() && !options.follow_dir.empty()) {
    std::fprintf(stderr, "serve: --follow and --follow-dir are exclusive\n");
    return 2;
  }
  if (!bootstrap_dir.empty() && options.follow_addr.empty()) {
    std::fprintf(stderr, "serve: --bootstrap only applies with --follow\n");
    return 2;
  }
  if (!options.follow_dir.empty() &&
      options.follow_dir == options.change_log_dir) {
    std::fprintf(stderr,
                 "serve: --follow-dir must differ from --change-log (a "
                 "follower appending to the log it tails is a feedback "
                 "loop)\n");
    return 2;
  }
  if (follower && !restore_path.empty()) {
    std::fprintf(stderr,
                 "serve: --restore conflicts with following (followers "
                 "bootstrap from a checkpoint directory)\n");
    return 2;
  }
  if ((options.snapshot_every_batches > 0 ||
       options.snapshot_interval_ms > 0) &&
      options.change_log_dir.empty()) {
    std::fprintf(stderr,
                 "serve: --snapshot-every / --snapshot-interval-ms require "
                 "--change-log\n");
    return 2;
  }

  EdgeListGraph base;  // Default: serve an empty graph.
  std::string error;
  if (!graph_path.empty()) {
    if (!ingest::IngestEdgeList(graph_path, &base, nullptr, &error)) {
      std::fprintf(stderr, "cannot load graph: %s\n", error.c_str());
      return 1;
    }
  } else if (!scenario.empty()) {
    serve::ServeWorkload workload;
    if (!serve::BuildServeWorkload(scenario, &workload)) {
      std::fprintf(stderr, "unknown scenario: %s\n", scenario.c_str());
      return 2;
    }
    base = std::move(workload.base);
  }

  std::unique_ptr<serve::ServingBackend> backend;
  // Checkpoint bootstrap: a follower restores from its local checkpoint
  // directory; a primary restarted on a non-empty --change-log directory
  // recovers from its own log instead of truncating it.
  std::string checkpoint_dir =
      !options.follow_dir.empty() ? options.follow_dir : bootstrap_dir;
  if (checkpoint_dir.empty() && !options.change_log_dir.empty()) {
    repl::ChangeLogDirState state;
    std::string scan_error;
    if (repl::ScanChangeLogDir(options.change_log_dir, &state, &scan_error) &&
        (!state.segments.empty() || state.latest_base_seq >= 0)) {
      checkpoint_dir = options.change_log_dir;
    }
  }
  ingest::KeyMap keymap;  // Restored bindings; empty on a fresh start.
  if (!checkpoint_dir.empty()) {
    repl::BootstrapResult boot;
    if (!repl::BootstrapFromChangeLog(checkpoint_dir, base, options, &boot,
                                      &error)) {
      std::fprintf(stderr, "serve: bootstrap: %s\n", error.c_str());
      return 1;
    }
    backend = std::move(boot.backend);
    keymap = std::move(boot.keymap);
    options.repl_start_seq = boot.next_seq;
    options.bootstrap_base_seq = boot.base_seq;
    options.start_epoch = boot.epoch;
    std::fprintf(stderr,
                 "bootstrap: base seq %lld + %lld batches (%lld ops) from %s "
                 "-> seq %lld (%zu keys)\n",
                 static_cast<long long>(boot.base_seq),
                 static_cast<long long>(boot.tail_batches),
                 static_cast<long long>(boot.tail_ops),
                 checkpoint_dir.c_str(),
                 static_cast<long long>(boot.next_seq), keymap.Size());
  } else if (!restore_path.empty()) {
    // The snapshot fixes backend kind, shard count and algorithm; its
    // "keymap" section (servers with keyed clients write one) restores the
    // external-key bindings.
    std::ifstream in(restore_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "serve: cannot open snapshot: %s\n",
                   restore_path.c_str());
      return 1;
    }
    backend = serve::RestoreServingBackend(in, &error, &keymap);
  } else {
    backend = serve::MakeServingBackend(base, options, &error);
  }
  if (backend == nullptr) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  // The backend holds its own graph: free the edge list (8 B per edge)
  // rather than keep it for the server's lifetime.
  base = EdgeListGraph();
  const EngineStats stats = backend->Stats();
  serve::Server server(std::move(backend), options);
  // The restored key bindings (snapshot "keymap" section, plus keyed tail
  // ops after a bootstrap) make KQUERY resolve exactly as before.
  server.AdoptKeyMap(std::move(keymap));
  if (!server.Start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  serve::Server::InstallSignalHandlers(&server);
  std::fprintf(stderr,
               "serving %s backend (%s) on %s:%d as %s  "
               "n=%lld m=%lld |I|=%lld\n",
               server.backend().Kind().c_str(), stats.algorithm.c_str(),
               options.host.c_str(), server.port(),
               follower ? "follower" : "primary",
               static_cast<long long>(stats.num_vertices),
               static_cast<long long>(stats.num_edges),
               static_cast<long long>(stats.solution_size));
  const int rc = server.Run();
  const serve::ServingMetricsSnapshot summary = server.MetricsSnapshot();
  std::fprintf(stderr,
               "drained: %lld ops applied (%lld rejected) over %lld batches, "
               "mean occupancy %.2f, %lld connections served\n",
               static_cast<long long>(summary.ops_applied),
               static_cast<long long>(summary.ops_rejected),
               static_cast<long long>(summary.batches_flushed),
               summary.mean_batch_occupancy,
               static_cast<long long>(summary.connections_accepted));
  if (summary.repl_ops_logged > 0 || summary.repl_next_seq > 0) {
    std::fprintf(stderr,
                 "replication: %s at seq %lld, %lld ops logged over %lld "
                 "segments, %lld base snapshots (last seq %lld), "
                 "%lld promotions, %lld reshards\n",
                 summary.repl_role.c_str(),
                 static_cast<long long>(summary.repl_next_seq),
                 static_cast<long long>(summary.repl_ops_logged),
                 static_cast<long long>(summary.repl_segments),
                 static_cast<long long>(summary.repl_snapshots_written),
                 static_cast<long long>(summary.repl_last_base_seq),
                 static_cast<long long>(summary.repl_promotions),
                 static_cast<long long>(summary.repl_resharded));
  }
  return rc;
}

}  // namespace
}  // namespace dynmis

int main(int argc, char** argv) {
  // Scripted fault injection (DYNMIS_FAULT_PLAN): armed before any file or
  // socket syscall so torture harnesses can target startup paths too.
  std::string fault_error;
  if (!dynmis::faultfs::ArmFromEnvironment(&fault_error)) {
    std::fprintf(stderr, "DYNMIS_FAULT_PLAN: %s\n", fault_error.c_str());
    return 2;
  }
  if (argc > 1 && std::strcmp(argv[1], "snapshot") == 0) {
    return dynmis::RunSnapshotCommand(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return dynmis::RunServeCommand(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "genedges") == 0) {
    return dynmis::RunGenEdgesCommand(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "ingest") == 0) {
    return dynmis::RunIngestCommand(argc, argv);
  }
  dynmis::CliOptions options;
  bool list_algos = false;
  if (!dynmis::ParseArgs(argc, argv, /*first=*/1, &options, &list_algos)) {
    return dynmis::Usage(argv[0]);
  }
  if (list_algos) return dynmis::PrintAlgorithms();
  if (!options.snapshot_in.empty()) {
    std::fprintf(stderr,
                 "--in restores a snapshot; use `%s snapshot load --in ...`\n",
                 argv[0]);
    return 2;
  }
  if (!options.snapshot_out.empty()) {
    std::fprintf(stderr,
                 "--out writes a snapshot; use `%s snapshot save ... --out`\n",
                 argv[0]);
    return 2;
  }
  if (options.graph_path.empty()) return dynmis::Usage(argv[0]);
  return dynmis::Run(options);
}
