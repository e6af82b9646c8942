// Shared plumbing of the repository benchmark: options, the result record,
// CPU and host accounting, in-memory spans, the cycled op streams every
// workload replays, the answer check, and the graph/core/api layer ladder.
//
// Everything here drives the library through its public headers only.

#ifndef DYNMIS_PERFBENCH_COMMON_H_
#define DYNMIS_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dynmis/dynmis.h"

namespace perfbench {

using dynmis::DynamicGraph;
using dynmis::EdgeListGraph;
using dynmis::GraphUpdate;
using dynmis::VertexId;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Small inputs and short phases, for the benchmark's own tests.
  bool tiny = false;
  // Test hook: drop one vertex from the collected solution before the
  // answer check, which must then fail.
  bool corrupt = false;
  // Scratch directory inside the checkout (inputs, change logs, spans).
  std::string workdir;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Result record --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;      // End-to-end.
  std::vector<Metric> layers;       // Per-layer (traced runs only).
  std::vector<Metric> diagnostics;  // Host and generator health.
  std::vector<std::string> problems;

  void AddMetric(const std::string& name, double value,
                 const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void AddDiag(const std::string& name, double value,
               const std::string& unit) {
    diagnostics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  // One JSON line, numbers printed with every digit.
  std::string Json() const;
};

// Nearest-rank percentile; sorts `values` in place. 0 when empty.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);
// The median, over consecutive windows of `window` samples, of each
// window's p-th percentile (a short last window counts only when it is the
// only one), so a slow stretch of the host moves only its own windows.
double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p);

// --- CPU, memory and host accounting -------------------------------------------

pid_t Tid();
double ThreadCpuSeconds();   // Calling thread.
double ProcessCpuSeconds();  // Every thread, live or exited.
// user+sys of one thread of this process, from /proc (0 once it exited).
double TaskCpuSeconds(pid_t tid);
std::vector<pid_t> ListTasks();

// VmHWM in MB, and a reset of it (Linux clear_refs "5"; a no-op where the
// kernel refuses).
double PeakRssMb();
void ResetPeakRss();

// Host-level counters sampled around a timed phase.
struct HostSample {
  int64_t steal_ticks = 0;  // /proc/stat, all CPUs.
  int64_t voluntary_switches = 0;
  int64_t involuntary_switches = 0;
  double wall_s = 0;
};
HostSample SampleHost();
// Adds steal, context switches and the phase wall time as diagnostics.
void AddHostDiagnostics(const HostSample& begin, const HostSample& end,
                        Report* report);

// --- Spans -----------------------------------------------------------------------

// One timed call into a layer. `parent` indexes the causing span in the
// same log (-1 for roots); spans of one request share `request`.
struct Span {
  int32_t name = 0;
  int32_t parent = -1;
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-thread span buffer; kept in memory, written once at exit.
class SpanLog {
 public:
  int32_t Record(int32_t name, int64_t start_ns, int64_t end_ns,
                 int32_t parent = -1, int64_t request = -1) {
    spans_.push_back({name, parent, request, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

// Span durations (µs) of one name, optionally restricted to [from, to).
std::vector<double> SpanDurationsUs(const SpanLog& log, int32_t name,
                                    int64_t from_ns = 0,
                                    int64_t to_ns = INT64_MAX);

// Writes "thread,name,parent,request,start_ns,end_ns" rows for every log to
// `path` (names resolved through `names`).
void WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, const SpanLog*>>& logs,
                const std::vector<std::string>& names);

// --- Op streams ------------------------------------------------------------------

struct EdgeOp {
  VertexId u = 0;
  VertexId v = 0;
  bool insert = true;
};

// An endless, always-valid stream built from one pre-drawn base stream S:
// S, then S undone (reversed, each op inverted), then S again, ... Every
// second pass ends on the base graph, so a run can last any time and a
// replica can replay just the last partial cycle.
class CycledStream {
 public:
  CycledStream() = default;
  explicit CycledStream(std::vector<EdgeOp> ops) : ops_(std::move(ops)) {}

  EdgeOp At(int64_t i) const {
    const int64_t n = static_cast<int64_t>(ops_.size());
    const int64_t pass = i / n;
    const int64_t pos = i % n;
    if (pass % 2 == 0) return ops_[pos];
    EdgeOp op = ops_[n - 1 - pos];
    op.insert = !op.insert;
    return op;
  }
  // First index of the full cycle containing op i (the base graph holds
  // exactly before it).
  int64_t CycleStart(int64_t i) const {
    const int64_t cycle = 2 * static_cast<int64_t>(ops_.size());
    return i / cycle * cycle;
  }
  int64_t base_size() const { return static_cast<int64_t>(ops_.size()); }

 private:
  std::vector<EdgeOp> ops_;
};

std::vector<EdgeOp> ToEdgeOps(const std::vector<GraphUpdate>& updates);
void FillUpdate(const EdgeOp& op, GraphUpdate* update);
void ApplyOp(DynamicGraph* g, const EdgeOp& op);

// --- Answer check ----------------------------------------------------------------

// Checks `solution` is an independent and maximal set of `g` (every member
// alive, no two adjacent, every other alive vertex has a member neighbour)
// and returns its size divided by the min-degree greedy size of `g` (the
// quality_vs_greedy of one solution). Failures go to report->Fail. With
// options.corrupt, one member is dropped first so the check must trip.
double CheckAnswer(const DynamicGraph& g, std::vector<VertexId> solution,
                   const Options& options, Report* report);

// --- Layer ladder ----------------------------------------------------------------

// Replays ops [warmup, warmup + count) of `stream` (after an untimed
// [0, warmup) prefix) on rung L0 (bare DynamicGraph), L1 (a registry
// maintainer over a caller-owned graph) and L2 (MisEngine::Apply), and
// adds the graph.*, core.* and api.* layer metrics.
void RunLadder(const EdgeListGraph& base, const CycledStream& stream,
               int64_t warmup, int64_t count, Report* report);

// Writes `base` as an edge-list file at `path` and ingests it back, adding
// the ingest.* layer metrics (for workloads whose graph is built in memory).
void MeasureIngest(const EdgeListGraph& base, const std::string& path,
                   Report* report);

// --- Set-up sampling -------------------------------------------------------------

// Runs `setup` in `children` forked child processes one after another (the
// caller must not have started threads yet) and returns the seconds each
// reported. Each child exits right after; a failed child yields no sample.
std::vector<double> SampleSetupInChildren(int children,
                                          const std::function<double()>& setup);

// Directory helpers (workdir bookkeeping).
void MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);
// Sum of the sizes of regular files in `dir` whose names start with
// `prefix`, and the size of the lexically last such file.
int64_t DirBytes(const std::string& dir, const std::string& prefix,
                 int64_t* last_file_bytes = nullptr);

// The workloads (one translation unit each).
Report RunMassiveChurn(const Options& options);
Report RunWindowSharded(const Options& options);

// Traced runs only: serves the `hard` graph for options.seconds / 2 and adds
// the serve.*, repl.* and io.* layer metrics, its operation counts and its
// answer check to `report`.
void RunServedPhase(const Options& options, Report* report);

}  // namespace perfbench

#endif  // DYNMIS_PERFBENCH_COMMON_H_
