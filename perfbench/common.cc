#include "common.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "dynmis/workload.h"

namespace perfbench {
namespace {

// Every digit is printed: a regression check compares values across runs,
// so they must not be rounded (bench/json_writer keeps 6 significant).
void AppendNumber(std::string* out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  out->append(buf);
}

void AppendString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out->push_back(c);
  }
  out->push_back('"');
}

void AppendMetrics(std::string* out, const char* key,
                   const std::vector<Metric>& metrics) {
  AppendString(out, key);
  out->append(":{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendString(out, metrics[i].name);
    out->append(":{\"value\":");
    AppendNumber(out, metrics[i].value);
    out->append(",\"unit\":");
    AppendString(out, metrics[i].unit);
    out->push_back('}');
  }
  out->push_back('}');
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string Report::Json() const {
  std::string out = "{\"correct\":";
  out.append(correct ? "true" : "false");
  out.append(",\"attempted\":" + std::to_string(attempted));
  out.append(",\"failed\":" + std::to_string(failed) + ",");
  AppendMetrics(&out, "metrics", metrics);
  out.push_back(',');
  AppendMetrics(&out, "layers", layers);
  out.push_back(',');
  AppendMetrics(&out, "diagnostics", diagnostics);
  out.append(",\"problems\":[");
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendString(&out, problems[i]);
  }
  out.append("]}");
  return out;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(values->size())));
  return (*values)[std::min(values->size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

double WindowedPercentile(const std::vector<double>& values, size_t window,
                          double p) {
  std::vector<double> tails;
  for (size_t from = 0; from < values.size(); from += window) {
    const size_t to = std::min(values.size(), from + window);
    if (to - from < window && !tails.empty()) break;
    std::vector<double> part(values.begin() + static_cast<ptrdiff_t>(from),
                             values.begin() + static_cast<ptrdiff_t>(to));
    tails.push_back(Percentile(&part, p));
  }
  return Median(std::move(tails));
}

pid_t Tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double TaskCpuSeconds(pid_t tid) {
  const std::string stat =
      ReadFile("/proc/self/task/" + std::to_string(tid) + "/stat");
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<pid_t> ListTasks() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

double PeakRssMb() {
  std::istringstream status(ReadFile("/proc/self/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

HostSample SampleHost() {
  HostSample sample;
  std::istringstream stat(ReadFile("/proc/stat"));
  std::string label;
  // "cpu user nice system idle iowait irq softirq steal ..."
  if (stat >> label && label == "cpu") {
    int64_t value = 0;
    for (int i = 0; i < 8 && stat >> value; ++i) {
      if (i == 7) sample.steal_ticks = value;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.voluntary_switches = usage.ru_nvcsw;
  sample.involuntary_switches = usage.ru_nivcsw;
  sample.wall_s = static_cast<double>(NowNs()) * 1e-9;
  return sample;
}

void AddHostDiagnostics(const HostSample& begin, const HostSample& end,
                        Report* report) {
  const double tick_ms = 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  report->AddDiag("host_steal_ms",
                  static_cast<double>(end.steal_ticks - begin.steal_ticks) *
                      tick_ms,
                  "ms");
  report->AddDiag(
      "voluntary_switches",
      static_cast<double>(end.voluntary_switches - begin.voluntary_switches),
      "count");
  report->AddDiag("involuntary_switches",
                  static_cast<double>(end.involuntary_switches -
                                      begin.involuntary_switches),
                  "count");
  report->AddDiag("timed_wall_s", end.wall_s - begin.wall_s, "s");
}

std::vector<double> SpanDurationsUs(const SpanLog& log, int32_t name,
                                    int64_t from_ns, int64_t to_ns) {
  std::vector<double> out;
  for (const Span& span : log.spans()) {
    if (span.name == name && span.start_ns >= from_ns && span.start_ns < to_ns) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, const SpanLog*>>& logs,
                const std::vector<std::string>& names) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "thread,name,parent,request,start_ns,end_ns\n");
  for (const auto& [thread, log] : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(out, "%s,%s,%d,%lld,%lld,%lld\n", thread.c_str(),
                   names[s.name].c_str(), s.parent,
                   static_cast<long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(out);
}

std::vector<EdgeOp> ToEdgeOps(const std::vector<GraphUpdate>& updates) {
  std::vector<EdgeOp> ops;
  ops.reserve(updates.size());
  for (const GraphUpdate& update : updates) {
    DYNMIS_CHECK(update.kind == dynmis::UpdateKind::kInsertEdge ||
                 update.kind == dynmis::UpdateKind::kDeleteEdge);
    ops.push_back({update.u, update.v,
                   update.kind == dynmis::UpdateKind::kInsertEdge});
  }
  return ops;
}

void FillUpdate(const EdgeOp& op, GraphUpdate* update) {
  update->kind = op.insert ? dynmis::UpdateKind::kInsertEdge
                           : dynmis::UpdateKind::kDeleteEdge;
  update->u = op.u;
  update->v = op.v;
}

void ApplyOp(DynamicGraph* g, const EdgeOp& op) {
  if (op.insert) {
    g->AddEdge(op.u, op.v);
  } else {
    DYNMIS_CHECK(g->RemoveEdgeBetween(op.u, op.v));
  }
}

double CheckAnswer(const DynamicGraph& g, std::vector<VertexId> solution,
                   const Options& options, Report* report) {
  if (options.corrupt && !solution.empty()) solution.pop_back();
  std::vector<uint8_t> member(g.VertexCapacity(), 0);
  for (const VertexId v : solution) {
    if (!g.IsVertexAlive(v) || member[v]) {
      report->Fail("solution names a dead or repeated vertex");
      return 0;
    }
    member[v] = 1;
  }
  int64_t adjacent = 0;
  int64_t undominated = 0;
  for (const VertexId v : g.AliveVertices()) {
    bool dominated = member[v] != 0;
    g.ForEachIncident(v, [&](VertexId u, dynmis::EdgeId) {
      if (member[u]) {
        if (member[v]) ++adjacent;
        dominated = true;
      }
    });
    if (!dominated) ++undominated;
  }
  if (adjacent > 0) report->Fail("solution is not independent");
  if (undominated > 0) report->Fail("solution is not maximal");
  const auto greedy = static_cast<double>(
      dynmis::GreedyMis(dynmis::StaticGraph::FromDynamic(g)).size());
  return static_cast<double>(solution.size()) / greedy;
}

namespace {

// Applies ops [from, from + count) of `stream`; returns ns per op.
template <typename ApplyFn>
double TimeReplay(const CycledStream& stream, int64_t from, int64_t count,
                  ApplyFn&& apply) {
  const int64_t start = NowNs();
  for (int64_t i = from; i < from + count; ++i) apply(stream.At(i));
  return static_cast<double>(NowNs() - start) / static_cast<double>(count);
}

void CountTransition(void* ctx, VertexId, bool) {
  ++*static_cast<int64_t*>(ctx);
}

}  // namespace

void RunLadder(const EdgeListGraph& base, const CycledStream& stream,
               int64_t warmup, int64_t count, Report* report) {
  const dynmis::MaintainerConfig config("DyTwoSwap");
  double l0_ns = 0;
  {
    DynamicGraph g = base.ToDynamic();
    const auto apply = [&](const EdgeOp& op) { ApplyOp(&g, op); };
    TimeReplay(stream, 0, warmup, apply);
    l0_ns = TimeReplay(stream, warmup, count, apply);
    report->AddLayer("graph.apply_ns_per_update", l0_ns, "ns");
    report->AddLayer("graph.bytes_per_edge",
                     static_cast<double>(g.MemoryUsageBytes()) /
                         static_cast<double>(g.NumEdges()),
                     "B");
  }
  double l1_ns = 0;
  {
    DynamicGraph g = base.ToDynamic();
    auto maintainer = dynmis::MaintainerRegistry::Global().Create(config, &g);
    DYNMIS_CHECK(maintainer != nullptr);
    maintainer->Initialize({});
    int64_t transitions = 0;
    GraphUpdate update;
    const auto apply = [&](const EdgeOp& op) {
      FillUpdate(op, &update);
      maintainer->Apply(update);
    };
    TimeReplay(stream, 0, warmup, apply);
    // Installed only for the timed ops, so the count is exact for them.
    maintainer->SetStatusObserver(&CountTransition, &transitions);
    l1_ns = TimeReplay(stream, warmup, count, apply);
    maintainer->SetStatusObserver(nullptr, nullptr);
    report->AddLayer("core.apply_ns_per_update", l1_ns, "ns");
    report->AddLayer("core.self_ns_per_update", l1_ns - l0_ns, "ns");
    report->AddLayer("core.transitions_per_update",
                     static_cast<double>(transitions) /
                         static_cast<double>(count),
                     "count");
    report->AddLayer("core.bytes_per_edge",
                     static_cast<double>(maintainer->MemoryUsageBytes()) /
                         static_cast<double>(g.NumEdges()),
                     "B");
  }
  {
    auto engine = dynmis::MisEngine::Create(base.ToDynamic(), config);
    DYNMIS_CHECK(engine != nullptr);
    const int64_t init_begin = NowNs();
    engine->Initialize();
    const double init_s = static_cast<double>(NowNs() - init_begin) * 1e-9;
    GraphUpdate update;
    const auto apply = [&](const EdgeOp& op) {
      FillUpdate(op, &update);
      engine->Apply(update);
    };
    TimeReplay(stream, 0, warmup, apply);
    const double l2_ns = TimeReplay(stream, warmup, count, apply);
    std::vector<double> collect_us;
    std::vector<VertexId> buffer;
    for (int i = 0; i < 16; ++i) {
      buffer.clear();
      const int64_t start = NowNs();
      engine->CollectSolution(&buffer);
      collect_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    }
    report->AddLayer("api.apply_ns_per_update", l2_ns, "ns");
    report->AddLayer("api.self_ns_per_update", l2_ns - l1_ns, "ns");
    report->AddLayer("api.collect_us", Median(collect_us), "us");
    report->AddLayer("api.init_s", init_s, "s");
  }
}

void MeasureIngest(const EdgeListGraph& base, const std::string& path,
                   Report* report) {
  {
    std::ofstream out(path);
    for (const auto& [u, v] : base.edges) out << u << ' ' << v << '\n';
  }
  EdgeListGraph loaded;
  dynmis::ingest::IngestReport ingest;
  std::string error;
  DYNMIS_CHECK(dynmis::ingest::IngestEdgeList(path, &loaded, &ingest, &error));
  report->AddLayer("ingest.load_s", ingest.load_seconds, "s");
  report->AddLayer("ingest.edge_list_bytes_per_edge", ingest.bytes_per_edge,
                   "B");
  std::remove(path.c_str());
}

std::vector<double> SampleSetupInChildren(
    int children, const std::function<double()>& setup) {
  std::vector<double> samples;
  std::fflush(nullptr);
  for (int i = 0; i < children; ++i) {
    int fds[2];
    if (pipe(fds) != 0) break;
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      break;
    }
    if (pid == 0) {
      close(fds[0]);
      const double seconds = setup();
      ssize_t written = write(fds[1], &seconds, sizeof(seconds));
      (void)written;
      close(fds[1]);
      std::fflush(nullptr);
      _exit(0);
    }
    close(fds[1]);
    double seconds = 0;
    const ssize_t got = read(fds[0], &seconds, sizeof(seconds));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got == static_cast<ssize_t>(sizeof(seconds)) && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0) {
      samples.push_back(seconds);
    }
  }
  return samples;
}

void MakeDirs(const std::string& path) {
  for (size_t pos = path.find('/', 1); ; pos = path.find('/', pos + 1)) {
    mkdir(path.substr(0, pos).c_str(), 0755);
    if (pos == std::string::npos) break;
  }
}

void RemoveTree(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir != nullptr) {
    while (const dirent* entry = readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      RemoveTree(path + "/" + name);
    }
    closedir(dir);
    rmdir(path.c_str());
  } else {
    unlink(path.c_str());
  }
}

int64_t DirBytes(const std::string& dir, const std::string& prefix,
                 int64_t* last_file_bytes) {
  int64_t total = 0;
  std::string last_name;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(prefix, 0) != 0) continue;
    struct stat st {};
    if (stat((dir + "/" + name).c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
      continue;
    }
    total += st.st_size;
    if (last_file_bytes != nullptr && name > last_name) {
      last_name = name;
      *last_file_bytes = st.st_size;
    }
  }
  closedir(d);
  return total;
}

}  // namespace perfbench
