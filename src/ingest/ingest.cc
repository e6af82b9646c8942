#include "src/ingest/ingest.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/graph/generators.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace dynmis {
namespace ingest {
namespace {

// Raw ids below this multiple of the vertex count (the distinct ids seen
// so far, or a trusted size header's, whichever is larger) use the flat
// compaction table; anything sparser falls back to the hash map.
constexpr int64_t kDenseIdSlack = 8;
constexpr size_t kReadChunk = 1 << 20;
// The fewest bytes an edge line ("1 2\n") and a distinct id ("1 ") take,
// so that a size header claiming more than the file can hold is ignored.
constexpr int64_t kMinEdgeLineBytes = 4;
constexpr int64_t kMinIdBytes = 2;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Compacts raw (possibly sparse, possibly huge) vertex ids to 0..n-1 in
// first-seen order. Dense id spaces use a flat vector; the hash map only
// engages when a raw id runs far past the vertex count. A trusted size
// header gives that count up front, so a dense file whose first lines name
// high ids (a generated file's hub lists its neighbours first) stays flat.
class IdCompactor {
 public:
  VertexId Intern(int64_t raw) {
    if (dense_) {
      if (raw >= static_cast<int64_t>(flat_.size())) {
        if (raw >= kDenseIdSlack * std::max<int64_t>(next_ + 1, expected_) +
                       1024) {
          SwitchToSparse();
          return InternSparse(raw);
        }
        flat_.resize(static_cast<size_t>(raw) + 1, kInvalidVertex);
      }
      VertexId& slot = flat_[static_cast<size_t>(raw)];
      if (slot == kInvalidVertex) slot = next_++;
      return slot;
    }
    return InternSparse(raw);
  }

  int Count() const { return next_; }
  bool Hashed() const { return !dense_; }

  // A trusted header's vertex count: pre-sizes the flat table and widens
  // its density bound.
  void Expect(int64_t n) {
    expected_ = n;
    flat_.reserve(static_cast<size_t>(n + n / 8));
  }

 private:
  VertexId InternSparse(int64_t raw) {
    auto [it, inserted] = sparse_.try_emplace(raw, next_);
    if (inserted) ++next_;
    return it->second;
  }

  void SwitchToSparse() {
    sparse_.reserve(flat_.size());
    for (size_t raw = 0; raw < flat_.size(); ++raw) {
      if (flat_[raw] != kInvalidVertex) {
        sparse_.emplace(static_cast<int64_t>(raw), flat_[raw]);
      }
    }
    flat_.clear();
    flat_.shrink_to_fit();
    dense_ = false;
  }

  bool dense_ = true;
  int64_t expected_ = 0;
  std::vector<VertexId> flat_;
  std::unordered_map<int64_t, VertexId> sparse_;
  VertexId next_ = 0;
};

// Sorts `edges` (each one (lower, higher), ids below n) and drops repeats,
// returning how many. It buckets the edges by lower endpoint (a counting
// pass, then a scatter of the higher endpoints), sorts and deduplicates
// each bucket, and writes the survivors back in place: 4 B per edge plus
// 8 B per vertex of scratch, and cache-sized sorts instead of one over
// every pair.
int64_t SortAndDedup(int n, std::vector<std::pair<VertexId, VertexId>>* edges) {
  // end[u] first counts u's bucket, then is its start, and after the
  // scatter its end.
  std::vector<int64_t> end(static_cast<size_t>(n) + 1, 0);
  for (const auto& edge : *edges) ++end[edge.first + 1];
  for (int u = 0; u < n; ++u) end[u + 1] += end[u];
  std::vector<VertexId> higher(edges->size());
  for (const auto& [u, v] : *edges) higher[end[u]++] = v;
  size_t kept = 0;
  int64_t begin = 0;
  for (VertexId u = 0; u < n; ++u) {
    std::sort(higher.begin() + begin, higher.begin() + end[u]);
    for (int64_t i = begin; i < end[u]; ++i) {
      if (i == begin || higher[i] != higher[i - 1]) {
        (*edges)[kept++] = {u, higher[i]};
      }
    }
    begin = end[u];
  }
  const auto dropped = static_cast<int64_t>(edges->size() - kept);
  edges->resize(kept);
  return dropped;
}

// One line of input: either a comment/blank (handled by the caller) or
// exactly two integer tokens. Returns false on malformed numerics.
bool ParseEdgeLine(const char* p, const char* end, int64_t* a, int64_t* b,
                   bool* blank) {
  auto skip_ws = [&] {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  };
  auto parse_int = [&](int64_t* out) {
    bool neg = false;
    if (p < end && (*p == '-' || *p == '+')) neg = (*p++ == '-');
    if (p >= end || *p < '0' || *p > '9') return false;
    int64_t value = 0;
    while (p < end && *p >= '0' && *p <= '9') {
      const int digit = *p++ - '0';
      if (value > (std::numeric_limits<int64_t>::max() - digit) / 10) {
        return false;  // Beyond int64.
      }
      value = value * 10 + digit;
    }
    *out = neg ? -value : value;
    return true;
  };
  skip_ws();
  if (p == end) {
    *blank = true;
    return true;
  }
  *blank = false;
  if (!parse_int(a)) return false;
  skip_ws();
  if (!parse_int(b)) return false;
  skip_ws();
  return p == end;  // Trailing garbage is malformed.
}

struct LineSource {
  FILE* file = nullptr;
  bool piped = false;
  int64_t bytes = -1;  // A plain file's size; unknown through the pipe.

  ~LineSource() {
    if (file == nullptr) return;
    if (piped) {
      pclose(file);
    } else {
      fclose(file);
    }
  }
};

bool OpenSource(const std::string& path, LineSource* src, bool* gzip,
                std::string* error) {
  *gzip = EndsWith(path, ".gz");
  if (*gzip) {
    // Shell out to gzip rather than linking zlib: the toolchain image is
    // fixed and the decode runs in its own process, overlapping the parse.
    std::string quoted = "'";
    for (char c : path) {
      if (c == '\'') {
        quoted += "'\\''";
      } else {
        quoted += c;
      }
    }
    quoted += "'";
    src->file = popen(("gzip -dc " + quoted).c_str(), "r");
    src->piped = true;
    if (src->file == nullptr) {
      *error = "cannot spawn gzip for " + path;
      return false;
    }
    return true;
  }
  src->file = fopen(path.c_str(), "r");
  if (src->file == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  struct stat st;
  if (fstat(fileno(src->file), &st) == 0) src->bytes = st.st_size;
  return true;
}

}  // namespace

size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

bool IngestEdgeList(const std::string& path, EdgeListGraph* out,
                    IngestReport* report, std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport();

  LineSource src;
  if (!OpenSource(path, &src, &rep.gzip, error)) return false;

  IdCompactor ids;
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<char> buffer(kReadChunk);
  std::string carry;  // Partial line spanning a chunk boundary.
  int64_t lineno = 0;

  auto consume_line = [&](const char* begin, const char* end) {
    ++lineno;
    // Strip comments from '#', and honor a size header ("# nodes: N edges:
    // M", or SNAP's capitalized variant) before any edge line so the
    // containers pre-size once. A header is trusted only as far as the
    // file could hold it, so a plain file's size bounds what it can make
    // us allocate; a piped file's size is unknown, so its header is not.
    const char* hash =
        static_cast<const char*>(memchr(begin, '#', end - begin));
    if (hash != nullptr) {
      if (!rep.header_reserved && rep.lines == 0 && src.bytes >= 0) {
        long long n = 0;
        long long m = 0;
        std::string head(hash, end);
        if ((std::sscanf(head.c_str(), "# nodes: %lld edges: %lld", &n, &m) ==
                 2 ||
             std::sscanf(head.c_str(), "# Nodes: %lld Edges: %lld", &n, &m) ==
                 2) &&
            n >= 0 && m >= 0 && n <= src.bytes / kMinIdBytes &&
            m <= src.bytes / kMinEdgeLineBytes) {
          rep.header_reserved = true;
          ids.Expect(n);
          edges.reserve(static_cast<size_t>(m + m / 16));
        }
      }
      end = hash;
    }
    int64_t a = 0;
    int64_t b = 0;
    bool blank = false;
    if (!ParseEdgeLine(begin, end, &a, &b, &blank)) {
      *error = path + ":" + std::to_string(lineno) + ": malformed edge line";
      return false;
    }
    if (blank) return true;
    ++rep.lines;
    if (a < 0 || b < 0) {
      *error = path + ":" + std::to_string(lineno) + ": negative vertex id";
      return false;
    }
    if (a == b) {
      ++rep.dropped_self_loops;
      return true;
    }
    const VertexId u = ids.Intern(a);
    const VertexId v = ids.Intern(b);
    edges.emplace_back(std::min(u, v), std::max(u, v));
    return true;
  };

  while (true) {
    const size_t got = fread(buffer.data(), 1, buffer.size(), src.file);
    if (got == 0) break;
    const char* p = buffer.data();
    const char* chunk_end = p + got;
    while (p < chunk_end) {
      const char* nl =
          static_cast<const char*>(memchr(p, '\n', chunk_end - p));
      if (nl == nullptr) {
        carry.append(p, chunk_end);
        break;
      }
      if (!carry.empty()) {
        carry.append(p, nl);
        if (!consume_line(carry.data(), carry.data() + carry.size())) {
          return false;
        }
        carry.clear();
      } else if (!consume_line(p, nl)) {
        return false;
      }
      p = nl + 1;
    }
  }
  if (ferror(src.file) != 0) {
    *error = "read error on " + path;
    return false;
  }
  if (!carry.empty() &&
      !consume_line(carry.data(), carry.data() + carry.size())) {
    return false;
  }

  rep.dropped_duplicates = SortAndDedup(ids.Count(), &edges);
  rep.hashed_ids = ids.Hashed();
  out->n = ids.Count();
  out->edges = std::move(edges);
  rep.vertices = out->n;
  rep.edges = out->NumEdges();
  rep.graph_bytes = out->edges.capacity() * sizeof(out->edges[0]);
  rep.bytes_per_edge =
      rep.edges == 0 ? 0.0
                     : static_cast<double>(rep.graph_bytes) /
                           static_cast<double>(rep.edges);
  rep.load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  rep.peak_rss_bytes = PeakRssBytes();
  return true;
}

int64_t GeneratePowerLawEdgeFile(const std::string& path, int n,
                                 double avg_degree, double beta, uint64_t seed,
                                 std::string* error) {
  Rng rng(SplitMix64(seed));
  const EdgeListGraph g = ChungLuPowerLaw(n, beta, avg_degree, &rng);
  std::ofstream file(path);
  if (!file) {
    *error = "cannot write " + path;
    return -1;
  }
  file << "# dynmis power-law edge list (chung-lu beta=" << beta
       << " seed=" << seed << ")\n";
  file << "# nodes: " << g.n << " edges: " << g.edges.size() << "\n";
  // Chunked formatting: a 64 KiB text buffer flushed in bulk is ~4x faster
  // than operator<< per edge at multi-million-edge scale.
  std::string chunk;
  chunk.reserve(1 << 16);
  char line[48];
  for (const auto& [u, v] : g.edges) {
    chunk.append(line, std::snprintf(line, sizeof(line), "%d\t%d\n", u, v));
    if (chunk.size() > (1 << 16) - 48) {
      file.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
  }
  file.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  file.flush();
  if (!file) {
    *error = "write error on " + path;
    return -1;
  }
  return g.NumEdges();
}

}  // namespace ingest
}  // namespace dynmis
