#include "src/ingest/ingest.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <vector>

#include "src/graph/generators.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace dynmis {
namespace ingest {
namespace {

// Raw ids at most this multiple of the seen-vertex count use the flat
// compaction table; anything sparser falls back to the hash map.
constexpr int64_t kDenseIdSlack = 8;
constexpr size_t kReadChunk = 1 << 20;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Compacts raw (possibly sparse, possibly huge) vertex ids to 0..n-1 in
// first-seen order. Dense id spaces — every generated file and most SNAP
// dumps — use a flat vector; the hash map only engages when raw ids run
// far past the number of distinct vertices.
class IdCompactor {
 public:
  VertexId Intern(int64_t raw) {
    if (dense_) {
      if (raw >= static_cast<int64_t>(flat_.size())) {
        if (raw >= kDenseIdSlack * (next_ + 1) + 1024) {
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

  void Reserve(size_t n) {
    if (dense_) flat_.reserve(n + n / 8);
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
  std::vector<VertexId> flat_;
  std::unordered_map<int64_t, VertexId> sparse_;
  VertexId next_ = 0;
};

uint64_t EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
         static_cast<uint32_t>(v);
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
      value = value * 10 + (*p++ - '0');
      if (value < 0) return false;  // Overflow.
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
    // containers pre-size once.
    const char* hash =
        static_cast<const char*>(memchr(begin, '#', end - begin));
    if (hash != nullptr) {
      if (!rep.header_reserved && rep.lines == 0) {
        long long n = 0;
        long long m = 0;
        std::string head(hash, end);
        if ((std::sscanf(head.c_str(), "# nodes: %lld edges: %lld", &n, &m) ==
                 2 ||
             std::sscanf(head.c_str(), "# Nodes: %lld Edges: %lld", &n, &m) ==
                 2) &&
            n >= 0 && m >= 0) {
          rep.header_reserved = true;
          ids.Reserve(static_cast<size_t>(n));
          edges.reserve(static_cast<size_t>(m) + static_cast<size_t>(m) / 16);
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

  // Deduplicate without a hash set: sort + unique over the packed keys is
  // the whole transient cost beyond the edge vector itself.
  std::sort(edges.begin(), edges.end());
  const auto last = std::unique(edges.begin(), edges.end());
  rep.dropped_duplicates = std::distance(last, edges.end());
  edges.erase(last, edges.end());

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
