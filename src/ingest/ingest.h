// SNAP-scale edge-list ingestion.
//
// The paper's datasets are SNAP edge lists with millions of edges, and this
// is the library's one edge-list loader (dynmis_cli's --graph goes through
// it too). Keeping an id hash map plus a seen-edge hash set alive through
// the parse would cost several times the graph itself at multi-million-edge
// scale, so the ingester streams: a chunked reader with a hand-rolled
// integer scanner; a flat id-compaction table while the raw ids stay below
// 8x the vertex count (the ids seen so far, or a trusted size header's
// count), with a hash-map fallback past that (IngestReport::hashed_ids says
// which ran); and deduplication that buckets the edges by lower endpoint
// and sorts each bucket (4 B/edge plus 8 B/vertex transient, instead of
// ~40 B/edge of hash set). `.gz` files are read through a `gzip -dc` pipe.
// A size header pre-sizes the edge vector and the id table, but only a
// plain file's, and only if the file is large enough to hold that many
// edge lines and ids, so a header cannot make the ingester allocate more
// than the file's size warrants.
//
// Every ingest produces an IngestReport with the memory-budget numbers the
// bench matrix and the CI gate consume: wall-clock load time, bytes/edge of
// the ingested EdgeListGraph payload (not of a DynamicGraph or engine built
// from it, which cost several times more per edge), and the process peak
// RSS.
//
// GeneratePowerLawEdgeFile is the deterministic no-network fallback: CI
// synthesizes a multi-million-edge power-law file (Chung-Lu, fixed seed)
// instead of downloading a real SNAP archive.

#ifndef DYNMIS_SRC_INGEST_INGEST_H_
#define DYNMIS_SRC_INGEST_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/graph/edge_list.h"

namespace dynmis {
namespace ingest {

struct IngestReport {
  int64_t vertices = 0;
  int64_t edges = 0;
  int64_t lines = 0;               // Non-comment, non-blank input lines.
  int64_t dropped_self_loops = 0;
  int64_t dropped_duplicates = 0;
  bool header_reserved = false;    // A "# nodes/edges" header pre-sized us.
  bool hashed_ids = false;         // Ids went through the hash map.
  bool gzip = false;               // Decoded through the gzip pipe.
  double load_seconds = 0.0;       // Parse + dedup + compaction.
  size_t graph_bytes = 0;          // EdgeListGraph payload bytes.
  double bytes_per_edge = 0.0;     // graph_bytes / edges.
  size_t peak_rss_bytes = 0;       // Process high-water mark after the load.
};

// Streams `path` (plain text, or `.gz` via a `gzip -dc` pipe) into an
// EdgeListGraph with 0..n-1 ids compacted in first-seen order, self-loops
// dropped and duplicate edges (either orientation) kept once; the edges come
// out sorted. Each non-comment line holds exactly two non-negative ids.
// Returns false with *error set on unreadable files or malformed lines (a
// lone endpoint, a third token, a non-numeric or negative id, an id past
// int64). `report` is optional.
bool IngestEdgeList(const std::string& path, EdgeListGraph* out,
                    IngestReport* report, std::string* error);

// Writes a deterministic Chung-Lu power-law edge list (tail exponent
// `beta`, expected average degree `avg_degree`, fixed `seed`) to `path` in
// SNAP header format, streaming so the writer never holds more than the
// edge vector. Returns the number of edges written, or -1 with *error set.
int64_t GeneratePowerLawEdgeFile(const std::string& path, int n,
                                 double avg_degree, double beta, uint64_t seed,
                                 std::string* error);

// The process peak resident set size in bytes (Linux VmHWM / ru_maxrss).
size_t PeakRssBytes();

}  // namespace ingest
}  // namespace dynmis

#endif  // DYNMIS_SRC_INGEST_INGEST_H_
