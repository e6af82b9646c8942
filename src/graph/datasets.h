// Registry of synthetic stand-ins for the paper's 22 evaluation graphs.
//
// The paper's experiments use real SNAP/LAW graphs up to 3.4 billion edges,
// split into "easy" instances (VCSolver computes an exact MaxIS within five
// hours) and "hard" instances (only the ARW local-search result is known).
// We reproduce the experiment *structure* at laptop scale: every dataset
// keeps its paper name, its easy/hard category, a power-law degree profile
// whose density ranks the same way as the original (hollywood and the web
// crawls stay the densest), and a fixed seed, while n is scaled down so the
// full benchmark suite runs in minutes. The paper's published statistics are
// carried along for the Table I report. Real SNAP files can be swapped in
// via ingest::IngestEdgeList() (src/ingest/ingest.h).

#ifndef DYNMIS_SRC_GRAPH_DATASETS_H_
#define DYNMIS_SRC_GRAPH_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/edge_list.h"

namespace dynmis {

enum class DatasetKind {
  kChungLu,         // Chung-Lu with power-law expected degrees.
  kBarabasiAlbert,  // Preferential attachment.
  kRMat,            // Recursive matrix (skewed, community-ish).
};

struct DatasetSpec {
  std::string name;       // Paper's dataset name.
  bool easy = true;       // Easy = exact alpha available (Table II/III).
  int n = 0;              // Stand-in vertex count.
  double avg_degree = 0;  // Stand-in target average degree.
  double beta = 2.3;      // Power-law exponent (Chung-Lu only).
  DatasetKind kind = DatasetKind::kChungLu;
  uint64_t seed = 0;
  // Published statistics of the original graph (Table I).
  int64_t paper_n = 0;
  int64_t paper_m = 0;
  double paper_avg_degree = 0;
};

// The 13 easy datasets in the paper's Table I order.
const std::vector<DatasetSpec>& EasyDatasets();

// The 9 hard datasets in the paper's Table IV order.
const std::vector<DatasetSpec>& HardDatasets();

// Finds a spec by paper name (easy and hard pooled); returns nullptr if the
// name is unknown.
const DatasetSpec* FindDataset(const std::string& name);

// Deterministically materializes the stand-in graph for `spec`.
EdgeListGraph GenerateDataset(const DatasetSpec& spec);

}  // namespace dynmis

#endif  // DYNMIS_SRC_GRAPH_DATASETS_H_
