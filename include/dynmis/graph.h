// Public graph surface: the dynamic graph substrate, the edge-list
// interchange format, the synthetic generators and dataset registry, and
// update streams / trace files. SNAP edge-list files load through
// ingest::IngestEdgeList (dynmis/workload.h). Applications include this (or
// the dynmis/dynmis.h umbrella) instead of reaching into src/.

#ifndef DYNMIS_INCLUDE_DYNMIS_GRAPH_H_
#define DYNMIS_INCLUDE_DYNMIS_GRAPH_H_

#include "src/graph/datasets.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/edge_list.h"
#include "src/graph/generators.h"
#include "src/graph/static_graph.h"
#include "src/graph/update_stream.h"
#include "src/graph/update_trace_io.h"

#endif  // DYNMIS_INCLUDE_DYNMIS_GRAPH_H_
