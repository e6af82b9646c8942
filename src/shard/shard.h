// Shard: one vertex partition of a ShardedMisEngine. It owns a DynamicGraph
// holding the shard's vertices *at their global ids* (foreign ids stay dead
// gaps, so no id translation exists anywhere) plus the intra-shard edges,
// and the registry maintainer running over that graph.
//
// The engine applies each shard's pending block on the caller's thread, at
// a barrier (or when the block reaches the engine's cap). Ops go one at a
// time through the maintainer's Apply path, so the shard's final state
// depends only on its op sequence, never on where the blocks were cut.

#ifndef DYNMIS_SRC_SHARD_SHARD_H_
#define DYNMIS_SRC_SHARD_SHARD_H_

#include <memory>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/update_stream.h"

namespace dynmis {

class Shard {
 public:
  // A block of updates for this shard, in global-op order. `insert_ids`
  // carries the pre-allocated global ids of the block's kInsertVertex ops
  // (in op order); Apply queues them into the graph so the maintainer's
  // InsertVertex lands on exactly those ids.
  struct Block {
    std::vector<GraphUpdate> updates;
    std::vector<VertexId> insert_ids;

    void clear() {
      updates.clear();
      insert_ids.clear();
    }
  };

  Shard() = default;

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Populate graph() first, then construct the maintainer over it. Returns
  // false when the registry does not know `config.algorithm`.
  bool BuildMaintainer(const MaintainerConfig& config);

  // Applies `block` through the maintainer in op order.
  void Apply(const Block& block);

  DynamicGraph& graph() { return graph_; }
  const DynamicGraph& graph() const { return graph_; }
  DynamicMisMaintainer& maintainer() { return *maintainer_; }
  const DynamicMisMaintainer& maintainer() const { return *maintainer_; }

 private:
  DynamicGraph graph_;
  std::unique_ptr<DynamicMisMaintainer> maintainer_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_SHARD_SHARD_H_
