#include "src/shard/shard.h"

#include "dynmis/registry.h"
#include "src/util/check.h"

namespace dynmis {

bool Shard::BuildMaintainer(const MaintainerConfig& config) {
  maintainer_ = MaintainerRegistry::Global().Create(config, &graph_);
  return maintainer_ != nullptr;
}

void Shard::Apply(const Block& block) {
  size_t next_insert = 0;
  for (const GraphUpdate& update : block.updates) {
    if (update.kind == UpdateKind::kInsertVertex) {
      // Queued per op, not up front: an earlier op in this very block may
      // be the delete that frees the id this insert recycles.
      DYNMIS_CHECK(next_insert < block.insert_ids.size());
      graph_.QueueVertexId(block.insert_ids[next_insert]);
    }
    const VertexId v = maintainer_->Apply(update);
    if (update.kind == UpdateKind::kInsertVertex) {
      DYNMIS_DCHECK(v == block.insert_ids[next_insert]);
      (void)v;
      ++next_insert;
    }
  }
  DYNMIS_DCHECK(next_insert == block.insert_ids.size());
}

}  // namespace dynmis
