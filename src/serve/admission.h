// The serving layer's admission state, and the only code that validates
// against it or mutates it: the replica graph every served op is checked
// against, the external-key map, the TTL window wheel and the pending
// update batch. The engine thread owns it. Effects land eagerly at
// admission, so each op is validated against the ops admitted before it;
// Applied() checks that the backend then assigned the vertex ids the
// replica predicted, and Refuse() rolls back a batch that will never
// apply.

#ifndef DYNMIS_SRC_SERVE_ADMISSION_H_
#define DYNMIS_SRC_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dynmis/engine.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/update_stream.h"
#include "src/ingest/key_map.h"
#include "src/ingest/temporal.h"

namespace dynmis {
namespace serve {

// The key effect of one applied update, for every key-map holder
// (admission, the follower mirror, the change-log bootstrap): a keyed
// vertex insert binds its key to `insv_id`, a keyed vertex delete releases
// its key, and an unkeyed one releases whatever key the dying id carried.
void ApplyKeyEffect(const GraphUpdate& update, VertexId insv_id,
                    ingest::KeyMap* keymap);

class Admission {
 public:
  // `replica` is the backend's exported graph; `window_ttl_ms` > 0 expires
  // every admitted edge insert that many milliseconds later.
  Admission(DynamicGraph replica, int64_t window_ttl_ms);

  // Admits one client update: a KINS key must be fresh, a KDEL key
  // resolves into update->u, and the op is validated against the replica.
  // Its effects (replica, key map, TTL schedule) are applied and it joins
  // the pending batch; `*insv_id` receives a vertex insert's id. On false,
  // `*why` names the violated precondition and nothing changed.
  bool Admit(GraphUpdate* update, VertexId* insv_id, std::string* why);

  // Moves the edges whose TTL ran out by `tick_ms` (milliseconds on the
  // caller's clock) into the pending batch as deletions, skipping edges
  // already gone. Returns false as soon as the batch holds `batch_max` ops;
  // the caller flushes it and calls again.
  bool ExpireDue(uint64_t tick_ms, size_t batch_max);

  // The pending batch, in admission order (TTL expiries included).
  const std::vector<GraphUpdate>& pending() const { return pending_; }

  // The backend applied the pending batch — or, on a follower, the batch
  // last handed to Mirror — as `result`: checks that it assigned the
  // vertex ids the replica predicted, then clears the batch.
  void Applied(const UpdateResult& result);

  // The pending batch will never apply: drops it and undoes its effects.
  // `backend_graph` (the backend's ExportGraph()) replaces the replica, the
  // key effects are undone in reverse order, and its TTL expiries go back
  // on the wheel.
  void Refuse(DynamicGraph backend_graph);

  // Follower: takes the effects of one replicated batch, in order, before
  // the backend applies it. A keyed delete resolves its key against the
  // map (a change-log record's resolved id must agree).
  void Mirror(std::vector<GraphUpdate>* updates);

  // Seeds the key map (warm restart, follower bootstrap).
  void AdoptKeyMap(ingest::KeyMap keymap) { keymap_ = std::move(keymap); }

  const DynamicGraph& replica() const { return replica_; }
  const ingest::KeyMap& keymap() const { return keymap_; }
  // Edges scheduled for TTL expiry (0 with the window off).
  int64_t window_edges() const;
  // TTL deletions applied over the lifetime.
  int64_t expired_ops() const { return expired_ops_; }

 private:
  // Checks `update` without changing any state (a KDEL's resolved id is
  // written to update->u).
  bool Validate(GraphUpdate* update, std::string* why);
  // Replica and key-map effect of one update; returns an insert's id.
  VertexId Apply(const GraphUpdate& update);
  void ClearPending();

  DynamicGraph replica_;
  ingest::KeyMap keymap_;
  // Wall-clock wheel at 1 ms per tick over the admitted edge inserts; null
  // with the window off. `due_` holds the edges of the tick being drained,
  // `due_pos_` the next one to expire.
  std::unique_ptr<ingest::TimingWheel> wheel_;
  std::vector<std::pair<VertexId, VertexId>> due_;
  size_t due_pos_ = 0;
  int64_t expired_ops_ = 0;

  std::vector<GraphUpdate> pending_;
  // Undo and check data of the pending batch: the replica's vertex-insert
  // ids, the edges it expires, and per unkeyed vertex delete the key it
  // released (concatenated; a length of 0 means none).
  std::vector<VertexId> insv_ids_;
  std::vector<std::pair<VertexId, VertexId>> pending_expired_;
  std::string released_keys_;
  std::vector<size_t> released_lens_;
};

}  // namespace serve
}  // namespace dynmis

#endif  // DYNMIS_SRC_SERVE_ADMISSION_H_
