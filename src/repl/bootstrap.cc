#include "src/repl/bootstrap.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "src/repl/change_log.h"
#include "src/serve/admission.h"

namespace dynmis {
namespace repl {

bool BootstrapFromChangeLog(const std::string& dir, const EdgeListGraph& base,
                            const serve::ServeOptions& options,
                            BootstrapResult* out, std::string* error) {
  ChangeLogDirState state;
  if (!ScanChangeLogDir(dir, &state, error)) return false;
  out->epoch = std::max(state.max_epoch, ReadEpochFile(dir));

  out->base_seq = -1;
  if (state.latest_base_seq >= 0) {
    std::ifstream in;
    int64_t base_epoch = 0;
    if (!OpenBaseSnapshot(state.latest_base_path, &in, &base_epoch, error)) {
      return false;
    }
    out->backend = serve::RestoreServingBackend(in, error, &out->keymap);
    if (out->backend == nullptr) return false;
    out->base_seq = state.latest_base_seq;
    out->epoch = std::max(out->epoch, base_epoch);
  } else {
    out->backend = serve::MakeServingBackend(base, options, error);
    if (out->backend == nullptr) return false;
  }

  out->next_seq = out->base_seq >= 0 ? out->base_seq : 0;
  out->tail_batches = 0;
  out->tail_ops = 0;
  if (state.segments.empty()) return true;

  ChangeLogCursor cursor;
  if (!cursor.Open(dir, out->next_seq, error)) return false;
  for (;;) {
    LogBatch batch;
    bool available = false;
    if (!cursor.Next(&batch, &available, error)) return false;
    if (!available) break;  // Reached the live tail: caught up on disk.
    const UpdateResult result = out->backend->ApplyBatch(batch.updates);
    // Replay the batch's key bindings too: the log records carry each keyed
    // op's key (and the delete's primary-resolved id), so the map lands at
    // exactly the primary's state for this seq.
    size_t insv = 0;
    for (const GraphUpdate& update : batch.updates) {
      VertexId id = kInvalidVertex;
      if (update.kind == UpdateKind::kInsertVertex) {
        if (insv >= result.new_vertices.size()) {
          *error = "bootstrap: replayed batch lost a vertex-insert id";
          return false;
        }
        id = result.new_vertices[insv++];
      }
      serve::ApplyKeyEffect(update, id, &out->keymap);
    }
    out->epoch = std::max(out->epoch, batch.epoch);
    ++out->tail_batches;
    out->tail_ops += static_cast<int64_t>(batch.updates.size());
  }
  out->next_seq = cursor.next_seq();
  return true;
}

}  // namespace repl
}  // namespace dynmis
