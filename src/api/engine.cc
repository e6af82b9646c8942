#include "dynmis/engine.h"

#include <istream>
#include <ostream>
#include <utility>

#include "src/util/timer.h"

namespace dynmis {

std::unique_ptr<MisEngine> MisEngine::Create(const EdgeListGraph& base,
                                             MaintainerConfig config) {
  return Create(base.ToDynamic(), std::move(config));
}

std::unique_ptr<MisEngine> MisEngine::Create(DynamicGraph graph,
                                             MaintainerConfig config) {
  auto owned = std::make_unique<DynamicGraph>(std::move(graph));
  std::unique_ptr<DynamicMisMaintainer> maintainer =
      MaintainerRegistry::Global().Create(config, owned.get());
  if (maintainer == nullptr) return nullptr;
  return std::unique_ptr<MisEngine>(new MisEngine(
      std::move(owned), std::move(maintainer), std::move(config)));
}

void MisEngine::Initialize(const std::vector<VertexId>& initial) {
  maintainer_->Initialize(initial);
}

UpdateResult MisEngine::Apply(const GraphUpdate& update) {
  UpdateResult result;
  Timer timer;
  const VertexId v = maintainer_->Apply(update);
  result.seconds = timer.ElapsedSeconds();
  result.applied = 1;
  if (update.kind == UpdateKind::kInsertVertex) {
    result.new_vertices.push_back(v);
  }
  updates_applied_ += 1;
  update_seconds_ += result.seconds;
  if (observer_) observer_(update, 1, result.seconds);
  return result;
}

UpdateResult MisEngine::ApplyBatch(const std::vector<GraphUpdate>& updates) {
  UpdateResult result;
  Timer timer;
  result.new_vertices = maintainer_->ApplyBatch(updates);
  result.seconds = timer.ElapsedSeconds();
  result.applied = static_cast<int64_t>(updates.size());
  updates_applied_ += result.applied;
  update_seconds_ += result.seconds;
  if (observer_ && !updates.empty()) {
    observer_(updates.front(), result.applied, result.seconds);
  }
  return result;
}

UpdateResult MisEngine::InsertEdge(VertexId u, VertexId v) {
  GraphUpdate update;
  update.kind = UpdateKind::kInsertEdge;
  update.u = u;
  update.v = v;
  return Apply(update);
}

UpdateResult MisEngine::DeleteEdge(VertexId u, VertexId v) {
  GraphUpdate update;
  update.kind = UpdateKind::kDeleteEdge;
  update.u = u;
  update.v = v;
  return Apply(update);
}

VertexId MisEngine::InsertVertex(const std::vector<VertexId>& neighbors) {
  GraphUpdate update;
  update.kind = UpdateKind::kInsertVertex;
  update.neighbors = neighbors;
  const UpdateResult result = Apply(update);
  return result.new_vertices.empty() ? kInvalidVertex
                                     : result.new_vertices.front();
}

UpdateResult MisEngine::DeleteVertex(VertexId v) {
  GraphUpdate update;
  update.kind = UpdateKind::kDeleteVertex;
  update.u = v;
  return Apply(update);
}

SnapshotStatus MisEngine::SaveSnapshot(std::ostream& out) const {
  SnapshotWriter writer;
  SaveTo(&writer);
  return writer.WriteTo(out);
}

void MisEngine::SaveTo(SnapshotWriter* writer) const {
  writer->BeginSection("engine");
  writer->PutString(config_.algorithm);
  writer->PutString(maintainer_->Name());
  writer->PutI32(config_.k);
  writer->PutU8(config_.perturb ? 1 : 0);
  writer->PutI32(config_.recompute_every);
  writer->PutI64(updates_applied_);
  writer->PutDouble(update_seconds_);
  writer->EndSection();
  graph_->SaveTo(writer);
  maintainer_->SaveState(writer);
}

bool MisEngine::ReadEngineMeta(SnapshotReader* r, SnapshotEngineMeta* meta) {
  if (!r->OpenSection("engine")) return false;
  meta->config.algorithm = r->GetString();
  meta->display_name = r->GetString();
  meta->config.k = r->GetI32();
  meta->config.perturb = r->GetU8() != 0;
  meta->config.recompute_every = r->GetI32();
  meta->updates_applied = r->GetI64();
  meta->update_seconds = r->GetDouble();
  if (r->ok() && !r->AtSectionEnd()) {
    r->Fail("snapshot: engine: trailing bytes after the last field");
  }
  return r->ok();
}

std::unique_ptr<MisEngine> MisEngine::LoadSnapshot(std::istream& in,
                                                   SnapshotStatus* status) {
  SnapshotReader reader;
  if (SnapshotStatus read = reader.ReadFrom(in); !read) {
    if (status != nullptr) *status = read;
    return nullptr;
  }
  return LoadFrom(&reader, status);
}

std::unique_ptr<MisEngine> MisEngine::LoadFrom(SnapshotReader* reader,
                                               SnapshotStatus* status) {
  auto report = [&](const SnapshotStatus& s) {
    if (status != nullptr) *status = s;
  };
  report(SnapshotStatus::Ok());

  SnapshotEngineMeta meta;
  if (!ReadEngineMeta(reader, &meta)) {
    report(reader->status());
    return nullptr;
  }
  const MaintainerConfig& config = meta.config;
  if (!MaintainerRegistry::Global().Has(config.algorithm)) {
    report(SnapshotStatus::Error("snapshot: unknown algorithm '" +
                                 config.algorithm +
                                 "' (not in MaintainerRegistry)"));
    return nullptr;
  }
  if (config.k < 1 || config.k > kMaxKSwapOrder || config.recompute_every < 1) {
    report(SnapshotStatus::Error(
        "snapshot: engine configuration out of range"));
    return nullptr;
  }

  DynamicGraph graph;
  if (!graph.LoadFrom(reader)) {
    report(reader->status());
    return nullptr;
  }
  std::unique_ptr<MisEngine> engine = Create(std::move(graph), config);
  if (engine == nullptr) {
    report(SnapshotStatus::Error("snapshot: maintainer construction failed"));
    return nullptr;
  }
  if (!engine->maintainer_->LoadState(reader, *engine->graph_)) {
    report(reader->ok() ? SnapshotStatus::Error(
                              "snapshot: maintainer state restore failed")
                        : reader->status());
    return nullptr;
  }
  engine->updates_applied_ = meta.updates_applied;
  engine->update_seconds_ = meta.update_seconds;
  return engine;
}

EngineStats MisEngine::Stats() const {
  EngineStats stats;
  stats.algorithm = maintainer_->Name();
  stats.solution_size = maintainer_->SolutionSize();
  stats.num_vertices = graph_->NumVertices();
  stats.num_edges = graph_->NumEdges();
  stats.structure_memory_bytes = maintainer_->MemoryUsageBytes();
  stats.graph_memory_bytes = graph_->MemoryUsageBytes();
  stats.updates_applied = updates_applied_;
  stats.update_seconds = update_seconds_;
  return stats;
}

}  // namespace dynmis
