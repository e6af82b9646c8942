#include "dynmis/engine.h"

#include <istream>
#include <ostream>
#include <utility>

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
  const VertexId v = maintainer_->Apply(update);
  result.applied = 1;
  if (update.kind == UpdateKind::kInsertVertex) {
    result.new_vertices.push_back(v);
  }
  updates_applied_ += 1;
  return result;
}

UpdateResult MisEngine::ApplyBatch(const std::vector<GraphUpdate>& updates) {
  UpdateResult result;
  result.new_vertices = maintainer_->ApplyBatch(updates);
  result.applied = static_cast<int64_t>(updates.size());
  updates_applied_ += result.applied;
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
  // A retired slot (the lifetime update seconds of earlier builds), kept
  // so files load across builds without a format bump.
  writer->PutDouble(0.0);
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
  r->GetDouble();  // The retired slot: read and discarded.
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
  return stats;
}

}  // namespace dynmis
