#include "dynmis/sharded_engine.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "dynmis/registry.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace dynmis {
namespace {

// A five-digit shard count in a snapshot is certainly corruption.
constexpr int kMaxShards = 1024;

// Pending ops a shard holds before routing applies them (about 4.7 MB of
// GraphUpdates), so a caller that never queries stays bounded. A barrier
// per admission batch or per 8192-op chunk never reaches it.
constexpr size_t kMaxPendingOps = size_t{1} << 16;

// The snapshot slot of the deleted block_ops option: written as its old
// default and checked >= 1 on load, so snapshots load in both directions.
constexpr int32_t kLegacyBlockOps = 1024;

std::string ShardPrefix(int shard) {
  return "shard" + std::to_string(shard) + "/";
}

// Each vertex's degree inside its own shard, so every shard graph sizes its
// arrays once before the bulk insert (see DynamicGraph::ReserveDegree).
std::vector<int32_t> ShardDegrees(
    const PartitionPlan& plan, int n,
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  std::vector<int32_t> degree(static_cast<size_t>(n), 0);
  for (const auto& [u, v] : edges) {
    if (plan.ShardOf(u) == plan.ShardOf(v)) {
      ++degree[u];
      ++degree[v];
    }
  }
  return degree;
}

}  // namespace

ShardedMisEngine::ShardedMisEngine(MaintainerConfig config,
                                   ShardedEngineOptions options,
                                   PartitionPlan plan, int initial_vertices)
    : config_(std::move(config)),
      options_(options),
      plan_(plan),
      resolver_(initial_vertices) {
  shards_.reserve(static_cast<size_t>(plan_.num_shards()));
  for (int s = 0; s < plan_.num_shards(); ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  pending_.resize(static_cast<size_t>(plan_.num_shards()));
}

ShardedMisEngine::~ShardedMisEngine() = default;

std::unique_ptr<ShardedMisEngine> ShardedMisEngine::Create(
    const EdgeListGraph& base, MaintainerConfig config,
    ShardedEngineOptions options) {
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return nullptr;
  }
  PartitionPlan plan =
      PartitionPlan::Make(options.partition, options.num_shards, base.n);
  if (plan.assigns_on_insert()) {
    // Stream the base vertices through the greedy placement in id order,
    // each voting with its already-placed neighbors — the same rule later
    // vertex inserts follow, so creation is just the stream's prefix.
    std::vector<std::vector<VertexId>> neighbors(
        static_cast<size_t>(base.n));
    for (const auto& [u, v] : base.edges) {
      neighbors[u].push_back(v);
      neighbors[v].push_back(u);
    }
    for (VertexId v = 0; v < base.n; ++v) {
      plan.AssignVertex(v, neighbors[v]);
      plan.OnVertexAdded(v);
    }
  }
  std::unique_ptr<ShardedMisEngine> engine(
      new ShardedMisEngine(std::move(config), options, plan, base.n));

  // Shard graphs host their vertices at the global ids (foreign ids stay
  // dead gaps — no id translation exists anywhere in the subsystem).
  const std::vector<int32_t> degree = ShardDegrees(plan, base.n, base.edges);
  for (VertexId v = 0; v < base.n; ++v) {
    DynamicGraph& g = engine->shards_[plan.ShardOf(v)]->graph();
    g.QueueVertexId(v);
    g.AddVertex();
    g.ReserveDegree(v, degree[v]);
  }
  for (const auto& [u, v] : base.edges) {
    const int su = plan.ShardOf(u);
    if (su == plan.ShardOf(v)) {
      engine->shards_[su]->graph().AddEdge(u, v);
    } else {
      engine->resolver_.InsertCutEdge(u, v);
    }
  }
  for (auto& shard : engine->shards_) {
    if (!shard->BuildMaintainer(engine->config_)) return nullptr;
  }
  return engine;
}

std::unique_ptr<ShardedMisEngine> ShardedMisEngine::CreateFromGraph(
    const DynamicGraph& global, MaintainerConfig config,
    ShardedEngineOptions options) {
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return nullptr;
  }
  const int capacity = global.VertexCapacity();
  PartitionPlan plan =
      PartitionPlan::Make(options.partition, options.num_shards, capacity);
  if (plan.assigns_on_insert()) {
    // Stream the alive vertices in id order; dead ids stay unowned and get
    // assigned if their id is ever recycled.
    std::vector<VertexId> neighbors;
    for (VertexId v = 0; v < capacity; ++v) {
      if (!global.IsVertexAlive(v)) continue;
      neighbors.clear();
      global.ForEachIncident(v,
                             [&](VertexId u, EdgeId) {
                               neighbors.push_back(u);
                             });
      plan.AssignVertex(v, neighbors);
      plan.OnVertexAdded(v);
    }
  }
  std::unique_ptr<ShardedMisEngine> engine(
      new ShardedMisEngine(std::move(config), options, plan, capacity));

  // The resolver starts with 0..capacity-1 alive; replaying the source
  // graph's removals in its recycle order makes the resolver's free list —
  // the global id allocator — match element for element, so vertex inserts
  // after the swap assign the ids the old backend would have.
  for (const VertexId v : global.FreeVertexIds()) {
    engine->resolver_.FreeVertexId(v);
  }
  const std::vector<std::pair<VertexId, VertexId>> edges = global.EdgeList();
  const std::vector<int32_t> degree = ShardDegrees(plan, capacity, edges);
  for (VertexId v = 0; v < capacity; ++v) {
    if (!global.IsVertexAlive(v)) continue;
    DynamicGraph& g = engine->shards_[plan.ShardOf(v)]->graph();
    g.QueueVertexId(v);
    g.AddVertex();
    g.ReserveDegree(v, degree[v]);
  }
  for (const auto& [u, v] : edges) {
    const int su = plan.ShardOf(u);
    if (su == plan.ShardOf(v)) {
      engine->shards_[su]->graph().AddEdge(u, v);
    } else {
      engine->resolver_.InsertCutEdge(u, v);
    }
  }
  for (auto& shard : engine->shards_) {
    if (!shard->BuildMaintainer(engine->config_)) return nullptr;
  }
  return engine;
}

void ShardedMisEngine::Initialize() {
  for (auto& shard : shards_) shard->maintainer().Initialize({});
  resolved_ = false;
  EnsureResolved();
}

VertexId ShardedMisEngine::Route(const GraphUpdate& update) {
  // Edge ops are appended field-wise rather than copied: the GraphUpdate
  // copy constructor drags the (empty) neighbors vector along, and this
  // append runs for every intra-shard op.
  auto append_edge_op = [&](int shard) {
    GraphUpdate& slot = pending_[shard].updates.emplace_back();
    slot.kind = update.kind;
    slot.u = update.u;
    slot.v = update.v;
    ApplyIfFull(shard);
  };
  switch (update.kind) {
    case UpdateKind::kInsertEdge: {
      const int su = plan_.ShardOf(update.u);
      if (su == plan_.ShardOf(update.v)) {
        append_edge_op(su);
      } else {
        resolver_.AddCutEdge(update.u, update.v);
      }
      return kInvalidVertex;
    }
    case UpdateKind::kDeleteEdge: {
      const int su = plan_.ShardOf(update.u);
      if (su == plan_.ShardOf(update.v)) {
        append_edge_op(su);
      } else {
        resolver_.RemoveCutEdge(update.u, update.v);
      }
      return kInvalidVertex;
    }
    case UpdateKind::kInsertVertex: {
      // The global id is allocated synchronously (so callers see it at
      // once, and allocation order matches a single engine); the op the
      // shard receives carries only the intra-shard neighbor edges.
      const VertexId id = resolver_.AddVertex();
      // A locality plan places a never-before-seen id now, voting with the
      // vertex's current neighbors; a recycled id keeps its previous owner
      // (see PartitionPlan).
      if (plan_.assigns_on_insert() && !plan_.HasOwner(id)) {
        plan_.AssignVertex(id, update.neighbors);
      }
      plan_.OnVertexAdded(id);
      const int s = plan_.ShardOf(id);
      GraphUpdate local;
      local.kind = UpdateKind::kInsertVertex;
      for (const VertexId n : update.neighbors) {
        if (plan_.ShardOf(n) == s) {
          local.neighbors.push_back(n);
        } else {
          resolver_.AddCutEdge(id, n);
        }
      }
      pending_[s].updates.push_back(std::move(local));
      pending_[s].insert_ids.push_back(id);
      ApplyIfFull(s);
      return id;
    }
    case UpdateKind::kDeleteVertex: {
      const int s = plan_.ShardOf(update.u);
      // Frees the global id for recycling at once and buffers the drop of
      // its cut edges (a recycled id maps back to the same shard, so the
      // shard's op order keeps delete-then-reinsert sequences consistent).
      resolver_.RemoveVertex(update.u);
      plan_.OnVertexRemoved(update.u);
      append_edge_op(s);
      return kInvalidVertex;
    }
  }
  return kInvalidVertex;
}

void ShardedMisEngine::ApplyIfFull(int shard) {
  Shard::Block& block = pending_[shard];
  if (block.updates.size() < kMaxPendingOps) return;
  shards_[shard]->Apply(block);
  block.clear();
}

UpdateResult ShardedMisEngine::Apply(const GraphUpdate& update) {
  UpdateResult result;
  Timer timer;
  const VertexId v = Route(update);
  resolved_ = false;
  result.seconds = timer.ElapsedSeconds();
  result.applied = 1;
  if (update.kind == UpdateKind::kInsertVertex) {
    result.new_vertices.push_back(v);
  }
  updates_applied_ += 1;
  update_seconds_ += result.seconds;
  if (observer_) observer_(1, result.seconds);
  return result;
}

UpdateResult ShardedMisEngine::ApplyBatch(
    const std::vector<GraphUpdate>& updates) {
  UpdateResult result;
  Timer timer;
  for (const GraphUpdate& update : updates) {
    const VertexId v = Route(update);
    if (update.kind == UpdateKind::kInsertVertex) {
      result.new_vertices.push_back(v);
    }
  }
  resolved_ = false;
  result.seconds = timer.ElapsedSeconds();
  result.applied = static_cast<int64_t>(updates.size());
  updates_applied_ += result.applied;
  update_seconds_ += result.seconds;
  if (observer_ && result.applied > 0) {
    observer_(result.applied, result.seconds);
  }
  return result;
}

UpdateResult ShardedMisEngine::InsertEdge(VertexId u, VertexId v) {
  GraphUpdate update;
  update.kind = UpdateKind::kInsertEdge;
  update.u = u;
  update.v = v;
  return Apply(update);
}

UpdateResult ShardedMisEngine::DeleteEdge(VertexId u, VertexId v) {
  GraphUpdate update;
  update.kind = UpdateKind::kDeleteEdge;
  update.u = u;
  update.v = v;
  return Apply(update);
}

VertexId ShardedMisEngine::InsertVertex(
    const std::vector<VertexId>& neighbors) {
  GraphUpdate update;
  update.kind = UpdateKind::kInsertVertex;
  update.neighbors = neighbors;
  const UpdateResult result = Apply(update);
  return result.new_vertices.empty() ? kInvalidVertex
                                     : result.new_vertices.front();
}

UpdateResult ShardedMisEngine::DeleteVertex(VertexId v) {
  GraphUpdate update;
  update.kind = UpdateKind::kDeleteVertex;
  update.u = v;
  return Apply(update);
}

void ShardedMisEngine::Barrier() {
  // Cleared blocks keep their capacity, so steady-state rounds do not
  // allocate for them.
  for (int s = 0; s < plan_.num_shards(); ++s) {
    shards_[s]->Apply(pending_[s]);
    pending_[s].clear();
  }
  resolver_.ApplyCutOps();
}

void ShardedMisEngine::Flush() { Barrier(); }

void ShardedMisEngine::EnsureResolved() {
  if (resolved_) return;
  Barrier();
  Timer resolve_timer;
  resolution_ = resolver_.Resolve(plan_, shards_);
  resolve_seconds_ += resolve_timer.ElapsedSeconds();
  ++barriers_;
  total_conflicts_ += resolution_.conflicts;
  total_evictions_ += resolution_.evictions;
  total_readded_ += resolution_.readded;
  total_swaps_ += resolution_.swaps;
  resolved_ = true;
}

bool ShardedMisEngine::InSolution(VertexId v) {
  EnsureResolved();
  return std::binary_search(resolution_.solution.begin(),
                            resolution_.solution.end(), v);
}

int64_t ShardedMisEngine::SolutionSize() {
  EnsureResolved();
  return static_cast<int64_t>(resolution_.solution.size());
}

std::vector<VertexId> ShardedMisEngine::Solution() {
  EnsureResolved();
  return resolution_.solution;
}

void ShardedMisEngine::CollectSolution(std::vector<VertexId>* out) {
  EnsureResolved();
  out->insert(out->end(), resolution_.solution.begin(),
              resolution_.solution.end());
}

EngineStats ShardedMisEngine::Stats() {
  EnsureResolved();
  EngineStats stats;
  stats.algorithm = shards_[0]->maintainer().Name();
  stats.solution_size = static_cast<int64_t>(resolution_.solution.size());
  stats.num_vertices = resolver_.NumVertices();
  stats.num_edges = resolver_.NumCutEdges();
  for (const auto& shard : shards_) {
    stats.num_edges += shard->graph().NumEdges();
    stats.structure_memory_bytes += shard->maintainer().MemoryUsageBytes();
    stats.graph_memory_bytes += shard->graph().MemoryUsageBytes();
  }
  stats.graph_memory_bytes += resolver_.MemoryUsageBytes();
  stats.updates_applied = updates_applied_;
  stats.update_seconds = update_seconds_;
  return stats;
}

DynamicGraph ShardedMisEngine::BuildGlobalGraph() {
  Flush();
  DynamicGraph g(resolver_.VertexCapacity());
  // Dead ids are removed in the resolver's recycle order, so the copy's
  // LIFO free list matches element for element and future AddVertex()
  // calls agree with this engine's global allocation.
  for (const VertexId v : resolver_.FreeVertexIds()) g.RemoveVertex(v);
  for (VertexId v = 0; v < g.VertexCapacity(); ++v) {
    if (!g.IsVertexAlive(v)) continue;
    g.ReserveDegree(v, shards_[plan_.ShardOf(v)]->graph().Degree(v) +
                           resolver_.CutDegree(v));
  }
  for (const auto& shard : shards_) {
    for (const auto& [u, v] : shard->graph().EdgeList()) g.AddEdge(u, v);
  }
  for (const auto& [u, v] : resolver_.CutEdgeList()) g.AddEdge(u, v);
  return g;
}

std::vector<EngineStats> ShardedMisEngine::PerShardStats() {
  EnsureResolved();
  std::vector<EngineStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    EngineStats s;
    s.algorithm = shard->maintainer().Name();
    s.solution_size = shard->maintainer().SolutionSize();
    s.num_vertices = shard->graph().NumVertices();
    s.num_edges = shard->graph().NumEdges();
    s.structure_memory_bytes = shard->maintainer().MemoryUsageBytes();
    s.graph_memory_bytes = shard->graph().MemoryUsageBytes();
    stats.push_back(std::move(s));
  }
  return stats;
}

ShardedStats ShardedMisEngine::ShardStats() {
  EnsureResolved();
  ShardedStats stats;
  stats.num_shards = plan_.num_shards();
  stats.partition = PartitionStrategyName(plan_.strategy());
  for (const auto& shard : shards_) {
    stats.intra_edges += shard->graph().NumEdges();
    stats.shard_solution_sizes.push_back(shard->maintainer().SolutionSize());
  }
  stats.cut_edges = resolver_.NumCutEdges();
  const int64_t total = stats.intra_edges + stats.cut_edges;
  stats.cut_edge_fraction =
      total > 0 ? static_cast<double>(stats.cut_edges) /
                      static_cast<double>(total)
                : 0;
  stats.barriers = barriers_;
  stats.conflicts = total_conflicts_;
  stats.evictions = total_evictions_;
  stats.readded = total_readded_;
  stats.swaps = total_swaps_;
  stats.resolve_seconds = resolve_seconds_;
  return stats;
}

SnapshotStatus ShardedMisEngine::SaveSnapshot(std::ostream& out) {
  SnapshotWriter writer;
  SaveTo(&writer);
  return writer.WriteTo(out);
}

void ShardedMisEngine::SaveTo(SnapshotWriter* writer) {
  EnsureResolved();  // Every pending and cut op applied.
  writer->BeginSection("sharded");
  writer->PutString(config_.algorithm);
  writer->PutString(shards_[0]->maintainer().Name());
  writer->PutI32(config_.k);
  writer->PutU8(1);  // Former lazy-collection flag, kept for older readers.
  writer->PutU8(config_.perturb ? 1 : 0);
  writer->PutI32(config_.recompute_every);
  writer->PutI32(plan_.num_shards());
  writer->PutU8(static_cast<uint8_t>(plan_.strategy()));
  writer->PutI32(plan_.block_size());
  writer->PutI32(kLegacyBlockOps);
  // Former resolver-mode flag (ShardedEngineOptions::async_resolver),
  // kept so snapshots load in both directions.
  writer->PutU8(options_.async_resolver ? 1 : 0);
  writer->PutI64(updates_applied_);
  writer->PutDouble(update_seconds_);
  writer->PutDouble(resolve_seconds_);
  writer->PutI64(barriers_);
  writer->PutI64(total_conflicts_);
  writer->PutI64(total_evictions_);
  writer->PutI64(total_readded_);
  writer->PutI64(total_swaps_);
  // Locality owner table, verbatim (-1 = never assigned); empty for the
  // stateless hash/range plans.
  writer->PutI32Array(plan_.owners());
  writer->EndSection();
  writer->SetSectionPrefix("cut/");
  resolver_.SaveTo(writer);
  for (int s = 0; s < plan_.num_shards(); ++s) {
    writer->SetSectionPrefix(ShardPrefix(s));
    shards_[s]->graph().SaveTo(writer);
    shards_[s]->maintainer().SaveState(writer);
  }
  writer->SetSectionPrefix("");
}

bool ShardedMisEngine::LoadShards(SnapshotReader* reader) {
  reader->SetSectionPrefix("cut/");
  if (!resolver_.LoadFrom(reader)) return false;
  for (int s = 0; s < plan_.num_shards(); ++s) {
    reader->SetSectionPrefix(ShardPrefix(s));
    if (!shards_[s]->graph().LoadFrom(reader)) return false;
  }
  reader->SetSectionPrefix("");
  if (!ValidateLoaded(reader)) return false;
  for (int s = 0; s < plan_.num_shards(); ++s) {
    if (!shards_[s]->BuildMaintainer(config_)) {
      reader->Fail("snapshot: sharded: maintainer construction failed");
      return false;
    }
    reader->SetSectionPrefix(ShardPrefix(s));
    if (!shards_[s]->maintainer().LoadState(reader, shards_[s]->graph())) {
      if (reader->ok()) {
        reader->Fail("snapshot: sharded: maintainer state restore failed");
      }
      return false;
    }
  }
  reader->SetSectionPrefix("");
  return true;
}

bool ShardedMisEngine::ValidateLoaded(SnapshotReader* reader) const {
  auto fail = [&](const char* message) {
    reader->Fail(std::string("snapshot: sharded: ") + message);
    return false;
  };
  // Every alive vertex lives in exactly its plan shard (and nowhere else),
  // and the cut structure knows exactly the alive vertices.
  for (int s = 0; s < plan_.num_shards(); ++s) {
    const DynamicGraph& g = shards_[s]->graph();
    if (g.VertexCapacity() > resolver_.VertexCapacity()) {
      return fail("shard id space exceeds the global id space");
    }
    for (VertexId v = 0; v < g.VertexCapacity(); ++v) {
      if (!g.IsVertexAlive(v)) continue;
      if (!plan_.HasOwner(v)) {
        return fail("alive vertex missing a partition-plan owner");
      }
      if (plan_.ShardOf(v) != s) {
        return fail("vertex alive in a shard the plan does not map it to");
      }
      if (!resolver_.IsVertexAlive(v)) {
        return fail("shard vertex missing from the cut structure");
      }
    }
  }
  int64_t shard_vertices = 0;
  for (const auto& shard : shards_) {
    shard_vertices += shard->graph().NumVertices();
  }
  if (shard_vertices != resolver_.NumVertices()) {
    return fail("vertex alive in the cut structure but missing from its "
                "shard");
  }
  // Edge placement matches the plan on both sides.
  for (int s = 0; s < plan_.num_shards(); ++s) {
    for (const auto& [u, v] : shards_[s]->graph().EdgeList()) {
      if (plan_.ShardOf(u) != s || plan_.ShardOf(v) != s) {
        return fail("shard edge with a foreign endpoint");
      }
    }
  }
  for (const auto& [u, v] : resolver_.CutEdgeList()) {
    if (plan_.ShardOf(u) == plan_.ShardOf(v)) {
      return fail("cut edge between same-shard endpoints");
    }
  }
  return true;
}

std::unique_ptr<ShardedMisEngine> ShardedMisEngine::LoadSnapshot(
    std::istream& in, SnapshotStatus* status) {
  auto report = [&](const SnapshotStatus& s) {
    if (status != nullptr) *status = s;
  };
  report(SnapshotStatus::Ok());

  SnapshotReader reader;
  if (SnapshotStatus read = reader.ReadFrom(in); !read) {
    report(read);
    return nullptr;
  }
  if (!reader.OpenSection("sharded")) {
    report(reader.status());
    return nullptr;
  }
  MaintainerConfig config;
  config.algorithm = reader.GetString();
  reader.GetString();  // Display name: informational only.
  config.k = reader.GetI32();
  reader.GetU8();  // Former lazy-collection flag: ignored.
  config.perturb = reader.GetU8() != 0;
  config.recompute_every = reader.GetI32();
  const int num_shards = reader.GetI32();
  const uint8_t strategy = reader.GetU8();
  const int block_size = reader.GetI32();
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  const int block_ops = reader.GetI32();
  const uint8_t async_resolver = reader.GetU8();
  const int64_t updates_applied = reader.GetI64();
  const double update_seconds = reader.GetDouble();
  const double resolve_seconds = reader.GetDouble();
  const int64_t barriers = reader.GetI64();
  const int64_t conflicts = reader.GetI64();
  const int64_t evictions = reader.GetI64();
  const int64_t readded = reader.GetI64();
  const int64_t swaps = reader.GetI64();
  std::vector<int32_t> owners;
  if (!reader.GetI32Array(&owners)) {
    report(reader.status());
    return nullptr;
  }
  if (reader.ok() && !reader.AtSectionEnd()) {
    reader.Fail("snapshot: sharded: trailing bytes after the last field");
  }
  if (!reader.ok()) {
    report(reader.status());
    return nullptr;
  }
  if (!MaintainerRegistry::Global().Has(config.algorithm)) {
    report(SnapshotStatus::Error("snapshot: unknown algorithm '" +
                                 config.algorithm +
                                 "' (not in MaintainerRegistry)"));
    return nullptr;
  }
  if (config.k < 1 || config.k > kMaxKSwapOrder ||
      config.recompute_every < 1 || num_shards < 1 ||
      num_shards > kMaxShards || strategy > 2 || block_size < 1 ||
      block_ops < 1 || async_resolver > 1) {
    report(SnapshotStatus::Error(
        "snapshot: sharded configuration out of range"));
    return nullptr;
  }
  options.partition = static_cast<PartitionStrategy>(strategy);
  options.async_resolver = async_resolver != 0;
  const bool locality = options.partition == PartitionStrategy::kLocality;
  if (!locality && !owners.empty()) {
    report(SnapshotStatus::Error(
        "snapshot: sharded: owner table on a stateless partition plan"));
    return nullptr;
  }
  for (const int32_t owner : owners) {
    if (owner < -1 || owner >= num_shards) {
      report(SnapshotStatus::Error(
          "snapshot: sharded: owner table entry out of range"));
      return nullptr;
    }
  }
  const PartitionPlan plan =
      locality
          ? PartitionPlan::RestoreLocality(num_shards, std::move(owners))
          : PartitionPlan::Restore(options.partition, num_shards,
                                   block_size);

  std::unique_ptr<ShardedMisEngine> engine(new ShardedMisEngine(
      std::move(config), options, plan, /*initial_vertices=*/0));
  if (!engine->LoadShards(&reader)) {
    report(reader.ok() ? SnapshotStatus::Error(
                             "snapshot: sharded: shard restore failed")
                       : reader.status());
    return nullptr;
  }
  if (locality) {
    // Rebuild the balance-cap load counters from the restored alive set.
    for (VertexId v = 0; v < engine->resolver_.VertexCapacity(); ++v) {
      if (engine->resolver_.IsVertexAlive(v)) engine->plan_.OnVertexAdded(v);
    }
  }
  // The saved engine resolved before it wrote its totals, so the restored
  // one resolves once here and then takes the saved totals over: its
  // first query runs no pass that the saved engine would not have run.
  engine->EnsureResolved();
  engine->updates_applied_ = updates_applied;
  engine->update_seconds_ = update_seconds;
  engine->resolve_seconds_ = resolve_seconds;
  engine->barriers_ = barriers;
  engine->total_conflicts_ = conflicts;
  engine->total_evictions_ = evictions;
  engine->total_readded_ = readded;
  engine->total_swaps_ = swaps;
  return engine;
}

}  // namespace dynmis
