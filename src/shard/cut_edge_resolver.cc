#include "src/shard/cut_edge_resolver.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/memory.h"

namespace dynmis {

CutEdgeResolver::CutEdgeResolver(int initial_vertices) {
  DYNMIS_CHECK_GE(initial_vertices, 0);
  alive_.assign(static_cast<size_t>(initial_vertices), 1);
  num_vertices_ = initial_vertices;
  adjacency_.resize(static_cast<size_t>(initial_vertices));
  base_.assign(static_cast<size_t>(initial_vertices), 0);
  conflict_pos_.assign(static_cast<size_t>(initial_vertices), -1);
}

CutEdgeResolver::~CutEdgeResolver() { StopWorker(); }

// --- Id space (engine thread) ------------------------------------------------

VertexId CutEdgeResolver::AddVertex() {
  VertexId v;
  if (!free_vertices_.empty()) {
    v = free_vertices_.back();
    free_vertices_.pop_back();
  } else {
    v = static_cast<VertexId>(alive_.size());
    alive_.push_back(0);
  }
  alive_[v] = 1;
  ++num_vertices_;
  return v;
}

void CutEdgeResolver::RemoveVertex(VertexId v) {
  DYNMIS_DCHECK(IsVertexAlive(v));
  alive_[v] = 0;
  free_vertices_.push_back(v);
  --num_vertices_;
  if (worker_started_) {
    pending_cut_ops_.push_back(CutOp{CutOp::Kind::kDropVertex, v, v});
    if (static_cast<int>(pending_cut_ops_.size()) >= block_ops_) {
      FlushCutOps();
    }
  } else if (v < static_cast<VertexId>(adjacency_.size())) {
    DropVertexEdges(v);
  }
}

void CutEdgeResolver::AddCutEdge(VertexId u, VertexId v) {
  if (worker_started_) {
    pending_cut_ops_.push_back(CutOp{CutOp::Kind::kAddEdge, u, v});
    if (static_cast<int>(pending_cut_ops_.size()) >= block_ops_) {
      FlushCutOps();
    }
    return;
  }
  DYNMIS_DCHECK(IsVertexAlive(u));
  DYNMIS_DCHECK(IsVertexAlive(v));
  EnsureCutCapacity(u > v ? u : v);
  InsertEdgeHalves(u, v);
}

void CutEdgeResolver::RemoveCutEdge(VertexId u, VertexId v) {
  if (worker_started_) {
    pending_cut_ops_.push_back(CutOp{CutOp::Kind::kRemoveEdge, u, v});
    if (static_cast<int>(pending_cut_ops_.size()) >= block_ops_) {
      FlushCutOps();
    }
    return;
  }
  RemoveEdgeHalves(u, v);
}

// --- Structural mutations (inline or worker) ---------------------------------

void CutEdgeResolver::EnsureCutCapacity(VertexId v) {
  if (v < static_cast<VertexId>(adjacency_.size())) return;
  const size_t size = static_cast<size_t>(v) + 1;
  adjacency_.resize(size);
  base_.resize(size, 0);
  conflict_pos_.resize(size, -1);
}

void CutEdgeResolver::InsertEdgeHalves(VertexId u, VertexId v) {
  DYNMIS_DCHECK(!HasCutEdge(u, v));
  adjacency_[u].push_back(Half{v, static_cast<int32_t>(adjacency_[v].size())});
  adjacency_[v].push_back(
      Half{u, static_cast<int32_t>(adjacency_[u].size()) - 1});
  ++num_edges_;
}

void CutEdgeResolver::RemoveEdgeHalves(VertexId u, VertexId v) {
  // Scan the smaller endpoint's contiguous array; its mirror locates the
  // far entry without touching the (possibly much longer) far array.
  if (CutDegree(v) < CutDegree(u)) std::swap(u, v);
  std::vector<Half>& list = adjacency_[u];
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].to != v) continue;
    const int32_t mirror = list[i].mirror;
    SwapRemoveHalf(u, static_cast<int32_t>(i));
    SwapRemoveHalf(v, mirror);
    --num_edges_;
    return;
  }
  DYNMIS_DCHECK(false && "RemoveCutEdge: edge not present");
}

void CutEdgeResolver::DropVertexEdges(VertexId v) {
  // Mirror fix-ups may rewrite adjacency_[v] entries' mirrors, so read each
  // entry fresh by index.
  for (size_t i = 0; i < adjacency_[v].size(); ++i) {
    const Half h = adjacency_[v][i];
    SwapRemoveHalf(h.to, h.mirror);
    --num_edges_;
  }
  adjacency_[v].clear();
}

void CutEdgeResolver::SwapRemoveHalf(VertexId owner, int32_t index) {
  std::vector<Half>& list = adjacency_[owner];
  const Half moved = list.back();
  list.pop_back();
  if (index != static_cast<int32_t>(list.size())) {
    list[index] = moved;
    adjacency_[moved.to][moved.mirror].mirror = index;
  }
}

std::vector<std::pair<VertexId, VertexId>> CutEdgeResolver::CutEdgeList()
    const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (VertexId u = 0; u < static_cast<VertexId>(adjacency_.size()); ++u) {
    for (const Half& h : adjacency_[u]) {
      if (u < h.to) edges.emplace_back(u, h.to);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

// --- Asynchronous worker -----------------------------------------------------

void CutEdgeResolver::StartWorker() {
  DYNMIS_CHECK(!worker_started_);
  DYNMIS_CHECK(pending_cut_ops_.empty());
  worker_stop_ = false;
  worker_started_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void CutEdgeResolver::StopWorker() {
  if (!worker_started_) return;
  FlushCutOps();
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    worker_stop_ = true;
  }
  inbox_cv_.notify_one();
  worker_.join();
  worker_started_ = false;
  worker_stop_ = false;
}

void CutEdgeResolver::ShipTransitions(TransitionBatch&& batch) {
  if (batch.empty()) return;
  DYNMIS_DCHECK(worker_started_);
  const size_t ops = batch.size();
  Message message;
  message.transitions = std::move(batch);
  EnqueueMessage(std::move(message), ops);
}

void CutEdgeResolver::FlushCutOps() {
  if (!worker_started_ || pending_cut_ops_.empty()) return;
  const size_t ops = pending_cut_ops_.size();
  Message message;
  message.cut_ops = std::move(pending_cut_ops_);
  pending_cut_ops_.clear();
  EnqueueMessage(std::move(message), ops);
}

void CutEdgeResolver::EnqueueMessage(Message&& message, size_t ops) {
  backlog_ops_.fetch_add(static_cast<int64_t>(ops),
                         std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    inbox_.push_back(std::move(message));
  }
  inbox_cv_.notify_one();
}

void CutEdgeResolver::DrainWorker() {
  if (!worker_started_) return;
  FlushCutOps();
  std::unique_lock<std::mutex> lock(inbox_mutex_);
  drained_cv_.wait(lock, [&] { return inbox_.empty() && !worker_busy_; });
  // The mutex hand-off makes every worker write to the cut structures
  // visible here; the engine thread owns them until the next ship.
}

void CutEdgeResolver::WorkerLoop() {
  std::unique_lock<std::mutex> lock(inbox_mutex_);
  for (;;) {
    while (inbox_.empty() && !worker_stop_) {
      drained_cv_.notify_all();
      inbox_cv_.wait(lock);
    }
    if (inbox_.empty()) break;  // Stop requested and fully drained.
    Message message = std::move(inbox_.front());
    inbox_.pop_front();
    worker_busy_ = true;
    lock.unlock();
    Consume(message);
    lock.lock();
    worker_busy_ = false;
  }
  drained_cv_.notify_all();
}

void CutEdgeResolver::Consume(Message& message) {
  // Conflict status is a pure function of the overlay and the cut
  // adjacency, so rechecks are deferred to the end of the message: each
  // op marks the vertices whose status it may have changed, and every
  // marked vertex is rechecked exactly once after all of the message's
  // mutations applied. Ops inside one block touch heavily overlapping
  // neighborhoods (a shard's transition batch walks one region of the
  // graph), so the dedup removes most of the consumption cost; nothing
  // observes the conflict set mid-message — the engine thread only reads
  // it after DrainWorker, and a drain ends on a message boundary.
  dirty_.clear();
  for (const Transition& t : message.transitions) {
    EnsureCutCapacity(t.v);
    base_[t.v] = t.in;
    // The flip changes v's own conflict status and possibly every cut
    // neighbor's (v is the neighbor they conflict through).
    MarkDirty(t.v);
    for (const Half& h : adjacency_[t.v]) MarkDirty(h.to);
  }
  for (const CutOp& op : message.cut_ops) {
    switch (op.kind) {
      case CutOp::Kind::kAddEdge:
        ApplyAddCutEdge(op.u, op.v);
        break;
      case CutOp::Kind::kRemoveEdge:
        ApplyRemoveCutEdge(op.u, op.v);
        break;
      case CutOp::Kind::kDropVertex:
        ApplyDropVertex(op.u);
        break;
    }
  }
  for (const VertexId v : dirty_) {
    dirty_flag_[v] = 0;
    RecheckConflict(v);
  }
  if (!message.transitions.empty()) {
    transitions_consumed_.fetch_add(
        static_cast<int64_t>(message.transitions.size()),
        std::memory_order_relaxed);
  }
  backlog_ops_.fetch_sub(
      static_cast<int64_t>(message.transitions.size() +
                           message.cut_ops.size()),
      std::memory_order_relaxed);
}

void CutEdgeResolver::ApplyAddCutEdge(VertexId u, VertexId v) {
  EnsureCutCapacity(u > v ? u : v);
  InsertEdgeHalves(u, v);
  MarkDirty(u);
  MarkDirty(v);
}

void CutEdgeResolver::ApplyRemoveCutEdge(VertexId u, VertexId v) {
  EnsureCutCapacity(u > v ? u : v);
  RemoveEdgeHalves(u, v);
  MarkDirty(u);
  MarkDirty(v);
}

void CutEdgeResolver::ApplyDropVertex(VertexId v) {
  EnsureCutCapacity(v);
  // base_[v] deliberately stays: membership is owned by the transition
  // stream (every maintainer MoveOuts a member before deleting it), and
  // with id recycling this drop can be consumed after the recycled
  // vertex's MoveIn — zeroing here would erase live state.
  MarkDirty(v);
  for (const Half& h : adjacency_[v]) MarkDirty(h.to);
  DropVertexEdges(v);
}

void CutEdgeResolver::RecheckConflict(VertexId v) {
  bool conflicted = false;
  if (base_[v]) {
    for (const Half& h : adjacency_[v]) {
      if (base_[h.to]) {
        conflicted = true;
        break;
      }
    }
  }
  const bool listed = conflict_pos_[v] >= 0;
  if (conflicted == listed) return;
  if (conflicted) {
    conflict_pos_[v] = static_cast<int32_t>(conflict_list_.size());
    conflict_list_.push_back(v);
  } else {
    const int32_t pos = conflict_pos_[v];
    const VertexId moved = conflict_list_.back();
    conflict_list_.pop_back();
    if (moved != v) {
      conflict_list_[pos] = moved;
      conflict_pos_[moved] = pos;
    }
    conflict_pos_[v] = -1;
  }
  standing_conflicts_.store(static_cast<int64_t>(conflict_list_.size()),
                            std::memory_order_relaxed);
}

void CutEdgeResolver::SeedOverlay(
    const std::vector<std::unique_ptr<Shard>>& shards) {
  const int capacity = VertexCapacity();
  if (capacity > 0) EnsureCutCapacity(capacity - 1);
  std::fill(base_.begin(), base_.end(), 0);
  std::fill(conflict_pos_.begin(), conflict_pos_.end(), -1);
  conflict_list_.clear();
  members_.clear();
  for (const auto& shard : shards) {
    shard->maintainer().CollectSolution(&members_);
  }
  for (const VertexId v : members_) base_[v] = 1;
  for (const VertexId v : members_) RecheckConflict(v);
  standing_conflicts_.store(static_cast<int64_t>(conflict_list_.size()),
                            std::memory_order_relaxed);
}

// --- Barrier resolution ------------------------------------------------------

CutEdgeResolver::Resolution CutEdgeResolver::Resolve(
    const PartitionPlan& plan,
    const std::vector<std::unique_ptr<Shard>>& shards) {
  Resolution result;
  const int capacity = VertexCapacity();
  if (capacity > 0) EnsureCutCapacity(capacity - 1);
  FillDegrees(plan, shards);

  // Overlay membership: the union of the shards' local solutions. Every
  // member is alive in its shard graph, and intra-shard independence holds
  // by shard-local invariant; only cut edges can conflict.
  members_.clear();
  for (const auto& shard : shards) {
    shard->maintainer().CollectSolution(&members_);
  }
  in_sol_.assign(static_cast<size_t>(capacity), 0);
  for (const VertexId v : members_) in_sol_[v] = 1;

  // Vertices touching a conflicting cut edge.
  conflicted_.clear();
  int64_t conflict_edges = 0;
  for (const VertexId v : members_) {
    bool has_conflict = false;
    for (const Half& h : adjacency_[v]) {
      if (!in_sol_[h.to]) continue;
      has_conflict = true;
      if (v < h.to) ++conflict_edges;  // Counted once per edge.
    }
    if (has_conflict) conflicted_.push_back(v);
  }
  result.conflicts = conflict_edges;

  // Eviction as a min-degree greedy over the conflicted vertices: unmark
  // them all, then confirm each in ascending total-degree order when no
  // confirmed cut neighbor blocks it (conflicted vertices are shard-local
  // solution members, so intra-shard edges cannot connect two of them —
  // only cut edges need checking). Low-degree vertices — the ones a
  // min-degree greedy would pick — win their conflicts; per-edge eviction
  // in arbitrary order costs several percent of solution quality.
  for (const VertexId v : conflicted_) in_sol_[v] = 0;
  SortByDegree(&conflicted_);
  RepairAndPolish(plan, shards, /*restrict_polish=*/false, &result);
  return result;
}

CutEdgeResolver::Resolution CutEdgeResolver::ResolveIncremental(
    const PartitionPlan& plan,
    const std::vector<std::unique_ptr<Shard>>& shards) {
  DYNMIS_DCHECK(BacklogOps() == 0);
  DYNMIS_DCHECK(pending_cut_ops_.empty());
  Resolution result;
  const int capacity = VertexCapacity();
  if (capacity > 0) EnsureCutCapacity(capacity - 1);
  FillDegrees(plan, shards);

  // The worker already holds the overlay (base_) and its exact conflict
  // set; the barrier starts from them instead of re-deriving either. The
  // conflict list is copied because the repair must not disturb the
  // standing state — conflicts are between *shard-local* solutions, which
  // the barrier doesn't change, so they persist across barriers until the
  // shards themselves move.
  in_sol_.assign(base_.begin(), base_.end());
  conflicted_.assign(conflict_list_.begin(), conflict_list_.end());
  int64_t conflict_edges = 0;
  for (const VertexId v : conflicted_) {
    for (const Half& h : adjacency_[v]) {
      // Both endpoints of a conflicting edge are in the conflict set, so
      // counting at the lower endpoint counts each edge once.
      if (in_sol_[h.to] && v < h.to) ++conflict_edges;
    }
  }
  result.conflicts = conflict_edges;

  for (const VertexId v : conflicted_) in_sol_[v] = 0;
  SortByDegree(&conflicted_);
  RepairAndPolish(plan, shards, /*restrict_polish=*/true, &result);
  return result;
}

void CutEdgeResolver::FillDegrees(
    const PartitionPlan& plan,
    const std::vector<std::unique_ptr<Shard>>& shards) {
  const int capacity = VertexCapacity();
  degree_.resize(static_cast<size_t>(capacity));
  for (VertexId v = 0; v < capacity; ++v) {
    degree_[v] = alive_[v] ? shards[plan.ShardOf(v)]->graph().Degree(v) +
                                 CutDegree(v)
                           : 0;
  }
}

void CutEdgeResolver::SortByDegree(std::vector<VertexId>* vertices) const {
  std::sort(vertices->begin(), vertices->end(), [&](VertexId a, VertexId b) {
    return degree_[a] != degree_[b] ? degree_[a] < degree_[b] : a < b;
  });
}

void CutEdgeResolver::RepairAndPolish(
    const PartitionPlan& plan,
    const std::vector<std::unique_ptr<Shard>>& shards, bool restrict_polish,
    Resolution* result) {
  const int capacity = VertexCapacity();

  // Confirm pass (conflicted_ sorted ascending by total degree, all
  // unmarked): a vertex re-enters when no already-confirmed cut neighbor
  // blocks it, so low-degree vertices win their conflicts.
  evicted_.clear();
  for (const VertexId v : conflicted_) {
    bool free = true;
    for (const Half& h : adjacency_[v]) free = free && !in_sol_[h.to];
    if (free) {
      in_sol_[v] = 1;
    } else {
      evicted_.push_back(v);
    }
  }
  result->evictions = static_cast<int64_t>(evicted_.size());

  // Re-extension candidates: each eviction plus its full neighborhood
  // (intra neighbors come from the owning shard's graph, cut neighbors
  // from the cut store).
  considered_.assign(static_cast<size_t>(capacity), 0);
  candidates_.clear();
  auto consider = [&](VertexId v) {
    if (!considered_[v]) {
      considered_[v] = 1;
      candidates_.push_back(v);
    }
  };
  for (const VertexId v : evicted_) {
    consider(v);
    shards[plan.ShardOf(v)]->graph().ForEachIncident(
        v, [&](VertexId u, EdgeId) { consider(u); });
    for (const Half& h : adjacency_[v]) consider(h.to);
  }

  // Greedy re-add in min-degree order (the same preference as the greedy
  // quality reference). The overlay only grows here, so one pass suffices:
  // a rejected candidate's blocking neighbor stays in the solution.
  SortByDegree(&candidates_);
  readded_.clear();
  for (const VertexId c : candidates_) {
    if (in_sol_[c]) continue;
    bool free = true;
    shards[plan.ShardOf(c)]->graph().ForEachIncident(
        c, [&](VertexId u, EdgeId) { free = free && !in_sol_[u]; });
    if (free) {
      for (const Half& h : adjacency_[c]) free = free && !in_sol_[h.to];
    }
    if (!free) continue;
    in_sol_[c] = 1;
    readded_.push_back(c);
    ++result->readded;
  }

  // Polish: 1-swap restoration over the stitched solution (the move behind
  // paper Algorithm 2). The overlay is maximal, but stitching per-shard
  // views can leave a member v whose exclusively-covered neighborhood
  // bar1(v) = {u : N(u) cap I = {v}} holds an independent pair — swapping
  // v out for the pair grows the solution by one. A few passes recover the
  // quality the shard-local view gave up to cut-edge blindness (measured
  // on the hard scenario: 0.95 -> 0.99+ of the greedy reference). Skipped
  // when no cut edges exist: every shard solution is then already
  // k-maximal on its full graph, so no 1-swap can exist — which also keeps
  // the S=1 degenerate engine bit-identical to the single engine.
  if (num_edges_ > 0) {
    auto for_each_neighbor = [&](VertexId v, auto&& fn) {
      shards[plan.ShardOf(v)]->graph().ForEachIncident(
          v, [&](VertexId u, EdgeId) { fn(u); });
      for (const Half& h : adjacency_[v]) fn(h.to);
    };
    auto adjacent = [&](VertexId a, VertexId b) {
      const int sa = plan.ShardOf(a);
      if (sa == plan.ShardOf(b)) return shards[sa]->graph().HasEdge(a, b);
      return HasCutEdge(a, b);
    };
    // count_[u]: solution neighbors of u (members have 0 by
    // independence). One eager pass over the members' neighborhoods
    // materializes every count, and each polish mutation keeps them
    // exact — so the bar1 collection below reads counts in O(1) instead
    // of rescanning the neighborhood of every vertex it visits, which
    // was the dominant barrier cost (deg^2 per polished member).
    count_.assign(static_cast<size_t>(capacity), 0);
    for (VertexId v = 0; v < capacity; ++v) {
      if (!in_sol_[v]) continue;
      for_each_neighbor(v, [&](VertexId u) { ++count_[u]; });
    }
    auto bump = [&](VertexId u, int32_t delta) { count_[u] += delta; };
    auto add = [&](VertexId a) {
      in_sol_[a] = 1;
      for_each_neighbor(a, [&](VertexId u) { bump(u, 1); });
    };

    // The active pool: members the polish will visit. Restricted mode
    // takes cut-incident members (cut-blindness swaps live there) plus
    // every member within distance 2 of a repair change (the only places
    // bar1 sets moved — shard solutions are locally swap-optimal, so
    // profitable swaps cannot hide elsewhere); full mode takes everyone.
    // Vertices added by swaps join the pool for later passes.
    active_.assign(static_cast<size_t>(capacity), 0);
    polish_members_.clear();
    auto activate = [&](VertexId v) {
      if (in_sol_[v] && !active_[v]) {
        active_[v] = 1;
        polish_members_.push_back(v);
      }
    };
    // When the repair changed a large fraction of the graph, the
    // distance-2 closure below would activate nearly every member anyway
    // and the seeding sweep is pure overhead — take the full pool
    // directly. The threshold depends only on this barrier's repair
    // (itself a pure function of the shard states and the cut edges), so
    // the pool stays replay- and cadence-invariant; and since the
    // restricted pool is sound (no profitable swap outside it), widening
    // to the full pool never changes the outcome, only the cost.
    const bool widespread_repair =
        8 * (evicted_.size() + readded_.size()) >=
        static_cast<size_t>(num_vertices_);
    if (restrict_polish && !widespread_repair) {
      for (VertexId v = 0; v < capacity; ++v) {
        if (in_sol_[v] && !adjacency_[v].empty()) activate(v);
      }
      // Distance-2 activation around every repair change. Change
      // neighborhoods overlap heavily (an eviction and the vertices
      // re-added around it share most of their surroundings), so each
      // vertex's adjacency is expanded at most once per role — seeded_
      // for the distance-1 sweep, expanded_ for the distance-2 sweep —
      // bounding the whole pass by one edge scan regardless of how many
      // changes a barrier repairs. The activated set is identical to the
      // naive per-seed traversal; only duplicate walks are skipped.
      seeded_.assign(static_cast<size_t>(capacity), 0);
      expanded_.assign(static_cast<size_t>(capacity), 0);
      auto seed = [&](VertexId s) {
        activate(s);
        if (seeded_[s]) return;
        seeded_[s] = 1;
        for_each_neighbor(s, [&](VertexId n) {
          activate(n);
          if (expanded_[n]) return;
          expanded_[n] = 1;
          for_each_neighbor(n, [&](VertexId w) { activate(w); });
        });
      };
      for (const VertexId v : evicted_) seed(v);
      for (const VertexId v : readded_) seed(v);
    } else {
      for (VertexId v = 0; v < capacity; ++v) activate(v);
    }

    constexpr int kMaxPasses = 3;
    constexpr size_t kPairPool = 16;
    for (int pass = 0; pass < kMaxPasses; ++pass) {
      // Iterate the pool's current members in ascending id order — a
      // canonical order, so the outcome never depends on how the pool
      // was discovered.
      members_.clear();
      for (const VertexId v : polish_members_) {
        if (in_sol_[v]) members_.push_back(v);
      }
      std::sort(members_.begin(), members_.end());
      int64_t swaps_this_pass = 0;
      for (const VertexId v : members_) {
        if (!in_sol_[v]) continue;  // Swapped out earlier this pass.
        bar1_.clear();
        for_each_neighbor(v, [&](VertexId u) {
          // count == 1 and adjacent to the member v: v is u's only
          // solution neighbor.
          if (count_[u] == 1) bar1_.push_back(u);
        });
        if (bar1_.size() < 2) continue;
        // Min-degree order: the swap prefers the vertices a min-degree
        // greedy would keep. Only the first kPairPool entries enter the
        // quadratic pair search (bounding hub-sized bar1 sets), but the
        // FULL list stays: every exclusively-covered neighbor loses its
        // cover when v leaves and must get the chance to rejoin below —
        // dropping the tail here would leave it uncovered and break the
        // maximality guarantee.
        SortByDegree(&bar1_);
        const size_t pool = std::min(bar1_.size(), kPairPool);
        VertexId first = kInvalidVertex;
        VertexId second = kInvalidVertex;
        for (size_t i = 0; i < pool && second == kInvalidVertex; ++i) {
          for (size_t j = i + 1; j < pool; ++j) {
            if (!adjacent(bar1_[i], bar1_[j])) {
              first = bar1_[i];
              second = bar1_[j];
              break;
            }
          }
        }
        if (second == kInvalidVertex) continue;  // The pool is a clique.
        in_sol_[v] = 0;
        for_each_neighbor(v, [&](VertexId u) { bump(u, -1); });
        add(first);
        add(second);
        activate(first);
        activate(second);
        // Every other exclusively-covered neighbor freed by v's departure
        // and not blocked by the pair joins too (full list, not the pool:
        // anything left at count 0 would make the result non-maximal).
        for (const VertexId w : bar1_) {
          if (!in_sol_[w] && count_[w] == 0) {
            add(w);
            activate(w);
          }
        }
        ++swaps_this_pass;
      }
      result->swaps += swaps_this_pass;
      if (swaps_this_pass == 0) break;
    }
  }

  result->solution.reserve(static_cast<size_t>(num_vertices_));
  for (VertexId v = 0; v < capacity; ++v) {
    if (in_sol_[v]) result->solution.push_back(v);
  }
}

// --- Snapshots ---------------------------------------------------------------

void CutEdgeResolver::SaveTo(SnapshotWriter* w) const {
  w->BeginSection("state");
  w->PutI32(VertexCapacity());
  w->PutI32(num_vertices_);
  w->PutI64(num_edges_);
  w->PutU8Array(alive_);
  w->PutI32Array(free_vertices_);
  std::vector<int32_t> flat;
  flat.reserve(2 * static_cast<size_t>(num_edges_));
  for (const auto& [u, v] : CutEdgeList()) {
    flat.push_back(u);
    flat.push_back(v);
  }
  w->PutI32Array(flat);
  w->EndSection();
}

bool CutEdgeResolver::LoadFrom(SnapshotReader* r) {
  DYNMIS_CHECK(!worker_started_);
  if (!r->OpenSection("state")) return false;
  auto fail = [&](const char* message) {
    r->Fail(std::string("snapshot: cut state: ") + message);
    return false;
  };
  const int32_t capacity = r->GetI32();
  const int32_t nv = r->GetI32();
  const int64_t ne = r->GetI64();
  std::vector<uint8_t> alive;
  std::vector<int32_t> free_list, flat;
  if (!r->GetU8Array(&alive) || !r->GetI32Array(&free_list) ||
      !r->GetI32Array(&flat)) {
    return false;
  }
  if (!r->AtSectionEnd()) return fail("trailing bytes after the last field");
  if (capacity < 0 || nv < 0 || nv > capacity || ne < 0) {
    return fail("counts out of range");
  }
  if (alive.size() != static_cast<size_t>(capacity)) {
    return fail("alive array size mismatch");
  }
  int64_t alive_count = 0;
  for (const uint8_t flag : alive) {
    if (flag > 1) return fail("alive flag out of range");
    alive_count += flag;
  }
  if (alive_count != nv) return fail("alive-vertex count mismatch");
  if (free_list.size() != static_cast<size_t>(capacity - nv)) {
    return fail("free-vertex list size mismatch");
  }
  std::vector<uint8_t> seen(static_cast<size_t>(capacity), 0);
  for (const int32_t v : free_list) {
    if (v < 0 || v >= capacity || alive[v] || seen[v]) {
      return fail("free-vertex list entry invalid or duplicated");
    }
    seen[v] = 1;
  }
  if (flat.size() != 2 * static_cast<size_t>(ne)) {
    return fail("edge array size mismatch");
  }
  for (size_t i = 0; i + 1 < flat.size(); i += 2) {
    const int32_t u = flat[i];
    const int32_t v = flat[i + 1];
    if (u < 0 || v < 0 || u >= capacity || v >= capacity || u >= v) {
      return fail("edge endpoints out of range or unordered");
    }
    if (!alive[u] || !alive[v]) {
      return fail("edge incident to a dead vertex");
    }
    if (i >= 2 && !(flat[i - 2] < u || (flat[i - 2] == u && flat[i - 1] < v))) {
      return fail("edges not strictly sorted (duplicate or disorder)");
    }
  }

  // Adopt and rebuild the derived structures. The overlay and conflict set
  // reset empty: a snapshot load restores maintainer solutions without
  // MoveIns, so the engine re-seeds via SeedOverlay before StartWorker.
  adjacency_.assign(static_cast<size_t>(capacity), {});
  base_.assign(static_cast<size_t>(capacity), 0);
  conflict_pos_.assign(static_cast<size_t>(capacity), -1);
  conflict_list_.clear();
  standing_conflicts_.store(0, std::memory_order_relaxed);
  alive_ = std::move(alive);
  free_vertices_ = std::move(free_list);
  num_vertices_ = nv;
  num_edges_ = 0;
  for (size_t i = 0; i + 1 < flat.size(); i += 2) {
    AddCutEdge(flat[i], flat[i + 1]);
  }
  return true;
}

size_t CutEdgeResolver::MemoryUsageBytes() const {
  return NestedVectorBytes(adjacency_) + VectorBytes(alive_) +
         VectorBytes(free_vertices_) + VectorBytes(base_) +
         VectorBytes(conflict_pos_) + VectorBytes(conflict_list_) +
         VectorBytes(in_sol_) + VectorBytes(considered_) +
         VectorBytes(members_) + VectorBytes(conflicted_) +
         VectorBytes(evicted_) + VectorBytes(readded_) +
         VectorBytes(candidates_) + VectorBytes(polish_members_) +
         VectorBytes(count_) + VectorBytes(seeded_) + VectorBytes(expanded_) +
         VectorBytes(dirty_) + VectorBytes(dirty_flag_) +
         VectorBytes(active_) + VectorBytes(bar1_) + VectorBytes(degree_);
}

}  // namespace dynmis
