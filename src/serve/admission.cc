#include "src/serve/admission.h"

#include <algorithm>
#include <string_view>

#include "src/util/check.h"

namespace dynmis {
namespace serve {

void ApplyKeyEffect(const GraphUpdate& update, VertexId insv_id,
                    ingest::KeyMap* keymap) {
  if (update.kind == UpdateKind::kInsertVertex) {
    if (!update.key.empty()) keymap->Bind(update.key, insv_id);
  } else if (update.kind == UpdateKind::kDeleteVertex) {
    if (!update.key.empty()) {
      keymap->Release(update.key);
    } else {
      keymap->ReleaseId(update.u);
    }
  }
}

Admission::Admission(DynamicGraph replica, int64_t window_ttl_ms)
    : replica_(std::move(replica)) {
  if (window_ttl_ms > 0) {
    wheel_ = std::make_unique<ingest::TimingWheel>(
        static_cast<uint32_t>(window_ttl_ms));
  }
}

bool Admission::Validate(GraphUpdate* update, std::string* why) {
  const auto reject = [why](const char* reason) {
    *why = reason;
    return false;
  };
  const auto alive = [this](VertexId v) { return replica_.IsVertexAlive(v); };
  switch (update->kind) {
    case UpdateKind::kInsertEdge:
      if (update->u == update->v) return reject("self loop");
      if (!alive(update->u) || !alive(update->v)) {
        return reject("unknown vertex");
      }
      if (replica_.HasEdge(update->u, update->v)) {
        return reject("edge exists");
      }
      return true;
    case UpdateKind::kDeleteEdge:
      if (!alive(update->u) || !alive(update->v) ||
          !replica_.HasEdge(update->u, update->v)) {
        return reject("no such edge");
      }
      return true;
    case UpdateKind::kInsertVertex: {
      if (!update->key.empty() &&
          keymap_.Lookup(update->key) != kInvalidVertex) {
        return reject("key exists");
      }
      for (const VertexId n : update->neighbors) {
        if (!alive(n)) return reject("unknown neighbor");
      }
      std::vector<VertexId> sorted = update->neighbors;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        return reject("duplicate neighbor");
      }
      return true;
    }
    case UpdateKind::kDeleteVertex:
      if (!update->key.empty()) {
        const VertexId id = keymap_.Lookup(update->key);
        if (id == kInvalidVertex) return reject("unknown key");
        update->u = id;
      }
      if (!alive(update->u)) return reject("unknown vertex");
      return true;
  }
  return reject("bad update");
}

VertexId Admission::Apply(const GraphUpdate& update) {
  const VertexId id = ApplyUpdate(&replica_, update);
  if (update.kind == UpdateKind::kInsertVertex) insv_ids_.push_back(id);
  ApplyKeyEffect(update, id, &keymap_);
  return id;
}

bool Admission::Admit(GraphUpdate* update, VertexId* insv_id,
                      std::string* why) {
  if (!Validate(update, why)) return false;
  if (update->kind == UpdateKind::kDeleteVertex && update->key.empty()) {
    const std::string_view key = keymap_.KeyOf(update->u);
    released_keys_.append(key);
    released_lens_.push_back(key.size());
  }
  *insv_id = Apply(*update);
  if (wheel_ != nullptr && update->kind == UpdateKind::kInsertEdge) {
    wheel_->Schedule(update->u, update->v);
  }
  pending_.push_back(std::move(*update));
  return true;
}

bool Admission::ExpireDue(uint64_t tick_ms, size_t batch_max) {
  if (wheel_ == nullptr) return true;
  // An empty wheel skips its backlog wholesale (a follower's cursor would
  // otherwise spin through every tick of its read-only stretch at
  // promotion).
  if (wheel_->scheduled() == 0) wheel_->FastForward(tick_ms);
  for (;;) {
    while (due_pos_ < due_.size()) {
      const auto [u, v] = due_[due_pos_++];
      if (!replica_.IsVertexAlive(u) || !replica_.IsVertexAlive(v) ||
          !replica_.HasEdge(u, v)) {
        continue;  // Gone before its TTL; nothing left to expire.
      }
      replica_.RemoveEdgeBetween(u, v);
      GraphUpdate update;
      update.kind = UpdateKind::kDeleteEdge;
      update.u = u;
      update.v = v;
      pending_.push_back(std::move(update));
      pending_expired_.emplace_back(u, v);
      if (pending_.size() >= batch_max) return false;
    }
    if (wheel_->now() >= tick_ms) return true;
    due_.clear();
    due_pos_ = 0;
    wheel_->Advance(&due_);
  }
}

void Admission::Applied(const UpdateResult& result) {
  // A mismatch means the replica has diverged from the backend.
  DYNMIS_CHECK(result.new_vertices == insv_ids_);
  expired_ops_ += static_cast<int64_t>(pending_expired_.size());
  ClearPending();
}

void Admission::ClearPending() {
  pending_.clear();
  insv_ids_.clear();
  pending_expired_.clear();
  released_keys_.clear();
  released_lens_.clear();
}

void Admission::Refuse(DynamicGraph backend_graph) {
  replica_ = std::move(backend_graph);
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    if (it->kind == UpdateKind::kInsertVertex) {
      if (!it->key.empty()) keymap_.Release(it->key);
    } else if (it->kind == UpdateKind::kDeleteVertex) {
      if (!it->key.empty()) {
        keymap_.Bind(it->key, it->u);
        continue;
      }
      const size_t len = released_lens_.back();
      released_lens_.pop_back();
      const size_t at = released_keys_.size() - len;
      if (len > 0) {
        keymap_.Bind(std::string_view(released_keys_).substr(at), it->u);
      }
      released_keys_.resize(at);
    }
  }
  for (const auto& [u, v] : pending_expired_) wheel_->Schedule(u, v);
  ClearPending();
}

void Admission::Mirror(std::vector<GraphUpdate>* updates) {
  DYNMIS_CHECK(pending_.empty());
  for (GraphUpdate& update : *updates) {
    if (update.kind == UpdateKind::kDeleteVertex && !update.key.empty()) {
      const VertexId id = keymap_.Lookup(update.key);
      DYNMIS_CHECK(id != kInvalidVertex);  // Divergence: unknown key.
      DYNMIS_CHECK(update.u == kInvalidVertex || update.u == id);
      update.u = id;
    }
    Apply(update);
  }
}

int64_t Admission::window_edges() const {
  return wheel_ != nullptr ? static_cast<int64_t>(wheel_->scheduled()) : 0;
}

}  // namespace serve
}  // namespace dynmis
