#include "src/graph/dynamic_graph.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/util/memory.h"

namespace dynmis {
namespace {

// Slab size classes: capacities 2..16, then each ~1/8 above the last up to
// 64, so the short arrays that share pages carry little slack; then powers
// of two up to the largest possible degree, so a long array (a chunk of its
// own) rarely changes class and its class's free chunks get reused.
struct ClassTable {
  int32_t cap[53] = {};
  int count = 0;
};

constexpr ClassTable MakeClassTable() {
  ClassTable t;
  int64_t cap = 2;
  while (true) {
    t.cap[t.count++] = static_cast<int32_t>(cap);
    if (cap == std::numeric_limits<int32_t>::max()) break;
    cap = std::min<int64_t>(
        cap < 64 ? cap + std::max<int64_t>(1, cap >> 3) : 2 * cap,
        std::numeric_limits<int32_t>::max());
  }
  return t;
}

constexpr ClassTable kClasses = MakeClassTable();

int32_t ClassCap(int cls) { return kClasses.cap[cls]; }

// The smallest class holding `n` >= 1 entries.
int ClassFor(int32_t n) {
  return static_cast<int>(
      std::lower_bound(kClasses.cap, kClasses.cap + kClasses.count, n) -
      kClasses.cap);
}

}  // namespace

DynamicGraph::DynamicGraph(int n) {
  DYNMIS_CHECK_GE(n, 0);
  vertices_.resize(static_cast<size_t>(n));
  for (VertexRec& rec : vertices_) rec.degree = 0;
  num_vertices_ = n;
}

void DynamicGraph::Reserve(int n, int64_t m) {
  if (n > 0) {
    vertices_.reserve(static_cast<size_t>(n));
    free_vertices_.reserve(static_cast<size_t>(n));
  }
  if (m > 0) {
    const size_t edge_pages =
        static_cast<size_t>((m + kEdgePageRecords - 1) >> kEdgePageShift);
    edge_pages_.reserve(edge_pages);
    while (edge_pages_.size() < edge_pages) {
      edge_pages_.emplace_back(kEdgePageRecords);
    }
    // Adjacency pages for 2m entries, waiting in the free-page pool.
    const size_t wanted =
        static_cast<size_t>((2 * m + kPageEntries - 1) >> kPageShift);
    for (; shared_pages_ < wanted; ++shared_pages_) {
      free_pages_.push_back(static_cast<uint32_t>(pages_.size()));
      pages_.emplace_back(kPageEntries);
      page_info_.emplace_back();
    }
  }
}

void DynamicGraph::ReserveDegree(VertexId v, int degree) {
  DYNMIS_CHECK(IsVertexAlive(v));
  const VertexRec& rec = vertices_[v];
  const int32_t need = rec.len + (degree - rec.degree);
  if (need <= rec.len) return;
  if (rec.cls != kNoBlock && need <= ClassCap(rec.cls)) return;
  DYNMIS_CHECK_LE(need, kMaxLen);
  Move(v, ClassFor(need));
  if (!evac_queue_.empty()) Evacuate();
}

int DynamicGraph::MaxDegree() const {
  int max_degree = 0;
  for (const VertexRec& rec : vertices_) {
    max_degree = std::max(max_degree, static_cast<int>(rec.degree));
  }
  return max_degree;
}

void DynamicGraph::QueueVertexId(VertexId v) {
  DYNMIS_CHECK_GE(v, 0);
  DYNMIS_CHECK(!IsVertexAlive(v));
  DYNMIS_CHECK(queued_id_ == kInvalidVertex);
  queued_id_ = v;
}

VertexId DynamicGraph::AddVertex() {
  VertexId v;
  if (queued_id_ != kInvalidVertex) {
    v = queued_id_;
    queued_id_ = kInvalidVertex;
    if (v >= VertexCapacity()) {
      // Ids skipped while growing stay dead but join the free list, so the
      // free list keeps covering exactly the dead ids (the snapshot loader
      // validates that exactness).
      for (VertexId skipped = VertexCapacity(); skipped < v; ++skipped) {
        free_vertices_.push_back(skipped);
      }
      vertices_.resize(static_cast<size_t>(v) + 1);
    } else {
      // Recycled id: pull it out of the free list. Scan from the back —
      // recycling is LIFO, so a just-freed id sits near the end. A queued
      // id absent from the free list means it was never freed: crash rather
      // than corrupt.
      bool found = false;
      for (size_t i = free_vertices_.size(); i-- > 0;) {
        if (free_vertices_[i] == v) {
          free_vertices_[i] = free_vertices_.back();
          free_vertices_.pop_back();
          found = true;
          break;
        }
      }
      DYNMIS_CHECK(found);
    }
  } else if (!free_vertices_.empty()) {
    v = free_vertices_.back();
    free_vertices_.pop_back();
  } else {
    v = VertexCapacity();
    vertices_.emplace_back();
  }
  vertices_[v].degree = 0;
  ++num_vertices_;
  return v;
}

void DynamicGraph::RemoveVertex(VertexId v) {
  DYNMIS_CHECK(IsVertexAlive(v));
  // Frees v's edges most recent first, as deleting them one by one from the
  // front of a linked incidence list would. v's own array is left as it is
  // until the end (never compacted while being walked); only the far
  // endpoints drop their entries. Arrays move only in Evacuate(), after
  // the walk, so `entries` stays valid.
  if (vertices_[v].cls != kNoBlock) {
    const Entry* entries = Entries(v);
    for (int32_t i = vertices_[v].len - 1; i >= 0; --i) {
      const Entry entry = entries[i];
      if (entry.nbr == kInvalidVertex) continue;
      const EdgeRec& rec = Rec(entry.edge);
      const VertexId w = entry.nbr;
      const int32_t pos_w = rec.u == w ? rec.pos[0] : rec.pos[1];
      PushFreeEdge(entry.edge);
      --num_edges_;
      --vertices_[v].degree;
      DropEntry(w, pos_w);
    }
    FreeBlock(vertices_[v].block, vertices_[v].cls);
    vertices_[v].block = 0;
    vertices_[v].len = 0;
    vertices_[v].cls = kNoBlock;
  }
  DYNMIS_DCHECK(vertices_[v].degree == 0);
  vertices_[v].degree = -1;
  free_vertices_.push_back(v);
  --num_vertices_;
  if (!evac_queue_.empty()) Evacuate();
}

EdgeId DynamicGraph::AddEdge(VertexId u, VertexId v) {
  DYNMIS_CHECK(IsVertexAlive(u));
  DYNMIS_CHECK(IsVertexAlive(v));
  DYNMIS_CHECK_NE(u, v);
  DYNMIS_DCHECK(!HasEdge(u, v));

  EdgeId e;
  if (free_edge_ != kInvalidEdge) {
    e = free_edge_;
    free_edge_ = Rec(e).pos[0];
  } else {
    DYNMIS_CHECK_LT(edge_capacity_, std::numeric_limits<EdgeId>::max());
    e = edge_capacity_++;
    if (static_cast<size_t>(e >> kEdgePageShift) == edge_pages_.size()) {
      edge_pages_.emplace_back(kEdgePageRecords);
    }
  }
  const int32_t pos_u = Append(u, v, e);
  const int32_t pos_v = Append(v, u, e);
  EdgeRec& rec = Rec(e);
  rec.u = u;
  rec.pos[0] = pos_u;
  rec.pos[1] = pos_v;
  ++num_edges_;
  if (!evac_queue_.empty()) Evacuate();
  return e;
}

void DynamicGraph::RemoveEdge(EdgeId e) {
  DYNMIS_CHECK(IsEdgeAlive(e));
  const EdgeRec& rec = Rec(e);
  Detach(e, rec.u, Entries(rec.u)[rec.pos[0]].nbr);
}

bool DynamicGraph::RemoveEdgeBetween(VertexId u, VertexId v) {
  const EdgeId e = FindEdge(u, v);
  if (e == kInvalidEdge) return false;
  Detach(e, u, v);
  return true;
}

void DynamicGraph::Detach(EdgeId e, VertexId a, VertexId b) {
  const EdgeRec& rec = Rec(e);
  const VertexId u = rec.u;
  const VertexId v = u == a ? b : a;
  const int32_t pos_u = rec.pos[0];
  const int32_t pos_v = rec.pos[1];
  PushFreeEdge(e);
  --num_edges_;
  DropEntry(u, pos_u);
  DropEntry(v, pos_v);
  if (!evac_queue_.empty()) Evacuate();
}

EdgeId DynamicGraph::FindEdge(VertexId u, VertexId v) const {
  // A dead vertex has an empty array, like an isolated one.
  if (u < 0 || v < 0 || u >= VertexCapacity() || v >= VertexCapacity()) {
    return kInvalidEdge;
  }
  // Scan the shorter array, most recent entry first: recent edges are the
  // likeliest to be deleted, and a simple graph has at most one match.
  if (vertices_[v].len < vertices_[u].len) std::swap(u, v);
  if (vertices_[u].len == 0) return kInvalidEdge;
  const Entry* entries = Entries(u);
  for (int32_t i = vertices_[u].len - 1; i >= 0; --i) {
    if (entries[i].nbr == v) return entries[i].edge;
  }
  return kInvalidEdge;
}

void DynamicGraph::PushFreeEdge(EdgeId e) {
  EdgeRec& rec = Rec(e);
  rec.u = kInvalidVertex;
  rec.pos[0] = free_edge_;
  free_edge_ = e;
}

int32_t DynamicGraph::Append(VertexId x, VertexId nbr, EdgeId e) {
  VertexRec& a = vertices_[x];
  // A full short array that holds tombstones drops them in place instead
  // of moving up a class: it is over half live (see DropEntry), so Compact
  // keeps its block, and a window of expiring edges reuses the same slots.
  if (a.cls != kNoBlock && a.len == ClassCap(a.cls) && a.degree < a.len &&
      a.len <= kMaxSharedCap) {
    Compact(x);
  }
  if (a.cls == kNoBlock || a.len == ClassCap(a.cls)) {
    DYNMIS_CHECK_LT(a.len, kMaxLen);
    Move(x, ClassFor(a.len + 1));
  }
  Entries(x)[a.len] = Entry{nbr, e};
  ++a.degree;
  return a.len++;
}

void DynamicGraph::DropEntry(VertexId x, int32_t pos) {
  VertexRec& a = vertices_[x];
  Entry* entries = Entries(x);
  entries[pos].nbr = kInvalidVertex;
  const int32_t degree = --a.degree;
  if (degree == 0) {
    Compact(x);  // Frees the block.
    return;
  }
  // Tombstones at the end are dropped for free, so deleting recent edges
  // keeps an array tight without compacting it.
  if (pos == a.len - 1) {
    while (entries[a.len - 1].nbr == kInvalidVertex) --a.len;
  }
  // A short array waits until half of it is dead, or until an append
  // finds it full (see Append), so an array whose oldest entries expire one
  // by one is not rewritten on every delete. A chunk compacts once a
  // quarter is dead, since an append that finds it full moves it up a
  // class instead.
  const int32_t dead = a.len - degree;
  if ((ClassCap(a.cls) > kMaxSharedCap ? 4 : 2) * dead >= a.len) Compact(x);
}

void DynamicGraph::Move(VertexId x, int cls) {
  ++relocations_;
  VertexRec& a = vertices_[x];
  const uint32_t block = AllocBlock(cls);
  if (a.cls != kNoBlock) {
    std::copy(Entries(x), Entries(x) + a.len, EntryAt(block));
    FreeBlock(a.block, a.cls);
  }
  if (a.len == 0) *EntryAt(block) = Entry{kOwnerMark, x};
  a.block = block;
  a.cls = static_cast<uint32_t>(cls);
}

void DynamicGraph::Compact(VertexId x) {
  ++relocations_;
  VertexRec& a = vertices_[x];
  const int old_cls = a.cls;
  int new_cls = a.degree == 0 ? kNoBlock : ClassFor(a.degree);
  // A block is kept until it is less than half full, so that an array
  // whose degree hovers does not trade blocks back and forth.
  if (new_cls != kNoBlock && 2 * a.degree > ClassCap(old_cls)) {
    new_cls = old_cls;
  }
  const uint32_t block =
      new_cls == old_cls || new_cls == kNoBlock ? a.block : AllocBlock(new_cls);
  const Entry* src = Entries(x);
  Entry* dst = EntryAt(block);
  int32_t kept = 0;
  for (int32_t i = 0; i < a.len; ++i) {
    const Entry entry = src[i];
    if (entry.nbr == kInvalidVertex) continue;
    if (kept != i) {
      EdgeRec& rec = Rec(entry.edge);
      rec.pos[rec.u == x ? 0 : 1] = kept;
    }
    dst[kept++] = entry;
  }
  DYNMIS_DCHECK(kept == a.degree);
  if (new_cls != old_cls) FreeBlock(a.block, old_cls);
  a.block = new_cls == kNoBlock ? 0 : block;
  a.len = kept;
  a.cls = static_cast<uint32_t>(new_cls);
}

uint32_t DynamicGraph::AllocBlock(int cls) {
  static_assert(kClasses.count == kNumClasses);
  static_assert(kMaxSharedCap == 64);  // Where MakeClassTable's steps widen.
  const int32_t cap = ClassCap(cls);
  if (free_[cls] != 0) {
    const uint32_t offset = free_[cls] - 1;
    if (cap > kMaxSharedCap) {
      free_[cls] = static_cast<uint32_t>(EntryAt(offset)->edge);
    } else {
      Unlink(offset, cls);
      page_info_[offset >> kPageShift].live += cap;
    }
    return offset;
  }
  if (cap > kMaxSharedCap) {
    const auto slot = static_cast<uint32_t>(pages_.size());
    DYNMIS_CHECK_LT(slot, uint32_t{1} << (32 - kPageShift));
    pages_.emplace_back(static_cast<size_t>(cap));
    page_info_.emplace_back();
    return slot << kPageShift;
  }
  if (bump_used_ + cap > kPageEntries) NextBumpPage();
  const uint32_t offset =
      (static_cast<uint32_t>(bump_page_) << kPageShift) + bump_used_;
  PageInfo& info = page_info_[bump_page_];
  info.live += cap;
  info.starts[bump_used_ >> 6] |= uint64_t{1} << (bump_used_ & 63);
  bump_used_ += cap;
  return offset;
}

void DynamicGraph::FreeBlock(uint32_t offset, int cls) {
  Entry* block = EntryAt(offset);
  const uint32_t next = free_[cls];
  if (ClassCap(cls) > kMaxSharedCap) {
    block[0] = Entry{kInvalidVertex, static_cast<EdgeId>(next)};
    free_[cls] = offset + 1;
    return;
  }
  const uint32_t page = offset >> kPageShift;
  PageInfo& info = page_info_[page];
  info.live -= ClassCap(cls);
  if (info.queued) {
    // Evacuation reclaims the page whole: the block just stops being one.
    const uint32_t index = offset & (kPageEntries - 1);
    info.starts[index >> 6] &= ~(uint64_t{1} << (index & 63));
    return;
  }
  block[0] = Entry{kFreeMark, static_cast<EdgeId>(next)};
  block[1] = Entry{0, cls};
  if (next != 0) EntryAt(next - 1)[1].nbr = static_cast<VertexId>(offset + 1);
  free_[cls] = offset + 1;
  MaybeQueue(page);
}

void DynamicGraph::Unlink(uint32_t offset, int cls) {
  const Entry* block = EntryAt(offset);
  const auto next = static_cast<uint32_t>(block[0].edge);
  const auto prev = static_cast<uint32_t>(block[1].nbr);
  if (prev != 0) {
    EntryAt(prev - 1)[0].edge = static_cast<EdgeId>(next);
  } else {
    free_[cls] = next;
  }
  if (next != 0) EntryAt(next - 1)[1].nbr = static_cast<VertexId>(prev);
}

void DynamicGraph::MaybeQueue(uint32_t page) {
  PageInfo& info = page_info_[page];
  if (static_cast<int64_t>(page) == bump_page_ || info.queued ||
      8 * info.live >= 7 * info.used) {
    return;
  }
  info.queued = true;
  evac_queue_.push_back(page);
}

void DynamicGraph::NextBumpPage() {
  const int64_t old = bump_page_;
  const int32_t used = bump_used_;
  if (!free_pages_.empty()) {
    bump_page_ = free_pages_.back();
    free_pages_.pop_back();
  } else {
    bump_page_ = static_cast<int64_t>(pages_.size());
    DYNMIS_CHECK_LT(bump_page_, int64_t{1} << (32 - kPageShift));
    pages_.emplace_back(kPageEntries);
    page_info_.emplace_back();
    ++shared_pages_;
  }
  bump_used_ = 0;
  if (old >= 0) {
    page_info_[old].used = used;
    MaybeQueue(static_cast<uint32_t>(old));
  }
}

void DynamicGraph::Evacuate() {
  while (!evac_queue_.empty()) {
    const uint32_t page = evac_queue_.back();
    evac_queue_.pop_back();
    // First take the page's free blocks off their lists, so that moving
    // its arrays cannot land in them; while the page is marked queued, the
    // blocks its arrays leave are not listed either. (Moving may add a
    // page, so page_info_ is indexed afresh each time.)
    const Entry* entries = EntryAt(page << kPageShift);
    for (int word = 0; word < kPageEntries / 64; ++word) {
      for (uint64_t bits = page_info_[page].starts[word]; bits != 0;
           bits &= bits - 1) {
        const int index = word * 64 + std::countr_zero(bits);
        if (entries[index].nbr == kFreeMark) {
          Unlink((page << kPageShift) + index, entries[index + 1].edge);
        }
      }
    }
    for (int word = 0; word < kPageEntries / 64; ++word) {
      for (uint64_t bits = page_info_[page].starts[word]; bits != 0;
           bits &= bits - 1) {
        const uint32_t offset =
            (page << kPageShift) + word * 64 + std::countr_zero(bits);
        if (EntryAt(offset)->nbr == kFreeMark) continue;
        const VertexId owner = OwnerOf(offset);
        DYNMIS_DCHECK(vertices_[owner].block == offset);
        Move(owner, vertices_[owner].cls);
      }
    }
    page_info_[page] = PageInfo{};
    free_pages_.push_back(page);
  }
}

VertexId DynamicGraph::OwnerOf(uint32_t offset) const {
  // A live array has a live entry before any unused slot, or is empty and
  // carries its owner mark.
  for (const Entry* entry = EntryAt(offset);; ++entry) {
    if (entry->nbr == kOwnerMark) return entry->edge;
    if (entry->nbr == kInvalidVertex) continue;
    const EdgeRec& rec = Rec(entry->edge);
    return rec.u != entry->nbr ? rec.u : Entries(rec.u)[rec.pos[0]].nbr;
  }
}

std::vector<VertexId> DynamicGraph::Neighbors(VertexId v) const {
  std::vector<VertexId> result;
  result.reserve(Degree(v));
  ForEachIncident(v, [&](VertexId u, EdgeId) { result.push_back(u); });
  return result;
}

std::vector<VertexId> DynamicGraph::AliveVertices() const {
  std::vector<VertexId> result;
  result.reserve(num_vertices_);
  for (VertexId v = 0; v < VertexCapacity(); ++v) {
    if (vertices_[v].degree >= 0) result.push_back(v);
  }
  return result;
}

std::vector<std::pair<VertexId, VertexId>> DynamicGraph::EdgeList() const {
  std::vector<std::pair<VertexId, VertexId>> result;
  result.reserve(static_cast<size_t>(num_edges_));
  for (EdgeId e = 0; e < EdgeCapacity(); ++e) {
    if (!IsEdgeAlive(e)) continue;
    auto [u, v] = Endpoints(e);
    if (u > v) std::swap(u, v);
    result.emplace_back(u, v);
  }
  return result;
}

size_t DynamicGraph::MemoryUsageBytes() const {
  return VectorBytes(vertices_) +
         NestedVectorBytes(pages_) + VectorBytes(page_info_) +
         VectorBytes(free_pages_) + VectorBytes(evac_queue_) +
         NestedVectorBytes(edge_pages_) +
         VectorBytes(free_vertices_);
}

void DynamicGraph::SaveTo(SnapshotWriter* w) const {
  w->BeginSection("graph");
  w->PutI64(num_vertices_);
  w->PutI64(num_edges_);
  std::vector<int32_t> degrees(static_cast<size_t>(VertexCapacity()));
  std::vector<int32_t> neighbours;
  neighbours.reserve(2 * static_cast<size_t>(num_edges_));
  for (VertexId v = 0; v < VertexCapacity(); ++v) {
    degrees[v] = vertices_[v].degree;
    if (degrees[v] <= 0) continue;
    const Entry* entries = Entries(v);
    for (int32_t i = 0; i < vertices_[v].len; ++i) {
      if (entries[i].nbr != kInvalidVertex) {
        neighbours.push_back(entries[i].nbr);
      }
    }
  }
  w->PutI32Array(degrees);
  w->PutI32Array(neighbours);
  w->PutI32Array(free_vertices_);
  w->EndSection();
}

bool DynamicGraph::LoadFrom(SnapshotReader* r) {
  if (!r->OpenSection("graph")) return false;
  auto fail = [&](const char* message) {
    r->Fail(std::string("snapshot: graph: ") + message);
    return false;
  };

  const int64_t nv = r->GetI64();
  const int64_t ne = r->GetI64();
  std::vector<int32_t> degrees, neighbours, free_v;
  if (!r->GetI32Array(&degrees) || !r->GetI32Array(&neighbours) ||
      !r->GetI32Array(&free_v)) {
    return false;
  }
  if (!r->AtSectionEnd()) return fail("trailing bytes after the last field");
  if (degrees.size() >
      static_cast<size_t>(std::numeric_limits<VertexId>::max())) {
    return fail("vertex capacity above the limit");
  }
  const auto vcap = static_cast<int32_t>(degrees.size());

  // --- Validation: counts, neighbour ids and the free list. -----------------
  int64_t alive_vertices = 0;
  int64_t degree_sum = 0;
  for (const int32_t degree : degrees) {
    if (degree < -1) return fail("vertex degree below -1");
    if (degree > kMaxLen) return fail("vertex degree above the limit");
    if (degree >= 0) {
      ++alive_vertices;
      degree_sum += degree;
    }
  }
  if (alive_vertices != nv) return fail("alive-vertex count mismatch");
  if (ne < 0 || ne > std::numeric_limits<EdgeId>::max() ||
      degree_sum != 2 * ne) {
    return fail("degree sum does not equal 2m");
  }
  if (neighbours.size() != static_cast<size_t>(degree_sum)) {
    return fail("neighbour list length does not match the degrees");
  }
  // slots[v + 1] counts the lower neighbours that v lists. lister[w] is the
  // last vertex found listing w, so a vertex that lists w twice is caught
  // (counts in the algorithm layers are per neighbour, not per edge).
  std::vector<int64_t> slots(static_cast<size_t>(vcap) + 1, 0);
  {
    std::vector<VertexId> lister(static_cast<size_t>(vcap), kInvalidVertex);
    size_t at = 0;
    for (int32_t v = 0; v < vcap; ++v) {
      for (int32_t i = 0; i < degrees[v]; ++i) {
        const int32_t w = neighbours[at++];
        if (w < 0 || w >= vcap) return fail("neighbour id out of range");
        if (degrees[w] < 0) return fail("neighbour is a dead vertex");
        if (w == v) return fail("self loop");
        if (lister[w] == v) return fail("parallel edge");
        lister[w] = v;
        slots[v + 1] += w < v;
      }
    }
  }
  if (free_v.size() != static_cast<size_t>(vcap - nv)) {
    return fail("free-vertex list size mismatch");
  }
  {
    std::vector<uint8_t> freed(static_cast<size_t>(vcap), 0);
    for (const int32_t v : free_v) {
      if (v < 0 || v >= vcap || degrees[v] >= 0) {
        return fail("free-vertex list names a vertex that is not dead");
      }
      if (freed[v]) return fail("free-vertex list repeats an id");
      freed[v] = 1;
    }
  }

  // --- Size every array once, in vertex order. ------------------------------
  DynamicGraph loaded;
  loaded.vertices_.resize(static_cast<size_t>(vcap));
  size_t at = 0;
  for (int32_t v = 0; v < vcap; ++v) {
    VertexRec& rec = loaded.vertices_[v];
    rec.degree = degrees[v];
    if (degrees[v] <= 0) continue;
    const int cls = ClassFor(degrees[v]);
    rec.block = loaded.AllocBlock(cls);
    rec.len = static_cast<uint32_t>(degrees[v]);
    rec.cls = static_cast<uint32_t>(cls);
    Entry* entries = loaded.Entries(v);
    for (int32_t i = 0; i < degrees[v]; ++i) {
      entries[i] = Entry{neighbours[at++], kInvalidEdge};
    }
  }
  std::vector<int32_t>().swap(neighbours);  // The arrays hold them now.

  // --- Number the edges, checking symmetry. ---------------------------------
  // An edge gets its id at its lower endpoint, vertices ascending, each in
  // incidence order, and waits in a slot of its higher endpoint w, which
  // has one per lower neighbour it lists. At w, below[u] holds the edge
  // from u, and each lower neighbour w lists must take one, so no list
  // names a neighbour that does not list it back. Symmetry is checked here
  // rather than before the arrays are sized, which would take another pass;
  // a failure discards the half-built graph.
  for (int32_t v = 0; v < vcap; ++v) slots[v + 1] += slots[v];
  std::vector<int64_t> filled(slots.begin(), slots.end() - 1);
  std::vector<EdgeId> waiting(static_cast<size_t>(slots[vcap]));
  std::vector<EdgeId> below(static_cast<size_t>(vcap), kInvalidEdge);
  loaded.edge_capacity_ = static_cast<int>(ne);
  loaded.edge_pages_.resize(
      (static_cast<size_t>(ne) + kEdgePageRecords - 1) >> kEdgePageShift,
      std::vector<EdgeRec>(kEdgePageRecords));
  EdgeId next_id = 0;
  for (int32_t v = 0; v < vcap; ++v) {
    if (degrees[v] <= 0) continue;
    for (int64_t s = slots[v]; s < filled[v]; ++s) {
      below[loaded.Rec(waiting[s]).u] = waiting[s];
    }
    Entry* entries = loaded.Entries(v);
    for (int32_t i = 0; i < degrees[v]; ++i) {
      const VertexId w = entries[i].nbr;
      EdgeId e;
      if (w < v) {
        e = below[w];
        if (e == kInvalidEdge) return fail("asymmetric adjacency");
        below[w] = kInvalidEdge;
        loaded.Rec(e).pos[1] = i;
      } else {
        if (filled[w] == slots[w + 1]) return fail("asymmetric adjacency");
        e = next_id++;
        loaded.Rec(e) = EdgeRec{v, {i, 0}};
        waiting[filled[w]++] = e;
      }
      entries[i].edge = e;
    }
  }
  loaded.free_vertices_ = std::move(free_v);
  loaded.num_vertices_ = static_cast<int>(nv);
  loaded.num_edges_ = ne;
  *this = std::move(loaded);
  return true;
}

}  // namespace dynmis

