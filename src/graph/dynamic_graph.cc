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

DynamicGraph DynamicGraph::FromEdges(
    int n, const std::vector<std::pair<VertexId, VertexId>>& edges) {
  DYNMIS_CHECK_GE(n, 0);
  std::vector<int32_t> degrees(static_cast<size_t>(n), 0);
  for (const auto& [u, v] : edges) {
    DYNMIS_CHECK(u >= 0 && u < n && v >= 0 && v < n);
    DYNMIS_CHECK_NE(u, v);
    ++degrees[u];
    ++degrees[v];
  }
  for (const int32_t degree : degrees) DYNMIS_CHECK_LE(degree, kMaxLen);
  DynamicGraph g;
  g.SizeArrays(degrees);
  for (const auto& [u, v] : edges) {
    DYNMIS_DCHECK(!g.HasEdge(u, v));
    const auto pos_u = static_cast<int32_t>(g.vertices_[u].len++);
    const auto pos_v = static_cast<int32_t>(g.vertices_[v].len++);
    g.Entries(u)[pos_u] = Entry{v, pos_v};
    g.Entries(v)[pos_v] = Entry{u, pos_u};
  }
  g.num_vertices_ = n;
  g.num_edges_ = static_cast<int64_t>(edges.size());
  return g;
}

void DynamicGraph::SizeArrays(const std::vector<int32_t>& degrees) {
  vertices_.resize(degrees.size());
  for (size_t v = 0; v < degrees.size(); ++v) {
    VertexRec& rec = vertices_[v];
    rec.degree = degrees[v];
    if (degrees[v] <= 0) continue;
    const int cls = ClassFor(degrees[v]);
    rec.block = AllocBlock(cls);
    rec.cls = static_cast<uint32_t>(cls);
  }
}

void DynamicGraph::Reserve(int n, int64_t m) {
  if (n > 0) {
    vertices_.reserve(static_cast<size_t>(n));
    free_vertices_.reserve(static_cast<size_t>(n));
  }
  if (m > 0) {
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
  // Drops v's edges most recent first, as deleting them one by one from the
  // front of a linked incidence list would. v's own array is left as it is
  // until the end (never compacted while being walked); only the far
  // endpoints drop their entries, found through the mirrors. Arrays move
  // only in Evacuate(), after the walk, so `entries` stays valid.
  if (vertices_[v].cls != kNoBlock) {
    const Entry* entries = Entries(v);
    for (int32_t i = vertices_[v].len - 1; i >= 0; --i) {
      const Entry entry = entries[i];
      if (entry.nbr == kInvalidVertex) continue;
      --num_edges_;
      --vertices_[v].degree;
      DropEntry(entry.nbr, entry.mirror);
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

void DynamicGraph::AddEdge(VertexId u, VertexId v) {
  DYNMIS_CHECK(IsVertexAlive(u));
  DYNMIS_CHECK(IsVertexAlive(v));
  DYNMIS_CHECK_NE(u, v);
  DYNMIS_DCHECK(!HasEdge(u, v));
  // Appending to v's array may compact it, which patches mirrors in other
  // arrays but moves no entry of u's, so pos_u stays valid.
  const int32_t pos_u = Append(u, v);
  const int32_t pos_v = Append(v, u);
  Entries(u)[pos_u].mirror = pos_v;
  Entries(v)[pos_v].mirror = pos_u;
  ++num_edges_;
  if (!evac_queue_.empty()) Evacuate();
}

bool DynamicGraph::RemoveEdgeBetween(VertexId u, VertexId v) {
  const int32_t pos_u = Locate(&u, &v);
  if (pos_u < 0) return false;
  const int32_t pos_v = Entries(u)[pos_u].mirror;
  --num_edges_;
  DropEntry(u, pos_u);
  DropEntry(v, pos_v);
  if (!evac_queue_.empty()) Evacuate();
  return true;
}

bool DynamicGraph::HasEdge(VertexId u, VertexId v) const {
  return Locate(&u, &v) >= 0;
}

int32_t DynamicGraph::Locate(VertexId* u, VertexId* v) const {
  // A dead vertex has an empty array, like an isolated one.
  if (*u < 0 || *v < 0 || *u >= VertexCapacity() || *v >= VertexCapacity()) {
    return -1;
  }
  // Scan the shorter array, most recent entry first: recent edges are the
  // likeliest to be deleted, and a simple graph has at most one match.
  if (vertices_[*v].len < vertices_[*u].len) std::swap(*u, *v);
  const auto len = static_cast<int32_t>(vertices_[*u].len);
  if (len == 0) return -1;
  const Entry* entries = Entries(*u);
  for (int32_t i = len - 1; i >= 0; --i) {
    if (entries[i].nbr == *v) return i;
  }
  return -1;
}

int32_t DynamicGraph::Append(VertexId x, VertexId nbr) {
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
  Entries(x)[a.len] = Entry{nbr, 0};
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
    if (kept != i) Entries(entry.nbr)[entry.mirror].mirror = kept;
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
      free_[cls] = static_cast<uint32_t>(EntryAt(offset)->mirror);
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
    block[0] = Entry{kInvalidVertex, static_cast<int32_t>(next)};
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
  block[0] = Entry{kFreeMark, static_cast<int32_t>(next)};
  block[1] = Entry{0, cls};
  if (next != 0) EntryAt(next - 1)[1].nbr = static_cast<VertexId>(offset + 1);
  free_[cls] = offset + 1;
  MaybeQueue(page);
}

void DynamicGraph::Unlink(uint32_t offset, int cls) {
  const Entry* block = EntryAt(offset);
  const auto next = static_cast<uint32_t>(block[0].mirror);
  const auto prev = static_cast<uint32_t>(block[1].nbr);
  if (prev != 0) {
    EntryAt(prev - 1)[0].mirror = static_cast<int32_t>(next);
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
          Unlink((page << kPageShift) + index, entries[index + 1].mirror);
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
    if (entry->nbr == kOwnerMark) return entry->mirror;
    if (entry->nbr == kInvalidVertex) continue;
    return Entries(entry->nbr)[entry->mirror].nbr;
  }
}

std::vector<VertexId> DynamicGraph::Neighbors(VertexId v) const {
  std::vector<VertexId> result;
  result.reserve(Degree(v));
  ForEachIncident(v, [&](VertexId u) { result.push_back(u); });
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
  for (VertexId v = 0; v < VertexCapacity(); ++v) {
    if (vertices_[v].len == 0) continue;
    const Entry* entries = Entries(v);
    for (int32_t i = 0; i < vertices_[v].len; ++i) {
      if (entries[i].nbr > v) result.emplace_back(v, entries[i].nbr);
    }
  }
  return result;
}

void DynamicGraph::CheckConsistency() const {
  int alive = 0;
  int64_t degree_sum = 0;
  for (VertexId v = 0; v < VertexCapacity(); ++v) {
    const VertexRec& a = vertices_[v];
    if (a.degree < 0) {
      DYNMIS_CHECK_EQ(a.degree, -1);
      DYNMIS_CHECK(a.cls == kNoBlock && a.len == 0);
      continue;
    }
    ++alive;
    degree_sum += a.degree;
    if (a.cls == kNoBlock) {
      DYNMIS_CHECK(a.degree == 0 && a.len == 0);
      continue;
    }
    DYNMIS_CHECK_LE(static_cast<int32_t>(a.len), ClassCap(a.cls));
    const Entry* entries = Entries(v);
    if (a.len == 0) {
      DYNMIS_CHECK_EQ(a.degree, 0);
      DYNMIS_CHECK(entries[0].nbr == kOwnerMark && entries[0].mirror == v);
      continue;
    }
    DYNMIS_CHECK_NE(entries[a.len - 1].nbr, kInvalidVertex);
    int32_t live = 0;
    for (int32_t i = 0; i < a.len; ++i) {
      const Entry entry = entries[i];
      if (entry.nbr == kInvalidVertex) continue;
      ++live;
      DYNMIS_CHECK(IsVertexAlive(entry.nbr));
      const auto nbr_len = static_cast<int32_t>(vertices_[entry.nbr].len);
      DYNMIS_CHECK(entry.mirror >= 0 && entry.mirror < nbr_len);
      const Entry mirror = Entries(entry.nbr)[entry.mirror];
      DYNMIS_CHECK(mirror.nbr == v && mirror.mirror == i);
    }
    DYNMIS_CHECK_EQ(live, a.degree);
  }
  DYNMIS_CHECK_EQ(alive, num_vertices_);
  DYNMIS_CHECK_EQ(degree_sum, 2 * num_edges_);
  DYNMIS_CHECK_EQ(static_cast<size_t>(VertexCapacity() - alive),
                  free_vertices_.size());
}

size_t DynamicGraph::MemoryUsageBytes() const {
  return VectorBytes(vertices_) +
         NestedVectorBytes(pages_) + VectorBytes(page_info_) +
         VectorBytes(free_pages_) + VectorBytes(evac_queue_) +
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

  // --- Size every array once, in vertex order, and fill it. ----------------
  DynamicGraph loaded;
  loaded.SizeArrays(degrees);
  size_t at = 0;
  for (int32_t v = 0; v < vcap; ++v) {
    if (degrees[v] <= 0) continue;
    loaded.vertices_[v].len = static_cast<uint32_t>(degrees[v]);
    Entry* entries = loaded.Entries(v);
    for (int32_t i = 0; i < degrees[v]; ++i) {
      entries[i] = Entry{neighbours[at++], 0};
    }
  }
  std::vector<int32_t>().swap(neighbours);  // The arrays hold them now.

  // --- Link the mirrors, checking symmetry. ---------------------------------
  // Vertices ascending, each in incidence order: an entry to a higher
  // neighbour w waits in a slot of w, which has one per lower neighbour it
  // lists. At w, below[u] holds the position of w in u's array, and each
  // lower neighbour w lists must take one, so no list names a neighbour
  // that does not list it back. Symmetry is checked here rather than before
  // the arrays are sized, which would take another pass; a failure
  // discards the half-built graph.
  for (int32_t v = 0; v < vcap; ++v) slots[v + 1] += slots[v];
  std::vector<int64_t> filled(slots.begin(), slots.end() - 1);
  std::vector<std::pair<VertexId, int32_t>> waiting(
      static_cast<size_t>(slots[vcap]));
  std::vector<int32_t> below(static_cast<size_t>(vcap), -1);
  for (int32_t v = 0; v < vcap; ++v) {
    if (degrees[v] <= 0) continue;
    for (int64_t s = slots[v]; s < filled[v]; ++s) {
      below[waiting[s].first] = waiting[s].second;
    }
    Entry* entries = loaded.Entries(v);
    for (int32_t i = 0; i < degrees[v]; ++i) {
      const VertexId w = entries[i].nbr;
      if (w < v) {
        const int32_t pos = below[w];
        if (pos < 0) return fail("asymmetric adjacency");
        below[w] = -1;
        entries[i].mirror = pos;
        loaded.Entries(w)[pos].mirror = i;
      } else {
        if (filled[w] == slots[w + 1]) return fail("asymmetric adjacency");
        waiting[filled[w]++] = {v, i};
      }
    }
  }
  loaded.free_vertices_ = std::move(free_v);
  loaded.num_vertices_ = static_cast<int>(nv);
  loaded.num_edges_ = ne;
  *this = std::move(loaded);
  return true;
}

}  // namespace dynmis

