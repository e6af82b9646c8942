// PartitionPlan: maps every vertex id to one of S shards. For the hash and
// range strategies the mapping is a pure function of the id — O(1) routing
// with zero lookup state, and a recycled id always lands back in the shard
// that owned it, so every op on one id goes to one shard's op sequence.
//
// Three strategies:
//  * kHash: Fibonacci-hash the id, then mod S. Spreads any id distribution
//    evenly; cut fraction approaches (1 - 1/S) on graphs without locality.
//  * kRange: contiguous blocks of ids round-robined across shards. Keeps
//    id-local graphs (generators emit community-ordered ids) mostly
//    intra-shard and makes shard membership humanly predictable.
//  * kLocality: streaming-greedy placement (the LDG idiom from streaming
//    graph partitioning). Each vertex is assigned, at the moment its id is
//    created, to the shard holding the plurality of its already-placed
//    neighbors, subject to a balance cap; the assignment is recorded in an
//    owner table, so the plan is stateful but lookup stays O(1). A recycled
//    id keeps its previous owner and casts no second vote, so each id's
//    placement is fixed at its first arrival and, as under hash and range,
//    every op on the id goes to one shard's op sequence. The owner table
//    travels in snapshots (PartitionPlan::RestoreLocality), so a restored
//    engine maps ids exactly as the saved one did.

#ifndef DYNMIS_SRC_SHARD_PARTITION_PLAN_H_
#define DYNMIS_SRC_SHARD_PARTITION_PLAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/util/check.h"

namespace dynmis {

enum class PartitionStrategy : uint8_t { kHash = 0, kRange = 1, kLocality = 2 };

// Registry-style spelling of a strategy ("hash" / "range" / "locality"),
// for bench JSON and CLI flags.
std::string PartitionStrategyName(PartitionStrategy strategy);

// Parses the spelling PartitionStrategyName emits. Returns false (leaving
// `*strategy` untouched) on anything else.
bool ParsePartitionStrategy(const std::string& name,
                            PartitionStrategy* strategy);

class PartitionPlan {
 public:
  // Hash partitioning over `num_shards` shards.
  static PartitionPlan Hash(int num_shards);

  // Range partitioning: blocks of ceil(expected_vertices / num_shards)
  // consecutive ids per shard; ids past the expected range wrap by block
  // index, so growth keeps spreading round-robin instead of piling onto
  // the last shard.
  static PartitionPlan Range(int num_shards, int expected_vertices);

  // Locality partitioning with an empty owner table; callers assign each
  // id via AssignVertex / AssignArrivingVertex before routing it.
  static PartitionPlan Locality(int num_shards);

  static PartitionPlan Make(PartitionStrategy strategy, int num_shards,
                            int expected_vertices) {
    switch (strategy) {
      case PartitionStrategy::kHash:
        return Hash(num_shards);
      case PartitionStrategy::kRange:
        return Range(num_shards, expected_vertices);
      case PartitionStrategy::kLocality:
        return Locality(num_shards);
    }
    return Hash(num_shards);
  }

  // Rebuilds a hash/range plan from its persisted fields (snapshot
  // restore): a loaded engine must map ids exactly as the saved one did,
  // so the block size is restored verbatim instead of re-derived from a
  // vertex count.
  static PartitionPlan Restore(PartitionStrategy strategy, int num_shards,
                               int block_size) {
    DYNMIS_CHECK_GE(num_shards, 1);
    DYNMIS_CHECK_GE(block_size, 1);
    DYNMIS_CHECK(strategy != PartitionStrategy::kLocality);
    return PartitionPlan(strategy, num_shards, block_size);
  }

  // Rebuilds a locality plan from its persisted owner table (-1 = id never
  // assigned). Shard load counters are rebuilt by OnVertexAdded calls for
  // the alive ids (the engine drives that from the restored cut structure).
  static PartitionPlan RestoreLocality(int num_shards,
                                       std::vector<int32_t> owners) {
    DYNMIS_CHECK_GE(num_shards, 1);
    PartitionPlan plan(PartitionStrategy::kLocality, num_shards, 1);
    plan.owners_ = std::move(owners);
    return plan;
  }

  int num_shards() const { return num_shards_; }
  PartitionStrategy strategy() const { return strategy_; }
  // Block width of a range plan (1 for hash and locality plans).
  int block_size() const { return block_size_; }

  // The shard owning vertex id `v`. Total over all non-negative ids for
  // hash/range; for locality the id must have been assigned.
  int ShardOf(VertexId v) const {
    DYNMIS_DCHECK(v >= 0);
    switch (strategy_) {
      case PartitionStrategy::kHash: {
        // Fibonacci multiplicative hash: the high 32 bits are well mixed
        // for the dense small ids DynamicGraph allocates.
        const uint64_t mixed =
            (static_cast<uint64_t>(static_cast<uint32_t>(v)) *
             0x9E3779B97F4A7C15ull) >>
            32;
        return static_cast<int>(mixed % static_cast<uint64_t>(num_shards_));
      }
      case PartitionStrategy::kRange:
        return static_cast<int>(
            (static_cast<int64_t>(v) / block_size_) % num_shards_);
      case PartitionStrategy::kLocality:
        DYNMIS_DCHECK(HasOwner(v));
        return owners_[v];
    }
    return 0;
  }

  // --- Locality-strategy state (no-ops / trivial on hash and range) ---------

  // True when this plan assigns ids on insert (kLocality).
  bool assigns_on_insert() const {
    return strategy_ == PartitionStrategy::kLocality;
  }

  // True when id `v` already has a recorded owner.
  bool HasOwner(VertexId v) const {
    return strategy_ != PartitionStrategy::kLocality ||
           (v >= 0 && v < static_cast<VertexId>(owners_.size()) &&
            owners_[v] >= 0);
  }

  // Streaming-greedy assignment: place `v` on the shard holding the
  // plurality of the already-owned vertices in `neighbors`, unless that
  // shard is over the balance cap; ties and cap overflows fall back to the
  // least-loaded shard (lowest index on equality), so the choice is a
  // deterministic function of the plan state. Records and returns the
  // owner. kLocality only.
  int AssignVertex(VertexId v, const std::vector<VertexId>& neighbors);

  // Bookkeeping for the balance cap: the engine reports every vertex
  // arrival/departure (including recycled ids, which keep their owner).
  void OnVertexAdded(VertexId v) {
    if (strategy_ != PartitionStrategy::kLocality) return;
    DYNMIS_DCHECK(HasOwner(v));
    ++sizes_[owners_[v]];
    ++alive_total_;
  }
  void OnVertexRemoved(VertexId v) {
    if (strategy_ != PartitionStrategy::kLocality) return;
    DYNMIS_DCHECK(HasOwner(v));
    --sizes_[owners_[v]];
    --alive_total_;
  }

  // The owner table (locality plans; empty otherwise). Persisted verbatim
  // in sharded snapshots: -1 marks ids that never existed.
  const std::vector<int32_t>& owners() const { return owners_; }

  // Current alive-vertex load of every shard (locality plans).
  const std::vector<int64_t>& shard_sizes() const { return sizes_; }

 private:
  PartitionPlan(PartitionStrategy strategy, int num_shards, int block_size)
      : strategy_(strategy), num_shards_(num_shards), block_size_(block_size) {
    if (strategy_ == PartitionStrategy::kLocality) {
      sizes_.assign(static_cast<size_t>(num_shards_), 0);
      counts_.assign(static_cast<size_t>(num_shards_), 0);
    }
  }

  PartitionStrategy strategy_;
  int num_shards_;
  int block_size_;

  // kLocality only: per-id owner (-1 = unassigned), per-shard alive counts,
  // and a reusable neighbor-count scratch for AssignVertex.
  std::vector<int32_t> owners_;
  std::vector<int64_t> sizes_;
  int64_t alive_total_ = 0;
  std::vector<int32_t> counts_;
  std::vector<int32_t> counted_shards_;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_SHARD_PARTITION_PLAN_H_
