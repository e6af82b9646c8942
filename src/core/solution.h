// MisState: the bookkeeping shared by the paper's maintenance framework
// (Section III-B) and its instantiations (DyOneSwap, DyTwoSwap, KSwap).
//
// Maintained per vertex v:
//   * status(v)  - whether v is in the current solution I.
//   * count(v)   - |N(v) cap I| (0 for solution vertices).
//   * sum(v), sq(v) - the sum and the sum of squares (mod 2^64) of the ids
//                  in I(v) = N(v) cap I. They name I(v) exactly while it
//                  is small: with count 1 the owner is sum(v); with count 2
//                  the owners a < b satisfy a + b = sum(v) and
//                  (b - a)^2 = 2 sq(v) - sum(v)^2, which is exact for ids
//                  below 2^31 (every VertexId). This answers what the
//                  paper's intrusive I(v) lists (one link slot per edge
//                  side) answer, in O(1) and with no per-edge storage.
//
// The tightness sets of a solution vertex v come from one pass over N(v),
// the paper's lazy collection (optimization 1):
//   * bar1(v)        - neighbours u with count(u) == 1 (bar_I1(v)).
//   * bar2(v)        - neighbours u with count(u) == 2.
//   * bar_I2({v, y}) - the members of bar2(v) whose other solution
//                      neighbour, sum(u) - v, is y.
//
// Every count transition into 1..k of a non-solution vertex is appended to
// a transition log. The algorithms drain the log to build their candidate
// queues; entries are validated at drain time, so stale entries are
// harmless. This realizes the framework's "collect candidates around op"
// soundly (Theorem 5).

#ifndef DYNMIS_SRC_CORE_SOLUTION_H_
#define DYNMIS_SRC_CORE_SOLUTION_H_

#include <cstdint>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/io/snapshot.h"

namespace dynmis {

class MisState {
 public:
  // `k`: count transitions into 1..k are logged for the candidate queues.
  MisState(DynamicGraph* g, int k);

  // Resizes the per-vertex arrays to the graph's current vertex capacity.
  // Call after any operation that may have grown it.
  void EnsureCapacity();

  // Resets the state slots of a vertex id that was just (re)allocated.
  void OnVertexAdded(VertexId v);

  bool InSolution(VertexId v) const { return status_[v] != 0; }
  int Count(VertexId v) const { return count_[v]; }
  int64_t SolutionSize() const { return solution_size_; }
  std::vector<VertexId> Solution() const;

  // Appends the solution members to `out` (not cleared): the copy-on-demand
  // form of Solution() that reuses the caller's buffer across calls.
  void AppendSolution(std::vector<VertexId>* out) const;

  // The unique solution neighbour of `u`; requires count(u) == 1. O(1).
  VertexId OwnerOf(VertexId u) const {
    DYNMIS_DCHECK(count_[u] == 1);
    return static_cast<VertexId>(owners_[u].sum);
  }

  // The two solution neighbours of `u`; requires count(u) == 2. Results are
  // ordered (first < second). O(1).
  void OwnersOf2(VertexId u, VertexId* a, VertexId* b) const;

  // Calls fn(w) for each solution neighbour w of the non-solution vertex
  // `u`: O(1) for count(u) <= 2, a scan of N(u) above.
  template <typename Fn>
  void ForEachSolutionNeighbor(VertexId u, Fn&& fn) const {
    switch (count_[u]) {
      case 0:
        return;
      case 1:
        fn(OwnerOf(u));
        return;
      case 2: {
        VertexId a, b;
        OwnersOf2(u, &a, &b);
        fn(a);
        fn(b);
        return;
      }
      default:
        g_->ForEachIncident(u, [&](VertexId w) {
          if (status_[w]) fn(w);
        });
    }
  }

  // --- Tightness sets --------------------------------------------------------
  // All take a solution vertex v and scan N(v); outputs are appended to, not
  // cleared.

  // Whether bar1(v) is nonempty; stops at the first member.
  bool HasBar1(VertexId v) const;

  // Appends bar1(v) to `bar1`.
  void CollectBar1(VertexId v, std::vector<VertexId>* bar1) const;

  // One pass that appends bar1(v) to `bar1` and count-2 neighbours to
  // `bar2`: all of bar2(v) when `pair` is kInvalidVertex, otherwise only
  // bar_I2({v, pair}), those whose other solution neighbour is `pair`.
  void CollectBar1And2(VertexId v, VertexId pair, std::vector<VertexId>* bar1,
                       std::vector<VertexId>* bar2) const;

  // --- Status transitions ----------------------------------------------------

  // Moves `v` into the solution. Requires: alive, not in I, count(v) == 0.
  void MoveIn(VertexId v);

  // Moves `v` out of the solution and recomputes count(v) and its sums.
  // Tolerates neighbours currently in I (the transient state during the
  // both-endpoints-in-I edge insertion case).
  void MoveOut(VertexId v);

  // --- Edge event hooks ------------------------------------------------------

  // Call immediately after g->AddEdge(u, v). Handles the at-most-one-
  // endpoint-in-I cases; with both endpoints in I it is a no-op (the caller
  // must MoveOut one endpoint right after).
  void OnEdgeAdded(VertexId u, VertexId v);

  // Call immediately *before* the edge {u, v} leaves the graph.
  void OnEdgeRemoving(VertexId u, VertexId v);

  // Call immediately before g->RemoveVertex(v) *after* the caller has moved
  // v out of the solution (if it was in). Clears v's count and sums; the
  // neighbours' counts are unaffected since v is not in I.
  void OnVertexRemoving(VertexId v);

  // --- Status observer -------------------------------------------------------

  // Called on every MoveIn (`in` = true) / MoveOut (`in` = false), after the
  // membership flip. A plain function pointer + context rather than a
  // std::function: the hook sits on the hottest path in the library and must
  // cost one predictable branch when unset. Its user is perfbench's layer
  // ladder, which counts transitions per update.
  using StatusObserverFn = void (*)(void* ctx, VertexId v, bool in);
  void SetStatusObserver(StatusObserverFn fn, void* ctx) {
    status_observer_ = fn;
    status_observer_ctx_ = ctx;
  }

  // --- Transition log --------------------------------------------------------

  // Drains the transition log in place: calls fn(u) for every vertex whose
  // count transitioned into 1..k since the last drain, then clears the log
  // keeping its capacity (the old TakeTransitions() moved the vector out,
  // forcing a fresh allocation on every subsequent operation). Entries may
  // be stale; consumers must re-validate. The callback must not call
  // MoveIn/MoveOut or the edge hooks (they append to the log).
  template <typename Fn>
  void DrainTransitions(Fn&& fn) {
    for (size_t i = 0; i < transitions_.size(); ++i) fn(transitions_[i]);
    transitions_.clear();
  }

  // Drops pending transitions without visiting them (initialization seeds
  // its candidate queues by a full scan instead).
  void DiscardTransitions() { transitions_.clear(); }

  // --- Snapshots -------------------------------------------------------------

  // Writes k, the solution size and status as the snapshot section "mis".
  // Vertex ids refer to the owning graph's id space, so the graph must be
  // saved (and restored) alongside. Requires a quiescent state: the
  // transition log must be drained.
  void SaveTo(SnapshotWriter* w) const;

  // Restores the state from the section "mis". The graph must already hold
  // the snapshot's topology. Runs a full O(n + m) validation before any
  // data is adopted — parameter match (k), array size, independence and
  // maximality against the graph — so a CRC-valid but semantically corrupt
  // payload is rejected with a structured error instead of aborting in a
  // later update; the same pass derives the counts and owner sums. Returns
  // false (failing the reader) on any violation. Performs no
  // MoveIn/MoveOut, which status_ops() lets callers verify.
  bool LoadFrom(SnapshotReader* r);

  // --- Introspection ---------------------------------------------------------

  // Lifetime count of MoveIn/MoveOut transitions. Instrumentation for the
  // snapshot tests: a freshly constructed state that was LoadFrom-restored
  // reports 0, whereas any recompute/Initialize path would have performed at
  // least |I| transitions.
  int64_t status_ops() const { return status_ops_; }

  size_t MemoryUsageBytes() const;

  // Full O(n + m) invariant validation: independence, count and owner-sum
  // correctness, maximality. Aborts on violation. Test-only.
  void CheckConsistency(bool expect_maximal) const;

 private:
  // Sum and sum of squares (mod 2^64) of a vertex's solution neighbours.
  struct OwnerSums {
    uint64_t sum = 0;
    uint64_t sq = 0;

    void Add(VertexId w) {
      sum += static_cast<uint64_t>(w);
      sq += static_cast<uint64_t>(w) * static_cast<uint64_t>(w);
    }
    void Remove(VertexId w) {
      sum -= static_cast<uint64_t>(w);
      sq -= static_cast<uint64_t>(w) * static_cast<uint64_t>(w);
    }
    bool operator==(const OwnerSums&) const = default;
  };

  // Adds / removes solution neighbour w of u: count and sums together.
  void AddOwner(VertexId u, VertexId w) {
    ++count_[u];
    owners_[u].Add(w);
  }
  void RemoveOwner(VertexId u, VertexId w) {
    --count_[u];
    owners_[u].Remove(w);
  }

  // Appends u, which must not be in I, to the transition log when its count
  // lies in 1..k.
  void LogTransition(VertexId u);

  DynamicGraph* g_;
  int k_;

  std::vector<uint8_t> status_;
  std::vector<int32_t> count_;
  std::vector<OwnerSums> owners_;
  int64_t solution_size_ = 0;
  int64_t status_ops_ = 0;

  std::vector<VertexId> transitions_;

  StatusObserverFn status_observer_ = nullptr;
  void* status_observer_ctx_ = nullptr;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_CORE_SOLUTION_H_
