// Shard: one vertex partition of a ShardedMisEngine. It owns a DynamicGraph
// holding the shard's vertices *at their global ids* (foreign ids stay dead
// gaps, so no id translation exists anywhere) plus the intra-shard edges,
// the registry maintainer running over that graph, and a dedicated worker
// thread fed by a queue of update blocks.
//
// Threading contract: the engine thread is the only producer. Between a
// Post() and the return of the next WaitIdle() the worker owns the graph
// and maintainer exclusively; after WaitIdle() returns (and until the next
// Post) the engine thread may read both directly — the queue mutex carries
// the happens-before edge. The worker applies ops one at a time through the
// maintainer's Apply path, so the shard's final state depends only on its
// op sequence, never on how the engine chopped it into blocks.

#ifndef DYNMIS_SRC_SHARD_SHARD_H_
#define DYNMIS_SRC_SHARD_SHARD_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dynmis/config.h"
#include "dynmis/maintainer.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/update_stream.h"

namespace dynmis {

class Shard {
 public:
  // A block of updates for this shard, in global-op order. `insert_ids`
  // carries the pre-allocated global ids of the block's kInsertVertex ops
  // (in op order); the worker queues them into the graph so the maintainer's
  // InsertVertex lands on exactly those ids.
  struct Block {
    std::vector<GraphUpdate> updates;
    std::vector<VertexId> insert_ids;

    bool empty() const { return updates.empty(); }
    void clear() {
      updates.clear();
      insert_ids.clear();
    }
  };

  Shard() = default;
  ~Shard() { Stop(); }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Populate graph() first (engine thread, worker not yet started), then
  // construct the maintainer over it. Returns false when the registry does
  // not know `config.algorithm`.
  bool BuildMaintainer(const MaintainerConfig& config);

  // Spawns the worker thread. Requires BuildMaintainer() to have succeeded.
  void Start();

  // Stops and joins the worker after draining its queue. Idempotent.
  void Stop();

  // Enqueues a block for the worker. Engine thread only.
  void Post(Block block);

  // Enqueues a maintainer Initialize({}) for the worker. Engine thread only.
  void PostInitialize();

  // Blocks until the queue is drained and the worker idles. After this
  // returns, graph() and maintainer() may be read from the calling thread
  // until the next Post.
  void WaitIdle();

  DynamicGraph& graph() { return graph_; }
  const DynamicGraph& graph() const { return graph_; }
  DynamicMisMaintainer& maintainer() { return *maintainer_; }
  const DynamicMisMaintainer& maintainer() const { return *maintainer_; }

 private:
  struct Command {
    enum class Kind { kBlock, kInitialize, kStop };
    Kind kind = Kind::kBlock;
    Block block;
  };

  void Loop();
  void Execute(Command& command);

  DynamicGraph graph_;
  std::unique_ptr<DynamicMisMaintainer> maintainer_;

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   // Signals the worker: queue non-empty.
  std::condition_variable idle_cv_;   // Signals waiters: drained and idle.
  std::deque<Command> queue_;
  bool busy_ = false;
  bool started_ = false;
};

}  // namespace dynmis

#endif  // DYNMIS_SRC_SHARD_SHARD_H_
